"""Schatten p-norms, dual exponents, extremal witnesses, and norm inequalities.

Exponents are floats in [1, inf].  Infinity is ``math.inf`` and is always an
explicit branch (the operator norm is the top singular value, never a large-p
approximation).  The serialized form of an exponent is either the string
``"inf"`` or a decimal number >= 1.

A stack of equal-length spectra, one per row, is read in one pass at any
number of exponents (``_spectrum_pnorms``): its magnitudes, row peaks and
scaled entries are taken once, each exponent powers and row-sums the whole
stack, and each row's value has the same bits as ``pnorm`` gives on that row
alone, which takes that path, as a one-row stack, for a 1-D spectrum itself.
``schatten_norm`` of a stack of matrices, at one or several exponents, and
``block_norm_bounds`` read their spectra that way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidExponentError, InvalidInputError, require_count
from .linalg import as_matrices, as_matrix, inner

# Singular values below this floor are dropped for exponents close to 1, where
# raising denormal noise to the power p and summing can pollute the result.
_UNDERFLOW_FLOOR = 1e-300


def require_exponent(p) -> float:
    """Validate a Schatten exponent and return it as a float; booleans are refused."""
    if isinstance(p, (bool, np.bool_)):
        raise InvalidExponentError(f"exponent must be a number or inf, got {p!r}")
    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise InvalidExponentError(f"exponent must be a number or inf: {exc}") from exc
    if math.isnan(p) or p < 1.0:
        raise InvalidExponentError(f"exponent must satisfy 1 <= p <= inf, got {p}")
    return p


def dual_exponent(p) -> float:
    """The exponent p* with 1/p + 1/p* = 1; maps 1 <-> inf and fixes 2."""
    p = require_exponent(p)
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def parse_exponent(text: str) -> float:
    """Parse the serialized exponent form: ``"inf"`` or a decimal >= 1."""
    if not isinstance(text, str):
        raise InvalidExponentError(f"expected an exponent string, got {type(text).__name__}")
    stripped = text.strip()
    if stripped == "inf":
        return math.inf
    try:
        value = float(stripped)
    except ValueError as exc:
        raise InvalidExponentError(f"cannot parse exponent {text!r}") from exc
    if math.isnan(value):
        raise InvalidExponentError(f'exponent must be a number or "inf", got {text!r}')
    if math.isinf(value):
        raise InvalidExponentError('infinity must be spelled "inf"')
    return require_exponent(value)


def format_exponent(p) -> str:
    """Inverse of :func:`parse_exponent`."""
    p = require_exponent(p)
    return "inf" if math.isinf(p) else repr(p)


def singular_values(X) -> np.ndarray:
    """Singular values of ``X`` in non-increasing order."""
    return np.linalg.svd(as_matrix(X), compute_uv=False)


def _real_spectrum(values, what: str) -> np.ndarray:
    """``values`` as a float array of at least one axis; non-real, non-finite
    and 0-d input is refused, with ``what`` naming the caller."""
    try:
        a = np.asarray(values)
        if a.dtype.kind not in "biufO":
            raise TypeError(f"got dtype {a.dtype}")
        a = a.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} entries must be real numbers: {exc}") from exc
    if a.ndim == 0:
        raise InvalidInputError(f"{what} needs an array of at least one axis, got a scalar")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{what} entries must be finite (no NaN or Inf)")
    return a


def pnorm(values, p, axis: int = -1):
    """p-norm of a (possibly batched) spectrum along ``axis``.

    Scales by the peak entry before powering so large exponents neither
    overflow nor underflow.  An empty spectrum has norm 0 at every exponent.
    A 1-D spectrum gives a float, computed as :func:`_spectrum_pnorms` does.
    Non-real or non-finite entries, 0-d input and an axis out of range raise
    :class:`InvalidInputError`.
    """
    p = require_exponent(p)
    a = _real_spectrum(values, "pnorm")
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or not -a.ndim <= axis < a.ndim:
        raise InvalidInputError(f"pnorm axis must be an integer in [{-a.ndim}, {a.ndim}), got {axis!r}")
    if a.ndim == 1:
        return _spectrum_pnorms(a[None], (p,))[0][0]
    a = np.abs(a)
    if a.size == 0:
        return a.sum(axis=axis)
    if math.isinf(p):
        return a.max(axis=axis)
    if p < 1.0001:
        a = np.where(a < _UNDERFLOW_FLOOR, 0.0, a)
    if p == 1.0:
        return a.sum(axis=axis)
    peak = a.max(axis=axis, keepdims=True)
    safe = np.where(peak > 0.0, peak, 1.0)
    out = ((a / safe) ** p).sum(axis=axis) ** (1.0 / p) * np.squeeze(safe, axis=axis)
    return out


def _spectrum_pnorms(spectra, exponents) -> list[list[float]]:
    """``[[float(pnorm(row, p)) for row in spectra] for p in exponents]`` on a
    2-D stack of equal-length spectra, one per row (``exponents`` validated
    floats), bit for bit.

    The magnitudes, their row peaks and the scaled stack are taken once; each
    exponent then floors (p < 1.0001), powers and row-sums the whole stack.
    Each row's root and peak factor are scalar, as ``pnorm`` takes them on one
    spectrum: an array power can round differently.  Flooring the scaled
    stack is flooring before scaling: a row's peak is either kept or, with
    every other entry of its row, floored to 0.  An all-zero row is scaled
    by 1 and sums to 0, so its peak factor 0 gives its norm 0 all the same.
    """
    a = np.abs(np.asarray(spectra, dtype=float))
    if a.size == 0:
        return [[0.0] * len(a) for _ in exponents]
    peak = scaled = None
    norms = []
    for p in exponents:
        if p == 1.0:
            norms.append(np.add.reduce(np.where(a < _UNDERFLOW_FLOOR, 0.0, a), axis=-1).tolist())
            continue
        if peak is None:
            peak = np.maximum.reduce(a, axis=-1, keepdims=True)
            peaks = peak.ravel().tolist()
        if math.isinf(p):
            norms.append(peaks)
            continue
        if scaled is None:
            scaled = a / (np.where(peak > 0.0, peak, 1.0) if 0.0 in peaks else peak)
        x = np.where(a < _UNDERFLOW_FLOOR, 0.0, scaled) if p < 1.0001 else scaled
        sums = np.add.reduce(x**p, axis=-1).tolist()
        root = 1.0 / p
        for i, f in enumerate(peaks):  # a loop, not a comprehension: one row is the common call
            sums[i] = sums[i] ** root * f
        norms.append(sums)
    return norms


def schatten_norm(X, p):
    """Schatten p-norm: the p-norm of the singular value spectrum.

    ``X`` may also be a stack of matrices along leading axes, and ``p`` a
    sequence of exponents: the norms then come as an array with the stack's
    leading axes and, for a sequence, a last axis of one norm per exponent.
    A stack takes one SVD and one pass over its spectra, and each norm has
    the bits of its one matrix's norm at its one exponent.
    """
    A = as_matrices(X)
    if A.ndim == 2 and np.ndim(p) == 0:
        return float(pnorm(np.linalg.svd(A, compute_uv=False), p))
    exponents = [require_exponent(q) for q in (p if np.ndim(p) else [p])]
    s = np.linalg.svd(A, compute_uv=False)
    norms = np.array(_spectrum_pnorms(s.reshape(-1, s.shape[-1]), exponents)).T
    norms = norms.reshape(*A.shape[:-2], len(exponents))
    return norms if np.ndim(p) else norms[..., 0]


def holder_weights(values, ball_exponent) -> np.ndarray:
    """Unit-q-norm weights maximizing ``sum(values * w)`` for q = ball_exponent.

    ``values`` may be signed (eigenvalue spectra are allowed); the optimum is
    ``||values||_{q*}``.  q = 1 puts all weight on the largest magnitude
    (first index on ties), q = inf weights every nonzero entry by its sign,
    and finite q > 1 uses magnitudes to the power 1/(q-1).  Rows that are
    entirely zero come back as zero weights, and an empty spectrum as empty
    weights.  Operates on the last axis.  Non-real or non-finite entries and
    0-d input raise :class:`InvalidInputError`.
    """
    q = require_exponent(ball_exponent)
    return _holder_weights(_real_spectrum(values, "holder_weights"), q)


def _holder_weights(v: np.ndarray, q: float) -> np.ndarray:
    """:func:`holder_weights` of the float array ``v`` at the validated
    exponent ``q``, unchecked, for the ascent's half-steps."""
    a = np.abs(v)
    sign = np.sign(v)
    if math.isinf(q) or v.size == 0:
        return sign
    if q == 1.0:
        idx = a.argmax(axis=-1)[..., None]
        top = np.take_along_axis(sign, idx, axis=-1)
        w = np.zeros_like(v)
        np.put_along_axis(w, idx, top, axis=-1)
        return w
    peak = a.max(axis=-1, keepdims=True)
    scaled = np.divide(a, peak, out=np.zeros_like(a), where=peak > 0.0)
    w = sign * scaled ** (1.0 / (q - 1.0))
    denom = (np.abs(w) ** q).sum(axis=-1, keepdims=True) ** (1.0 / q)
    return np.divide(w, denom, out=np.zeros_like(w), where=denom > 0.0)


def duality_witness(X, p) -> np.ndarray:
    """A matrix Y with ``||Y||_{p*} = 1`` and ``<Y, X> = ||X||_p``.

    Built from the SVD of ``X``: same singular vectors, values proportional
    to ``s_i**(p-1)``.  The p = 1 limit weights the whole nonzero spectrum
    flatly, the p = inf limit keeps only the top singular pair.
    """
    p = require_exponent(p)
    U, s, Vh = np.linalg.svd(as_matrix(X), full_matrices=False)
    if s[0] <= 0.0:
        raise InvalidInputError("duality witness is undefined for the zero matrix")
    return _witnesses(U, _witness_weights(s, [p]), Vh)[0]


def _witness_weights(s: np.ndarray, exponents) -> np.ndarray:
    """The weights that :func:`duality_witness` gives the singular values
    ``s`` (a stack of spectra, one per row) at each exponent: an axis of
    exponents before the last."""
    return np.stack([_holder_weights(s, dual_exponent(p)) for p in exponents], axis=-2)


def _witnesses(U: np.ndarray, w: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    """The witnesses ``(U * w) @ Vh`` of a stack of singular systems at each
    row of their :func:`_witness_weights` ``w``: an axis of exponents before
    the matrix axes."""
    return (U[..., None, :, :] * w[..., None, :]) @ Vh[..., None, :, :]


def _block_stack(A: np.ndarray, block_rows: int, block_cols: int) -> np.ndarray:
    """The blocks of ``A`` for an even ``block_rows`` x ``block_cols``
    partition, as a stack in row-major block order."""
    rows, cols = A.shape
    h, w = rows // block_rows, cols // block_cols
    return A.reshape(block_rows, h, block_cols, w).transpose(0, 2, 1, 3).reshape(-1, h, w)


def _block_spectra(A: np.ndarray, block_rows, block_cols) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum of the validated matrix ``A`` and its blocks' spectra, one
    row per block in row-major block order, for an even ``block_rows`` x
    ``block_cols`` partition; the blocks take one stacked SVD."""
    block_rows = require_count(block_rows, "block_rows", 1)
    block_cols = require_count(block_cols, "block_cols", 1)
    rows, cols = A.shape
    if rows % block_rows or cols % block_cols:
        raise InvalidInputError(
            f"matrix of shape {A.shape} does not partition into {block_rows}x{block_cols} blocks"
        )
    blocks = _block_stack(A, block_rows, block_cols)
    return np.linalg.svd(A, compute_uv=False), np.linalg.svd(blocks, compute_uv=False)


def _block_bounds(norms, block_norms) -> list[tuple[float, float]]:
    """:func:`block_norm_bounds` at each exponent from the matrix's norm and
    its blocks' norms at that exponent (``norms`` one float per exponent,
    ``block_norms`` one list per exponent, in block order)."""
    bounds = []
    for norm, column in zip(norms, block_norms):
        # summed in block order, one square at a time (sum() compensates
        # from Python 3.12 on, so it would round differently there)
        blocks_sq = 0.0
        for b in column:
            blocks_sq += b**2
        bounds.append((blocks_sq, norm**2))
    return bounds


def block_norm_bounds(X, block_rows: int, block_cols: int, p) -> tuple[float, float]:
    """The pair ``(sum_ij ||X_ij||_p^2, ||X||_p^2)`` for an even block partition.

    ``block_rows`` and ``block_cols`` count blocks per side; the matrix must
    split evenly.  For p <= 2 the first entry is at most the second, for
    p >= 2 the order reverses (with equality at p = 2).
    """
    A = as_matrix(X)
    p = require_exponent(p)
    full, blocks = _block_spectra(A, block_rows, block_cols)
    return _block_bounds(_spectrum_pnorms(full[None], (p,))[0], _spectrum_pnorms(blocks, (p,)))[0]


def hoelder_gap(X, Y, p) -> float:
    """``||X||_p ||Y||_{p*} - |<X, Y>|``; non-negative up to roundoff."""
    p = require_exponent(p)
    A = as_matrix(X)
    B = as_matrix(Y)
    if A.shape != B.shape:
        raise InvalidInputError(f"hoelder_gap needs equal shapes, got {A.shape} and {B.shape}")
    return float(schatten_norm(A, p) * schatten_norm(B, dual_exponent(p)) - abs(inner(A, B)))
