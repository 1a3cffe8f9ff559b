"""Schatten p-norms, dual exponents, extremal witnesses, and norm inequalities.

Exponents are floats in [1, inf].  Infinity is ``math.inf`` and is always an
explicit branch (the operator norm is the top singular value, never a large-p
approximation).  The serialized form of an exponent is either the string
``"inf"`` or a decimal number >= 1.

A 1-D spectrum is read in one pass at any number of exponents
(``_spectrum_pnorms``): its magnitudes, peak and scaled entries are taken
once, and each exponent's value has the same bits as ``pnorm`` gives, which
takes that path for a 1-D spectrum itself.  ``block_norm_bounds`` reads the
full matrix and each block that way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidExponentError, InvalidInputError, require_count
from .linalg import as_matrix, inner

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
        return _spectrum_pnorms(a, (p,))[0]
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


def _spectrum_pnorms(values, exponents) -> list[float]:
    """``float(pnorm(values, p))`` for each p of ``exponents`` (validated
    floats) on one 1-D spectrum, bit for bit.

    The magnitudes, their peak and the scaled spectrum are taken once; each
    exponent then only floors (p < 1.0001), powers, sums and takes its root.
    Flooring the scaled spectrum is flooring before scaling: the peak is
    either kept or, with every other entry, floored to 0.
    """
    a = np.abs(np.asarray(values, dtype=float))
    if a.size == 0:
        return [0.0] * len(exponents)
    peak = scaled = None
    norms = []
    for p in exponents:
        if p == 1.0:
            norms.append(float(np.where(a < _UNDERFLOW_FLOOR, 0.0, a).sum()))
            continue
        if peak is None:
            peak = a.max()
        if math.isinf(p):
            norms.append(float(peak))
            continue
        if scaled is None:
            safe = peak if peak > 0.0 else 1.0
            scaled = a / safe
        x = np.where(a < _UNDERFLOW_FLOOR, 0.0, scaled) if p < 1.0001 else scaled
        norms.append(float((x**p).sum() ** (1.0 / p) * safe))
    return norms


def schatten_norm(X, p) -> float:
    """Schatten p-norm: the p-norm of the singular value spectrum."""
    return float(pnorm(singular_values(X), p))


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
    return _duality_witnesses(as_matrix(X), [p])[0]


def _duality_witnesses(A: np.ndarray, exponents) -> list:
    """``duality_witness(A, p)`` for each exponent, from one SVD of ``A``."""
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s[0] <= 0.0:
        raise InvalidInputError("duality witness is undefined for the zero matrix")
    return [(U * _holder_weights(s, dual_exponent(p))) @ Vh for p in exponents]


def _block_spectra(A: np.ndarray, block_rows, block_cols) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum of the validated matrix ``A`` and its blocks' spectra, one
    row per block in row-major block order, for an even ``block_rows`` x
    ``block_cols`` partition; the blocks take one batched SVD."""
    block_rows = require_count(block_rows, "block_rows", 1)
    block_cols = require_count(block_cols, "block_cols", 1)
    rows, cols = A.shape
    if rows % block_rows or cols % block_cols:
        raise InvalidInputError(
            f"matrix of shape {A.shape} does not partition into {block_rows}x{block_cols} blocks"
        )
    blocks = A.reshape(block_rows, rows // block_rows, block_cols, cols // block_cols).transpose(0, 2, 1, 3)
    return (
        np.linalg.svd(A, compute_uv=False),
        np.linalg.svd(blocks, compute_uv=False).reshape(block_rows * block_cols, -1),
    )


def _block_bounds(spectra: tuple[np.ndarray, np.ndarray], exponents) -> list[tuple[float, float]]:
    """:func:`block_norm_bounds` at each p of ``exponents`` from
    :func:`_block_spectra`, one pass per spectrum."""
    full, blocks = spectra
    blocks_sq = [0.0] * len(exponents)
    for s in blocks:
        for i, norm in enumerate(_spectrum_pnorms(s, exponents)):
            blocks_sq[i] += norm**2
    return [(b, norm**2) for b, norm in zip(blocks_sq, _spectrum_pnorms(full, exponents))]


def block_norm_bounds(X, block_rows: int, block_cols: int, p) -> tuple[float, float]:
    """The pair ``(sum_ij ||X_ij||_p^2, ||X||_p^2)`` for an even block partition.

    ``block_rows`` and ``block_cols`` count blocks per side; the matrix must
    split evenly.  For p <= 2 the first entry is at most the second, for
    p >= 2 the order reverses (with equality at p = 2).
    """
    A = as_matrix(X)
    p = require_exponent(p)
    return _block_bounds(_block_spectra(A, block_rows, block_cols), (p,))[0]


def hoelder_gap(X, Y, p) -> float:
    """``||X||_p ||Y||_{p*} - |<X, Y>|``; non-negative up to roundoff."""
    p = require_exponent(p)
    A = as_matrix(X)
    B = as_matrix(Y)
    if A.shape != B.shape:
        raise InvalidInputError(f"hoelder_gap needs equal shapes, got {A.shape} and {B.shape}")
    return float(schatten_norm(A, p) * schatten_norm(B, dual_exponent(p)) - abs(inner(A, B)))
