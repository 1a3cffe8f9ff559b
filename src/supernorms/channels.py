"""Named example channels and seeded random instance generators.

The named constructions are fixed constants: building the same name twice
yields bitwise-identical Kraus stacks.  Random generators are pure functions
of their seed.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import InvalidInputError, require_count, require_entries
from .linalg import psd_sqrt
from .superop import SuperOp, identity_superop

EXAMPLE_NAMES = (
    "simple_nonhermitian",
    "qinf_nonhermitian",
    "depolarizing_pair",
    "dim4_pair",
    "transpose(n)",
)

_TRANSPOSE_RE = re.compile(r"transpose(?:\((\d+)\)|-(\d+))")


def _unit(dim: int, entries: dict[int, complex]) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    for i, c in entries.items():
        v[i] = c
    return v


def _ketbra(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.outer(u, v.conj())


def build_example(name: str):
    """Construct a named example map (or pair of maps).

    Supported names:

    - ``simple_nonhermitian``: the rank-one-output map ``X -> |0><0| X |1><0|``
      on a qubit; its unrestricted induced norms are 1 for every (q, p) while
      the Hermitian-restricted value drops to ``2**(-1/q)`` for finite q.
    - ``qinf_nonhermitian``: ``X -> (X_00 + i X_11)/2 |0><0|``, whose q = inf
      Hermitian-restricted value is ``1/sqrt(2)`` against 1 unrestricted.
    - ``depolarizing_pair``: the pair (identity, X -> tr(X)/2 I) on a qubit.
      The trace-norm distance of the pair exceeds its Hermitian-restricted
      variant for every p > 1.
    - ``dim4_pair``: a pair of trace-preserving CP maps from a qubit into four
      dimensions whose difference has unrestricted trace-norm distance 2 but
      Hermitian-restricted distance sqrt(2).
    - ``transpose(n)``: the transpose map on n x n matrices, the standard
      witness that induced norms are not stable under tensoring with an
      identity channel.

    Pair names return a tuple ``(phi0, phi1)``; the rest return one SuperOp.
    """
    if not isinstance(name, str):
        raise InvalidInputError("example name must be a string")
    if name == "simple_nonhermitian":
        left = [_ketbra(_unit(2, {0: 1}), _unit(2, {0: 1}))]
        right = [_ketbra(_unit(2, {0: 1}), _unit(2, {1: 1}))]
        return SuperOp.from_kraus(left, right)
    if name == "qinf_nonhermitian":
        e0 = _unit(2, {0: 1})
        e1 = _unit(2, {1: 1})
        left = [0.5 * _ketbra(e0, e0), 0.5j * _ketbra(e0, e1)]
        right = [_ketbra(e0, e0), _ketbra(e0, e1)]
        return SuperOp.from_kraus(left, right)
    if name == "depolarizing_pair":
        # Kraus terms |i><j| / sqrt(2), term 2 i + j
        return identity_superop(2), SuperOp.from_kraus(np.eye(4).reshape(4, 2, 2) / math.sqrt(2))
    if name == "dim4_pair":
        e0 = _unit(2, {0: 1})
        e1 = _unit(2, {1: 1})
        plus = _unit(2, {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
        minus = _unit(2, {0: 1 / math.sqrt(2), 1: -1 / math.sqrt(2)})
        outs = [_unit(4, {i: 1}) for i in range(4)]
        first = [e0, plus, e1, minus]
        second = [e1, minus, e0, plus]
        phi0 = SuperOp.from_kraus([_ketbra(outs[i], first[i]) / math.sqrt(2) for i in range(4)])
        phi1 = SuperOp.from_kraus([_ketbra(outs[i], second[i]) / math.sqrt(2) for i in range(4)])
        return phi0, phi1
    m = _TRANSPOSE_RE.fullmatch(name)
    if m:
        n = require_count(int(m.group(1) or m.group(2)), "transpose dimension", 1)
        require_entries(n**4, f"transpose({n})")
        # term i n + j is |i><j| on the left and |j><i| on the right
        left = np.eye(n * n).reshape(n * n, n, n)
        return SuperOp.from_kraus(left, left.transpose(0, 2, 1))
    raise InvalidInputError(
        f"unknown example {name!r}; known names: {', '.join(EXAMPLE_NAMES)}"
    )


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_superop(dim_in: int, dim_out: int, n_terms: int, seed: int) -> SuperOp:
    """Independent Gaussian left/right Kraus lists, scaled to O(1) norms."""
    dim_in = require_count(dim_in, "dim_in", 1)
    dim_out = require_count(dim_out, "dim_out", 1)
    n_terms = require_count(n_terms, "n_terms", 1)
    rng = np.random.default_rng(require_count(seed, "seed", 0))
    scale = 1.0 / math.sqrt(dim_in * n_terms)
    left = scale * _complex_gaussian(rng, (n_terms, dim_out, dim_in))
    right = scale * _complex_gaussian(rng, (n_terms, dim_out, dim_in))
    return SuperOp(left, right)


def random_cp_channel(dim_in: int, dim_out: int, n_kraus: int, seed: int) -> SuperOp:
    """A random completely positive trace-preserving map in CP Kraus form.

    Draws Gaussian Kraus operators, shrinks them so ``sum A_i^* A_i < I``,
    then appends completion terms built from row chunks of the PSD square
    root of the deficit (one chunk when dim_out >= dim_in).
    """
    dim_in = require_count(dim_in, "dim_in", 1)
    dim_out = require_count(dim_out, "dim_out", 1)
    n_kraus = require_count(n_kraus, "n_kraus", 1)
    rng = np.random.default_rng(require_count(seed, "seed", 0))
    kraus = _complex_gaussian(rng, (n_kraus, dim_out, dim_in))
    gram = np.einsum("kba,kbc->ac", kraus.conj(), kraus)
    kraus = kraus * (0.9 / math.sqrt(np.linalg.norm(gram, 2)))
    gram = np.einsum("kba,kbc->ac", kraus.conj(), kraus)
    root = psd_sqrt(np.eye(dim_in) - gram)
    n_chunks = -(-dim_in // dim_out)
    padded = np.zeros((n_chunks * dim_out, dim_in), dtype=np.complex128)
    padded[:dim_in] = root
    completion = padded.reshape(n_chunks, dim_out, dim_in)
    return SuperOp.from_kraus(np.concatenate([kraus, completion]))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Gaussian matrix."""
    dim = require_count(dim, "dim", 1)
    rng = np.random.default_rng(require_count(seed, "seed", 0))
    Q, R = np.linalg.qr(_complex_gaussian(rng, (dim, dim)))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))
