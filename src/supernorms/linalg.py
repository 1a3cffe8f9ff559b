"""Dense complex linear algebra: decompositions, products, and predicates.

Matrices are plain 2-D numpy arrays of complex128.  Every public function
validates its input and raises :class:`InvalidInputError` on malformed data
(wrong shape, NaN or Inf entries), so callers never feed garbage to LAPACK.
All functions are pure and safe to call concurrently.

The private ``_batched_svd`` and ``_batched_eigh`` decompose the ascent's
stacks, which it builds itself, so they validate nothing.  On a stack of at
least ``_CLOSED_FORM_ROWS`` 2x2 slices they take closed forms instead of
LAPACK: the SVD reduces each slice to a real upper-triangular one and
applies LAPACK's ``dlasv2`` (Demmel and Kahan), and the Hermitian
eigensystem is one Jacobi rotation.  Both keep LAPACK's order, singular
values descending and eigenvalues ascending, so ties break as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_count


def as_matrix(data) -> np.ndarray:
    """Validate ``data`` and return it as a fresh 2-D complex128 array."""
    return as_matrices(data, stack=False)


def as_matrices(data, stack: bool = True) -> np.ndarray:
    """Validate ``data`` as a nonempty matrix or, with ``stack``, a stack of
    them along leading axes, and return it as a fresh complex128 array."""
    try:
        arr = np.array(data, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot interpret input as a complex matrix: {exc}") from exc
    if arr.ndim < 2 or arr.ndim > 2 and not stack or arr.size == 0:
        what = "matrix or stack of matrices" if stack else "2-D matrix"
        raise InvalidInputError(f"expected a nonempty {what}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("matrix entries must be finite (no NaN or Inf)")
    return arr


def _require_square(X: np.ndarray, what: str) -> None:
    if X.shape[0] != X.shape[1]:
        raise InvalidInputError(f"{what} requires a square matrix, got shape {X.shape}")


@dataclass(frozen=True)
class SpectralData:
    """Ordered singular values together with the matching orthonormal systems.

    ``left_vectors`` and ``right_vectors`` store the systems as columns; column
    ``i`` of each pairs with ``singular_values[i]``.  Data produced by
    :func:`svd` satisfies ``sum_i s_i left_i right_i^* == input`` (see
    :meth:`reconstruct`); data produced by :func:`schmidt` instead satisfies
    ``sum_i s_i kron(left_i, right_i) == input`` with no conjugation.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix as ``sum_i s_i left_i right_i^*``."""
        return (self.left_vectors * self.singular_values) @ self.right_vectors.conj().T


def svd(M) -> SpectralData:
    """Singular value decomposition with values sorted in non-increasing order."""
    A = as_matrix(M)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    return SpectralData(s, U, Vh.conj().T)


def schmidt(state, dim_left: int, dim_right: int) -> SpectralData:
    """Schmidt decomposition of a unit vector on a bipartite space.

    The vector is indexed so that the left factor is the slow index
    (``index = i_left * dim_right + i_right``, the same layout ``np.kron``
    produces).  Returned coefficients satisfy ``sum s_i^2 == 1`` and the
    vector is recovered as ``sum_i s_i kron(left_i, right_i)``.
    """
    dim_left = require_count(dim_left, "dim_left", 1)
    dim_right = require_count(dim_right, "dim_right", 1)
    vec = np.asarray(state, dtype=np.complex128).reshape(-1)
    if vec.size != dim_left * dim_right:
        raise InvalidInputError(
            f"state has {vec.size} entries, expected {dim_left}x{dim_right}"
        )
    if not np.isfinite(vec).all():
        raise InvalidInputError("state entries must be finite")
    nrm = np.linalg.norm(vec)
    if abs(nrm - 1.0) > 1e-10:
        raise InvalidInputError(f"state must be a unit vector, got norm {nrm!r}")
    M = vec.reshape(dim_left, dim_right)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    # Unconjugated rows of Vh make the kron reconstruction identity exact.
    return SpectralData(s, U, Vh.T)


def inner(X, Y) -> complex:
    """Trace inner product ``tr(X^* Y)``, conjugate-linear in the first slot."""
    A = as_matrix(X)
    B = as_matrix(Y)
    if A.shape != B.shape:
        raise InvalidInputError(f"inner product needs equal shapes, got {A.shape} and {B.shape}")
    return complex(np.vdot(A, B))


def psd_sqrt(H) -> np.ndarray:
    """Square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues that dip below zero from roundoff are clamped to zero before
    taking the root.
    """
    A = as_matrix(H)
    _require_square(A, "psd_sqrt")
    lam, U = np.linalg.eigh((A + A.conj().T) / 2)
    lam = np.clip(lam, 0.0, None)
    return (U * np.sqrt(lam)) @ U.conj().T


def is_hermitian(X, tol: float = 1e-10) -> bool:
    """True iff the defect ``X - X^*`` has operator norm at most ``tol``."""
    A = as_matrix(X)
    _require_square(A, "is_hermitian")
    if tol < 0:
        raise InvalidInputError("tolerance must be non-negative")
    return bool(np.linalg.norm(A - A.conj().T, 2) <= tol)


# stacks of at least this many 2x2 slices take the closed-form SVD and
# eigensystem; below it LAPACK's batched calls are faster (see the crossover
# sweep in BENCH_2026-10-19-small-decompositions.json), and one-cell ascents
# at the default 32 restarts stay on LAPACK
_CLOSED_FORM_ROWS = 64
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


def _phase(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(z / |z|, |z|)`` elementwise, with phase 1 where z = 0."""
    a = np.abs(z)
    return np.divide(z, a, out=np.ones_like(z), where=a > 0.0), a


def _dlasv2(f: np.ndarray, g: np.ndarray, h: np.ndarray):
    """LAPACK's ``dlasv2`` (Demmel and Kahan) on the real ``[[f, g], [0, h]]``,
    ``f, g, h >= 0``, as ``(ssmax, ssmin, csl, snl, csr, snr)`` with

        [[f, g], [0, h]] = [[csl, -snl], [snl, csl]] diag(ssmax, ssmin) [[csr, snr], [-snr, csr]].

    With nonnegative entries every rotation entry is nonnegative, so both
    singular values come out nonnegative and ``ssmax >= ssmin``."""
    swap = h > f
    fa, ha = np.maximum(f, h), np.minimum(f, h)
    # dlasv2's branches: g dominant (this also takes f = h = 0 < g), g
    # negligible (diagonal, zero slices too), and the normal case
    big = fa < _EPS * g
    normal = ~big & (g > _TINY * fa)
    if normal.all():
        ssmax, ssmin, clt, slt, crt, srt = _dlasv2_normal(fa, ha, g)
    else:
        ssmax, ssmin, slt, srt = fa.copy(), ha.copy(), np.zeros_like(fa), np.zeros_like(fa)
        clt, crt = np.ones_like(fa), np.ones_like(fa)
        i = np.flatnonzero(big)
        ssmax[i], ssmin[i] = g[i], fa[i] * (ha[i] / g[i])
        slt[i], srt[i], crt[i] = ha[i] / g[i], 1.0, fa[i] / g[i]
        i = np.flatnonzero(normal)
        ssmax[i], ssmin[i], clt[i], slt[i], crt[i], srt[i] = _dlasv2_normal(fa[i], ha[i], g[i])
    return (
        ssmax,
        ssmin,
        np.where(swap, srt, clt),
        np.where(swap, crt, slt),
        np.where(swap, slt, crt),
        np.where(swap, clt, srt),
    )


def _dlasv2_normal(fa: np.ndarray, ha: np.ndarray, g: np.ndarray):
    """``dlasv2``'s normal case, ``fa >= ha``, ``fa >= eps g`` and ``g / fa > 0``."""
    l = (fa - ha) / fa  # 0 <= l <= 1
    m = g / fa  # 0 < m <= 1 / eps
    t = 2.0 - l
    mm = m * m
    s = np.sqrt(t * t + mm)
    # dlasv2 takes r = m when l = 0, where mm may have underflowed
    r = np.maximum(np.sqrt(l * l + mm), m)
    a = 0.5 * (s + r)  # 1 <= a <= 1 + m
    # dlasv2's own branch for mm = 0 is this formula's limit there
    t = (m / (s + t) + m / (r + l)) * (1.0 + a)
    l = np.sqrt(t * t + 4.0)
    crt = 2.0 / l
    srt = t / l
    return fa * a, ha / a, (crt + srt * m) / a, (ha / fa) * srt / a, crt, srt


def _svd_2x2(Z: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd`` of a stack of 2x2 slices, in closed form: singular
    values descending, and ``Z = U diag(s) Vh`` with U and Vh unitary.

    A Givens rotation Q, whose first column is Z's normalized first column,
    gives ``Q* Z = [[f, g'], [0, h']]``, ``f >= 0``; unit phases on the second
    row and column make it the real ``[[f, |g'|], [0, |h'|]]``, whose SVD is
    ``_dlasv2``'s.  Every step is unitary or divides by a norm, so nothing
    over- or underflows before the singular values themselves would."""
    a, b, c, d = Z[:, 0, 0], Z[:, 0, 1], Z[:, 1, 0], Z[:, 1, 1]
    f = np.hypot(np.abs(a), np.abs(c))
    live = f > 0.0
    ca = np.divide(a, f, out=np.ones_like(a), where=live)
    cc = np.divide(c, f, out=np.zeros_like(c), where=live)
    # Q = [[ca, -cc*], [cc, ca*]]
    eg, g = _phase(ca.conj() * b + cc.conj() * d)
    eh, h = _phase(ca * d - cc * b)
    ssmax, ssmin, csl, snl, csr, snr = _dlasv2(f, g, h)
    s = np.stack([ssmax, ssmin], axis=-1)
    if not compute_uv:
        return s
    # Z = Q diag(1, eh eg*) [[f, g], [0, h]] diag(1, eg)
    e2 = eh * eg.conj()
    p, r = cc.conj() * e2, ca.conj() * e2
    U = np.empty_like(Z)
    U[:, 0, 0] = ca * csl - p * snl
    U[:, 0, 1] = -(ca * snl + p * csl)
    U[:, 1, 0] = cc * csl + r * snl
    U[:, 1, 1] = r * csl - cc * snl
    Vh = np.empty_like(Z)
    Vh[:, 0, 0] = csr
    Vh[:, 0, 1] = snr * eg
    Vh[:, 1, 0] = -snr
    Vh[:, 1, 1] = csr * eg
    return U, s, Vh


def _eigh_2x2(H: np.ndarray):
    """``np.linalg.eigh`` of a stack of 2x2 Hermitian slices (lower triangle
    read), in closed form: eigenvalues ascending, ``H = V diag(lam) V*``.

    As in LAPACK's ``zlaev2``, the eigenvalue of larger modulus is taken
    directly and the other as the determinant over it, so neither cancels.
    The eigenvectors are one Jacobi rotation with the phase of the
    off-diagonal entry, its tangent taken as a ratio at most 1."""
    a, c = H[:, 0, 0].real, H[:, 1, 1].real
    w, ab = _phase(H[:, 1, 0])  # H[0, 1] = ab w*
    m, d = 0.5 * (a + c), 0.5 * (a - c)
    r = np.hypot(d, ab)
    up = m >= 0.0  # the larger eigenvalue m + r has the larger modulus
    big = np.where(up, m + r, m - r)
    wide = np.abs(a) > np.abs(c)
    acmx, acmn = np.where(wide, a, c), np.where(wide, c, a)
    # det / big, but -big where m = 0; big = 0 only on a zero slice
    bs = np.where(big != 0.0, big, 1.0)
    small = np.where(m != 0.0, (acmx / bs) * acmn - (ab / bs) * ab, -big)
    lam = np.stack([np.where(up, small, big), np.where(up, big, small)], axis=-1)
    # the larger eigenvalue's eigenvector (cs, sn w) at tan = ab / (r + d)
    # for d >= 0, cot = ab / (r - d) otherwise; r = 0 only on a multiple of I
    den = r + np.abs(d)
    x = np.divide(ab, den, out=np.zeros_like(ab), where=den > 0.0)
    k = 1.0 / np.sqrt(1.0 + x * x)
    dpos = d >= 0.0
    cs, sn = np.where(dpos, k, x * k), np.where(dpos, x * k, k)
    V = np.empty_like(H)
    V[:, 0, 0], V[:, 0, 1] = -sn, cs
    V[:, 1, 0], V[:, 1, 1] = cs * w, sn * w
    return lam, V


def _closed_form(Z: np.ndarray) -> bool:
    return Z.shape[1:] == (2, 2) and len(Z) >= _CLOSED_FORM_ROWS


def _batched_svd(Z: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd`` of a stack of square matrices, in closed form on a
    long stack of 2x2 slices."""
    return _svd_2x2(Z, compute_uv) if _closed_form(Z) else np.linalg.svd(Z, compute_uv=compute_uv)


def _batched_eigh(H: np.ndarray):
    """``np.linalg.eigh`` of a stack of Hermitian matrices, in closed form
    on a long stack of 2x2 slices."""
    return _eigh_2x2(H) if _closed_form(H) else np.linalg.eigh(H)
