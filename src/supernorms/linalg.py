"""Dense complex linear algebra: decompositions, products, and predicates.

Matrices are plain 2-D numpy arrays of complex128.  Every public function
validates its input and raises :class:`InvalidInputError` on malformed data
(wrong shape, NaN or Inf entries), so callers never feed garbage to LAPACK.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_count


def as_matrix(data) -> np.ndarray:
    """Validate ``data`` and return it as a fresh 2-D complex128 array."""
    try:
        arr = np.array(data, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot interpret input as a complex matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
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
