"""Super-operators in generalized Kraus form.

A :class:`SuperOp` holds two equal-length lists of dim_out x dim_in matrices
and acts as ``Phi(X) = sum_i A_i X B_i^*``.  Maps given in completely positive
form use a single list (``B_i = A_i``) and store one shared stack.  Instances
are immutable; the stored stacks are read-only arrays.

One kernel, built by :func:`_kraus_kernel`, applies every map and adjoint
to stacks of matrices, and never materializes ``Phi (x) I_k``;
:func:`tensor_identity` builds that map explicitly and is the reference.  It
contracts either by two GEMMs on the system legs or by one GEMM with the
transfer matrix (the realigned Choi matrix), whichever takes fewer
multiply-adds on the stack it is built for: the ascent's long stacks of small
maps take the transfer matrix, and one matrix (``apply``) or a large map
with few terms takes the system legs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_count, require_entries
from .linalg import as_matrix


def _as_kraus_stack(mats, what: str) -> np.ndarray:
    """``mats`` as a fresh read-only (terms, rows, cols) complex128 stack."""
    try:
        # np.array would read a generator as one object, so it is listed first
        stack = np.array(list(mats) if isinstance(mats, Iterator) else mats, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be a list of matrices of one shape: {exc}") from exc
    if stack.ndim != 3 or 0 in stack.shape:
        raise InvalidInputError(f"{what} needs nonempty matrices, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise InvalidInputError(f"{what} entries must be finite")
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True, eq=False)
class SuperOp:
    """Generalized Kraus representation ``X -> sum_i A_i X B_i^*``.

    ``kraus_left`` and ``kraus_right`` are (n_terms, dim_out, dim_in) stacks;
    a map built from one list for both (CP form) stores one shared stack.
    Maps compare and hash by identity.
    """

    kraus_left: np.ndarray
    kraus_right: np.ndarray

    def __post_init__(self):
        left = _as_kraus_stack(self.kraus_left, "kraus_left")
        if self.kraus_right is self.kraus_left:
            right = left
        else:
            right = _as_kraus_stack(self.kraus_right, "kraus_right")
        if left.shape != right.shape:
            raise InvalidInputError(
                f"kraus lists must match in length and shape, got {left.shape} and {right.shape}"
            )
        object.__setattr__(self, "kraus_left", left)
        object.__setattr__(self, "kraus_right", right)

    @classmethod
    def from_kraus(cls, left, right=None) -> "SuperOp":
        """Build from Kraus lists; omitting ``right`` gives the CP form B_i = A_i."""
        return cls(left, left if right is None else right)

    @property
    def n_terms(self) -> int:
        return self.kraus_left.shape[0]

    @property
    def dim_out(self) -> int:
        return self.kraus_left.shape[1]

    @property
    def dim_in(self) -> int:
        return self.kraus_left.shape[2]

    @property
    def cp_form(self) -> bool:
        """True when the two lists are entrywise equal (map stored in CP form)."""
        left, right = self.kraus_left, self.kraus_right
        return left is right or bool(np.array_equal(left, right))


def identity_superop(dim: int) -> SuperOp:
    """The identity map on dim x dim matrices."""
    dim = require_count(dim, "dim", 1)
    eye = np.eye(dim, dtype=np.complex128)[None, :, :]
    return SuperOp.from_kraus(eye)


def _dagger(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return stack.conj().transpose(0, 2, 1)


def _transfer_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The transfer matrix ``T[(i, j), (p, q)] = sum_t A_t[p, i] conj(B_t[q, j])``
    (the realigned Choi matrix, n^2 x m^2) of (n_terms, m, n) stacks ``left``,
    ``right``: a row-major vectorized input times T is the vectorized output."""
    _, m, n = left.shape
    C = np.einsum("kai,kbj->iajb", left, right.conj())  # [i, p, j, q]
    return C.transpose(0, 2, 1, 3).reshape(n * n, m * m)


def _transfer_pays(t: int, m: int, n: int, blocks: int) -> bool:
    """True when building the transfer matrix of t m x n terms and one GEMM
    with it over ``blocks`` n x n blocks (stack rows times k^2) take fewer
    multiply-adds than the two system-leg GEMMs on the same blocks."""
    return n * m * (t + blocks) < blocks * t * (n + m)


def _system_gemms(left: np.ndarray, right: np.ndarray, k: int):
    """``X -> sum_t (A_t (x) I_k) X (B_t (x) I_k)^*`` on (r, nk, nk) stacks by
    two GEMMs on the system legs alone, the ancilla the fast index of each
    leg; both GEMM operands are laid out here, once."""
    t, m, n = left.shape
    right_rows = right.conj().reshape(t * m, n)  # [(t, q), j]
    left_cols = left.transpose(1, 0, 2).reshape(m, t * n)  # [p, (t, i)]

    def act(X: np.ndarray) -> np.ndarray:
        # system column leg first: [j, (i, r, a, b)] for X[r, (i, a), (j, b)]
        Xj = X.reshape(-1, n, k, n, k).transpose(3, 1, 0, 2, 4).reshape(n, -1)
        Z = (right_rows @ Xj).reshape(t, m, n, -1)  # [t, q, i, (r, a, b)]
        Z = Z.transpose(0, 2, 1, 3).reshape(t * n, -1)  # [(t, i), (q, r, a, b)]
        out = left_cols @ Z  # [p, (q, r, a, b)]
        return out.reshape(m, m, -1, k, k).transpose(2, 0, 3, 1, 4).reshape(-1, m * k, m * k)

    return act


def _transfer_gemm(T: np.ndarray, n: int, m: int, k: int):
    """The same contraction by one GEMM with the n^2 x m^2 transfer matrix
    ``T``: X relaid as (r k^2, n^2) rows ``[(r, a, b), (i, j)]``, times T, and
    relaid back to (r, mk, mk); at k = 1 X needs no relayout."""
    if k == 1:
        return lambda X: (X.reshape(len(X), n * n) @ T).reshape(-1, m, m)

    def act(X: np.ndarray) -> np.ndarray:
        rows = X.reshape(-1, n, k, n, k).transpose(0, 2, 4, 1, 3).reshape(-1, n * n)
        out = rows @ T  # [(r, a, b), (p, q)]
        return out.reshape(-1, k, k, m, m).transpose(0, 3, 1, 4, 2).reshape(-1, m * k, m * k)

    return act


def _kraus_kernel(left: np.ndarray, right: np.ndarray, k: int = 1, rows: int = 1):
    """The contraction ``X -> sum_t (A_t (x) I_k) X (B_t (x) I_k)^*`` on
    (r, nk, nk) stacks and its adjoint ``Y -> sum_t (A_t (x) I_k)^* Y
    (B_t (x) I_k)`` on (r, mk, mk) stacks, as a pair of functions, for
    (n_terms, m, n) stacks ``left``, ``right``.

    Two contractions give them.  The system-leg form takes two GEMMs whose
    inner dimensions are n and n_terms n (``_system_gemms``); the transfer
    form takes one GEMM with the transfer matrix T (``_transfer_gemm``), and
    the adjoint one with T^H, its exact conjugate transpose, so T is built
    once.  The pair takes the transfer form when building T and its GEMM cost
    fewer multiply-adds than the two GEMMs on a stack of ``rows`` rows
    (``_transfer_pays``), and uses it on every stack it is given.  Either
    form lays out its operands here, once, so a caller that contracts many
    stacks with one map (the ascent) pays for them once.
    """
    t, m, n = left.shape
    if _transfer_pays(t, m, n, rows * k * k):
        T = _transfer_matrix(left, right)
        return _transfer_gemm(T, n, m, k), _transfer_gemm(T.conj().T, m, n, k)
    return _system_gemms(left, right, k), _system_gemms(_dagger(left), _dagger(right), k)


def apply(phi: SuperOp, X) -> np.ndarray:
    """Evaluate ``Phi(X) = sum_i A_i X B_i^*``."""
    A = as_matrix(X)
    if A.shape != (phi.dim_in, phi.dim_in):
        raise InvalidInputError(
            f"input must be {phi.dim_in}x{phi.dim_in}, got {A.shape}"
        )
    return _kraus_kernel(phi.kraus_left, phi.kraus_right)[0](A[None])[0]


def adjoint_apply(phi: SuperOp, Y) -> np.ndarray:
    """Evaluate the trace-inner-product adjoint ``Phi^*(Y) = sum_i A_i^* Y B_i``."""
    A = as_matrix(Y)
    if A.shape != (phi.dim_out, phi.dim_out):
        raise InvalidInputError(
            f"adjoint input must be {phi.dim_out}x{phi.dim_out}, got {A.shape}"
        )
    return _kraus_kernel(phi.kraus_left, phi.kraus_right)[1](A[None])[0]


def tensor_identity(phi: SuperOp, ancilla_dim: int) -> SuperOp:
    """The map ``Phi (x) Id`` on the enlarged space, ancilla as the fast index."""
    k = require_count(ancilla_dim, "ancilla_dim", 1)
    shape = (phi.n_terms, phi.dim_out * k, phi.dim_in * k)
    require_entries(math.prod(shape), f"ancilla_dim {k}")
    # (A (x) I_k)[(i, a), (j, b)] = A[i, j] I_k[a, b], one broadcast per distinct stack
    eye = np.eye(k)[:, None, :]
    left = (phi.kraus_left[:, :, None, :, None] * eye).reshape(shape)
    if phi.kraus_right is phi.kraus_left:
        return SuperOp(left, left)
    return SuperOp(left, (phi.kraus_right[:, :, None, :, None] * eye).reshape(shape))


def left_cp_map(phi: SuperOp) -> SuperOp:
    """The CP map built from the left Kraus list alone: ``X -> sum_i A_i X A_i^*``."""
    return SuperOp(phi.kraus_left, phi.kraus_left)


def right_cp_map(phi: SuperOp) -> SuperOp:
    """The CP map built from the right Kraus list alone: ``X -> sum_i B_i X B_i^*``."""
    return SuperOp(phi.kraus_right, phi.kraus_right)


def choi_matrix(phi: SuperOp) -> np.ndarray:
    """Block operator whose (i, j) block is ``Phi(|i><j|)``: the transfer
    matrix, realigned."""
    n = phi.dim_in
    m = phi.dim_out
    T = _transfer_matrix(phi.kraus_left, phi.kraus_right)
    return T.reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m)


def is_completely_positive(phi: SuperOp, tol: float = 1e-9) -> bool:
    """True iff the Choi block operator is Hermitian and PSD within ``tol``.

    ``tol`` is relative to the Choi matrix's spectral norm: the Hermitian
    defect may reach ``tol`` times that norm, and the lowest eigenvalue of
    the Hermitian part may fall that far below zero.  So the answer does not
    change when the map is scaled, and the zero map passes."""
    C = choi_matrix(phi)
    bound = tol * np.linalg.norm(C, 2)
    if np.linalg.norm(C - C.conj().T, 2) > bound:
        return False
    lam = np.linalg.eigvalsh((C + C.conj().T) / 2)
    return bool(lam.min() >= -bound)


def is_trace_preserving(phi: SuperOp, tol: float = 1e-9) -> bool:
    """True iff ``sum_i B_i^* A_i = I`` within ``tol`` in operator norm."""
    M = np.einsum("kba,kbc->ac", phi.kraus_right.conj(), phi.kraus_left)
    return bool(np.linalg.norm(M - np.eye(phi.dim_in), 2) <= tol)


def difference(phi0: SuperOp, phi1: SuperOp) -> SuperOp:
    """The map ``phi0 - phi1`` as one generalized Kraus representation."""
    if (phi0.dim_in, phi0.dim_out) != (phi1.dim_in, phi1.dim_out):
        raise InvalidInputError("difference requires matching dimensions")
    left = np.concatenate([phi0.kraus_left, phi1.kraus_left])
    right = np.concatenate([phi0.kraus_right, -phi1.kraus_right])
    return SuperOp(left, right)


def remix(phi: SuperOp, mixer) -> SuperOp:
    """Re-express the same map through different Kraus lists.

    For an invertible n_terms x n_terms matrix M, the left list is recombined
    by M and the right list by the inverse adjoint of M, which leaves the
    action of the map unchanged while changing :func:`left_cp_map` and
    :func:`right_cp_map`.
    """
    M = as_matrix(mixer)
    if M.shape != (phi.n_terms, phi.n_terms):
        raise InvalidInputError(
            f"mixer must be {phi.n_terms}x{phi.n_terms}, got {M.shape}"
        )
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise InvalidInputError("mixer must be invertible") from exc
    left = np.einsum("ji,iab->jab", M, phi.kraus_left)
    right = np.einsum("ji,iab->jab", inv.conj().T, phi.kraus_right)
    return SuperOp(left, right)
