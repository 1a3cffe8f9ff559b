"""Induced super-operator norms via multi-restart alternating ascent.

The target quantity sup { ||Phi(X)||_p : ||X||_q = 1 } is treated as the
bilinear form Re<Y, Phi(X)> maximized jointly over the unit p*-ball in Y and
the unit q-ball in X.  Each partial maximization has a closed form (a
Hoelder witness read off a singular value or eigenvalue decomposition; at
exponent 2 it is the normalized matrix and no decomposition runs), and the
optimizer alternates the half-steps.  Long stacks of 2x2 slices are
decomposed in closed form, in LAPACK's order (``linalg._batched_svd``);
shorter stacks and larger slices call LAPACK.  On the unit trace-norm ball
(Y at p = inf, X at q = 1 without the Hermitian restriction) the witness is
rank one: the first iteration takes the top singular pair from an SVD, and
after that those rows keep their vector pair and take one power step per
iteration instead of a decomposition.

Restarts that converge slowly also extrapolate their input iterates, at the
input keys ``_EXTRAPOLATED``: q = 1 under any constraint, and q = 2 on the
full and Hermitian balls.  A row qualifies when its last objective gain is
more than ``_EXTRAPOLATION_GATE`` of the gain before it; it then steps from
``X + beta (X - X_old)`` in place of the plain half-step's X, which stays on
the ball's unit sphere: at q = 1 the step moves the rank-one factors (the
kept pair ``u, v`` aligned in phase with the previous pair, or the top
eigenvector with its sign kept), so the iterate is again an extreme point,
and at q = 2 the matrix is renormalized in the Frobenius norm.  The
extrapolated rows take the same forward and output half-step as the others;
a row whose value falls below its previous value is rejected: it keeps its
previous value, takes the plain iterate back, with the rank-one pairs of both
sides as the plain step left them, and is evaluated there in the next
iteration, as the plain step would be.  Each row keeps its own factor ``beta``,
which starts at ``_EXTRAPOLATION_START``, grows by ``_EXTRAPOLATION_GROWTH``
on an accepted step up to ``_EXTRAPOLATION_CAP``, and starts over on a
rejected one; the last iteration takes no extrapolated step, and an ascent in
which no row qualifies takes the plain steps only, bit for bit.  The
objective value never decreases along the iteration, every iterate is
feasible, and the reported value is therefore a certified lower bound
whatever the convergence status.

The ascent runs on each Kraus stack times the power of two that puts its
largest real or imaginary part in [0.5, 1), an exact rescale, so no witness
row can overflow and ``2^j Phi`` runs the iterates of ``Phi``: its value is
``2^j`` times ``Phi``'s, bit for bit while the re-evaluation on the given map
stays in LAPACK's unscaled range; other scales agree to the stopping tolerance.

One ascent runs any number of cells ``(q, p, constraint)`` on one map and
one ancilla: all restarts of all cells advance together as one compact stack
of the active rows, with one forward and one adjoint kernel call per
iteration.  Each side groups the rows by witness key ``(ball exponent,
constraint)``, ``(p*, "full")`` on the output side and ``(q, constraint)``
on the input side.  Every side takes one half-step for any number of groups:
per half-step, one SVD of all the rows of ``full`` groups and one
eigendecomposition of the Hermitian parts of all the rows of ``hermitian``
and ``psd`` groups, each group weighting its own rows' spectra, so that
short groups of 2x2 slices merge into stacks long enough for the closed
forms; the rank-one group (its first SVD, then its power steps) and the
exponent-2 groups step on their own rows.  A single cell is one group on
each side, whose rows are the whole stack as it is, so nothing is gathered
or scattered.  A restart leaves the stack, and its row goes back into the
full stack of iterates, once its gain or step falls under fixed tolerances,
and the rows still active go back when the iteration cap stops the ascent;
each cell then picks its best restart.  The ascent applies ``Phi (x) I_k``
and its adjoint through the Kraus kernel of :mod:`.superop`, built once per
ascent for its full stack: on the small maps of most queries each
application is one GEMM with the map's transfer matrix (its conjugate
transpose for the adjoint), and on a large map with few terms two GEMMs on
the system legs; neither materializes the enlarged map.  A GEMM can round a row
differently by where it sits in the stack, and a merged stack can take the
closed form where a group alone would call LAPACK, so a stacked cell agrees
with the same cell alone to the stopping tolerance, not bit for bit.

The start stack depends on ``(dim_in, ancilla, q, constraint, restarts,
seed)`` only, not on the map, so each distinct key is built once per ascent.
Its random rows come from one generator per stack, restart after restart, so
fewer restarts take a prefix of the same rows.

``norm_q_to_p`` given a sequence of queries on one map runs one such ascent
per ancilla the queries run on, and given one query the one-cell ascent;
``cp_norm`` does the same with PSD cells.  ``norm_q_to_p`` answers an
ancilla query on a smaller space where the paper proves the value there:
without the Hermitian restriction and with ``q <= 2 <= p`` on no ancilla
(Theorem 2), at q = 1 with ``k > dim_in`` on the ancilla ``dim_in``
(Theorem 3).  The achiever is embedded in the query's space, where ``value``
is re-evaluated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, PreconditionError, require_count, require_entries
from .linalg import _batched_eigh, _batched_svd
from .schatten import _holder_weights, dual_exponent, pnorm, require_exponent
from .superop import (
    SuperOp,
    _kernel_entries,
    _kraus_kernel,
    apply,
    is_completely_positive,
    left_cp_map,
    right_cp_map,
    tensor_identity,
)

# the oracle lives in .oracle; this binding keeps ``optimize.brute_force_oracle``,
# through which the benchmark in bench/ calls and traces it
from .oracle import brute_force_oracle  # noqa: F401

# the ascent's stopping tolerances: objective gain relative to 1 + |value|, step
_OBJECTIVE_TOLERANCE = 1e-10
_STEP_TOLERANCE = 1e-9
# a row at an extrapolated key takes an extrapolated input iterate when its
# last objective gain is more than this share of the gain before it
_EXTRAPOLATION_GATE = 0.3
# each row's extrapolation factor: its start, its growth on an accepted step
# (back to the start on a rejected one) and its cap
_EXTRAPOLATION_START, _EXTRAPOLATION_GROWTH, _EXTRAPOLATION_CAP = 0.5, 1.5, 50.0
# the input witness keys that extrapolate: their iterates are rank-one extreme
# points (q = 1) or points of the Frobenius sphere (q = 2)
_EXTRAPOLATED = frozenset({(1.0, "full"), (1.0, "hermitian"), (1.0, "psd"), (2.0, "full"), (2.0, "hermitian")})


@dataclass(frozen=True)
class NormQuery:
    """Which norm to compute: ``||Phi (x) I_k||_{q -> p}``, optionally over
    Hermitian inputs only.  ``stabilize_dim = 0`` means no ancilla."""

    q: float
    p: float
    hermitian_restricted: bool = False
    stabilize_dim: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q", require_exponent(self.q))
        object.__setattr__(self, "p", require_exponent(self.p))
        flag = self.hermitian_restricted
        if not isinstance(flag, (bool, np.bool_)):
            raise InvalidInputError(f"hermitian_restricted must be a bool, got {flag!r}")
        object.__setattr__(self, "hermitian_restricted", bool(flag))
        object.__setattr__(self, "stabilize_dim", require_count(self.stabilize_dim, "stabilize_dim", 0))


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iterations: int = 5000
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "restarts", require_count(self.restarts, "restarts", 1))
        object.__setattr__(self, "max_iterations", require_count(self.max_iterations, "max_iterations", 1))
        object.__setattr__(self, "seed", require_count(self.seed, "seed", 0))


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """Outcome of one optimization.

    ``value`` is recomputed from ``achiever`` after post-processing, so
    re-evaluating the achiever reproduces it exactly; the achiever has unit
    q-norm and is Hermitian when the query was Hermitian-restricted.
    ``converged`` tells whether the restart that attained the maximum (the
    lowest such index) met a tolerance before ``max_iterations`` ran out.
    ``2^j Phi`` has ``2^j`` times the value and the same achiever of ``Phi``.
    """

    value: float
    achiever: np.ndarray
    converged: bool

    def __post_init__(self):
        self.achiever.setflags(write=False)


def _frobenius(X: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of ``X`` over all its trailing axes."""
    r = np.ascontiguousarray(X).view(np.float64).reshape(len(X), -1)
    return np.sqrt(np.einsum("ra,ra->r", r, r))


# a row norm below this may have lost its sum of squares to underflow
_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _unit_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each row of ``x`` over its 2-norm into ``out``, and return it;
    rows under ``_SQRT_TINY``, zero rows among them, keep ``out``'s values."""
    nrm = _frobenius(x).reshape((-1,) + (1,) * (x.ndim - 1))
    return np.divide(x, nrm, out=out, where=nrm >= _SQRT_TINY)


def _unit_scale(stack: np.ndarray) -> np.ndarray:
    """``stack`` times the power of two that puts its largest real or
    imaginary part in [0.5, 1), which is exact; a zero stack stays zero."""
    e = -np.frexp(max(np.abs(stack.real).max(), np.abs(stack.imag).max()))[1]
    out = np.empty_like(stack)
    out.real, out.imag = np.ldexp(stack.real, e), np.ldexp(stack.imag, e)
    return out


def _hermitian_part(Z: np.ndarray) -> np.ndarray:
    return (Z + Z.conj().transpose(0, 2, 1)) / 2.0


def _spectral_weights(spectrum: np.ndarray, q: float, constraint: str) -> np.ndarray:
    """Hoelder weights on a witness's spectrum, the singular values for
    ``full`` and the ascending eigenvalues of the Hermitian part otherwise;
    ``psd`` clamps the eigenvalues at zero, and a slice with nothing positive
    left puts its weight on the top eigendirection."""
    if constraint == "psd":
        spectrum = np.maximum(spectrum, 0.0)
        dead = spectrum[..., -1] <= 0.0
        if np.any(dead):
            spectrum[dead, -1] = 1.0
    return _holder_weights(spectrum, q)


def _rebuild(U: np.ndarray, w: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    return (U * w[..., None, :]) @ Vh


def _start_stack(base: int, anc: int, q: float, constraint: str, cfg: OptimizerConfig) -> np.ndarray:
    """Initial iterates on the base (x) ancilla space: deterministic guesses in
    the first slots (maximally entangled projector when anc >= 2, normalized
    identity, uniform-superposition projector), Gaussian draws after that.

    The draws come from one generator seeded with ``cfg.seed``, in one call,
    restart after restart, so the stack at ``restarts = r`` is the first r
    rows of any longer one.  At q = 1 each draw is rank one, ``u v*`` of unit
    vectors (``u u*`` under a constraint); otherwise it is a Gaussian matrix,
    Hermitian or PSD as the constraint asks, over its q-norm.  The stack
    depends on ``(base, anc, q, constraint, cfg.restarts, cfg.seed)`` only,
    not on the map or ``max_iterations``; the ascent overwrites it."""
    n = base * anc
    hints = []
    if anc >= 2:
        m = min(base, anc)
        omega = np.zeros(n, dtype=np.complex128)
        omega[[i * anc + i for i in range(m)]] = 1.0 / math.sqrt(m)
        hints.append(np.outer(omega, omega.conj()))
    hints.append(np.eye(n, dtype=np.complex128) / pnorm(np.ones(n), q))
    u = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    hints.append(np.outer(u, u.conj()))
    starts = np.empty((cfg.restarts, n, n), dtype=np.complex128)
    n_hints = min(len(hints), cfg.restarts)
    starts[:n_hints] = hints[:n_hints]
    drawn = starts[n_hints:]
    if not len(drawn):
        return starts
    rng = np.random.default_rng(cfg.seed)
    if q == 1.0:
        # (real, imaginary) pairs viewed as complex entries
        z = rng.standard_normal((len(drawn), 2 if constraint == "full" else 1, n, 2)).view(np.complex128)[..., 0]
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        np.multiply(z[:, 0, :, None], z[:, -1, None, :].conj(), out=drawn)
        return starts
    G = rng.standard_normal((len(drawn), n, n, 2)).view(np.complex128)[..., 0]
    if constraint == "hermitian":
        G = _hermitian_part(G)
    elif constraint == "psd":
        G = G.conj().transpose(0, 2, 1) @ G
    np.divide(G, pnorm(np.linalg.svd(G, compute_uv=False), q, axis=-1)[:, None, None], out=drawn)
    return starts


# the witness key of the unit trace-norm ball over all matrices
_TRACE_BALL = (1.0, "full")


def _decomposition(key: tuple) -> str | None:
    """The decomposition a group at witness key ``key`` shares: ``"svd"`` on
    the full ball, ``"eigh"`` of the Hermitian part on the Hermitian and PSD
    balls, and none on the unit trace-norm ball or at exponent 2 outside the
    PSD cone, whose groups step on their own rows through ``_witness``."""
    q, constraint = key
    if key == _TRACE_BALL or (q == 2.0 and constraint != "psd"):
        return None
    return "svd" if constraint == "full" else "eigh"


def _witness(M: np.ndarray, key: tuple, pair: np.ndarray | None):
    """Batched maximizer of Re<M, W> over the unit ball of a witness key that
    takes no shared decomposition, as ``(pair, W)``.

    At exponent 2 the ball is the Frobenius ball, and W is the matrix
    (``full``) or its Hermitian part, normalized, with no pair.  On the unit
    trace-norm ball W is rank one, ``u v*``, with its pair stacked as
    ``pair[:, 0] = u``, ``pair[:, 1] = v*``.  Without a pair it is the top
    singular pair of M, from one SVD, and so the exact maximizer, also on a
    zero slice.  Otherwise ``pair`` takes one power step in place:
    ``v' = M* u / |M* u|``, then ``u' = M v' / |M v'|``, so that
    ``Re u* M v <= |M* u| = u* M v' <= |M v'| = u'* M v'`` and the objective
    never decreases.  A slice whose product vanishes keeps its vector.
    """
    if key != _TRACE_BALL:
        W = M if key[1] == "full" else _hermitian_part(M)
        return None, _unit_rows(W, np.zeros_like(W))
    if pair is None:
        U, _, Vh = _batched_svd(M)
        pair = np.stack([U[:, :, 0], Vh[:, 0]], axis=1)
    else:
        u, vh = pair[:, 0], pair[:, 1]
        _unit_rows((u[:, None].conj() @ M)[:, 0], out=vh)
        _unit_rows((M @ vh[:, :, None].conj())[:, :, 0], out=u)
    return pair, pair[:, 0, :, None] * pair[:, 1, None, :]


def _top_vectors(X: np.ndarray):
    """``(w, s)`` with unit w and s = +-1, ``X = s w w*``, for rank-one
    Hermitian rows X: w is read off the column of X's largest diagonal entry."""
    d = np.einsum("raa->ra", X).real
    r, j = np.arange(len(X)), np.abs(d).argmax(axis=1)
    w = X[r, :, j]
    return w / np.linalg.norm(w, axis=1, keepdims=True), np.sign(d[r, j])


def _step_vectors(old: np.ndarray, new: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``new + beta (new - old)`` on (rows, parts, d) stacks of unit vectors,
    each row of ``old`` first turned by the phase that brings it closest to
    ``new``, then each part normalized."""
    c = np.einsum("rpa,rpa->r", old.conj(), new)
    a = np.abs(c)
    phase = np.divide(c, a, out=np.ones_like(c), where=a > 0.0)
    V = new + beta * (new - phase[:, None, None] * old)
    return V / np.linalg.norm(V, axis=-1, keepdims=True)


def _conj_second(pair: np.ndarray) -> np.ndarray:
    """A copy of a rank-one pair stack with its second vector conjugated,
    ``(u, v*) <-> (u, v)``: in the second form one phase turns both vectors."""
    out = pair.copy()
    np.conjugate(out[:, 1], out=out[:, 1])
    return out


def _extrapolate(key: tuple, old: np.ndarray, new: np.ndarray, pairs, beta: np.ndarray):
    """The extrapolated input iterates ``new + beta (new - old)`` of rows at
    input witness key ``key`` (in ``_EXTRAPOLATED``), from their previous
    iterates ``old`` and plain ones ``new``, as ``(Z, pair)``.

    At q = 2 Z is renormalized in the Frobenius norm, and a Hermitian pair
    gives a Hermitian Z.  At q = 1 the step acts on the rank-one factors, so
    Z is again an extreme point of the unit ball: on the full ball on the
    kept pairs ``pairs = (previous, plain)`` (u, v*), the previous one
    aligned in phase, each vector renormalized, and the extrapolated pair
    comes back with Z; on the Hermitian and PSD balls on the top eigenvector
    w of each iterate ``s w w*``, with the plain iterate's sign s."""
    b = beta[:, None, None]
    if key[0] == 2.0:
        Z = new + b * (new - old)
        return _unit_rows(Z, out=Z), None
    if key == _TRACE_BALL:
        pair = _conj_second(_step_vectors(*map(_conj_second, pairs), b))
        return pair[:, 0, :, None] * pair[:, 1, None, :], pair
    w, s = _top_vectors(np.concatenate([old, new]))
    n = len(new)
    w = _step_vectors(w[:n, None], w[n:, None], b)[:, 0]
    return s[n:, None, None] * w[:, :, None] * w.conj()[:, None, :], None


class _Side:
    """One side's half-step on a stacked ascent's active rows, whose rows fall
    into groups by witness key.  The groups that take a decomposition share
    it: all their rows of one kind go through one ``_batched_svd`` (``full``)
    or one ``_batched_eigh`` of their Hermitian parts (``hermitian`` and
    ``psd``), each group weights its own rows' spectra, and each kind is
    rebuilt once.  The rank-one group, which keeps its pairs, one per active
    row, and the exponent-2 groups step on their own rows through
    ``_witness``.  With one key the group's rows are the whole stack, taken as
    a view, and its witness is returned as it is, so nothing is gathered or
    scattered.  Each active row also keeps its extrapolation factor (the input
    side's ``extrapolate``), and ``save`` and ``restore`` put back the pairs of
    the rows whose extrapolation was rejected."""

    def __init__(self, keys: list, restarts: int):
        self.keys = list(dict.fromkeys(keys))
        self.pairs = [None] * len(self.keys)
        self.ids = np.repeat([self.keys.index(key) for key in keys], restarts)
        self.factor = np.full(len(self.ids), _EXTRAPOLATION_START)
        self._index()

    def _index(self) -> None:
        """Each group's rows of the active stack (all of it, with one key);
        for each decomposition, the rows of the groups that take it, group
        after group, with each group's span of them."""
        whole = len(self.keys) == 1
        self.rows = [slice(None)] if whole else [np.flatnonzero(self.ids == g) for g in range(len(self.keys))]
        self.own, kinds = [], {"svd": [], "eigh": []}
        for g, key in enumerate(self.keys):
            if whole or self.rows[g].size:
                kind = _decomposition(key)
                (kinds[kind] if kind else self.own).append(g)
        self.merged = []
        for kind, groups in kinds.items():
            if len(groups) == 1:
                self.merged.append((kind, self.rows[groups[0]], [(groups[0], slice(None))]))
            elif groups:
                spans, end = [], 0
                for g in groups:
                    spans.append((g, slice(end, end + self.rows[g].size)))
                    end += self.rows[g].size
                self.merged.append((kind, np.concatenate([self.rows[g] for g in groups]), spans))

    def _parts(self, M: np.ndarray):
        """``(rows, witness)`` of each group that steps on its own rows and of
        each merged kind, one at a time, so that each is scattered before the
        next is built."""
        for g in self.own:
            self.pairs[g], W = _witness(M[self.rows[g]], self.keys[g], self.pairs[g])
            yield self.rows[g], W
        for kind, rows, spans in self.merged:
            if kind == "svd":
                U, s, Vh = _batched_svd(M[rows])
            else:
                s, U = _batched_eigh(_hermitian_part(M[rows]))
                Vh = U.conj().transpose(0, 2, 1)
            w = [_spectral_weights(s[at], *self.keys[g]) for g, at in spans]
            yield rows, _rebuild(U, w[0] if len(w) == 1 else np.concatenate(w), Vh)

    def __call__(self, M: np.ndarray) -> np.ndarray:
        if len(self.keys) == 1:
            ((_, W),) = self._parts(M)
            return W
        out = np.empty_like(M)
        for rows, W in self._parts(M):
            out[rows] = W
        return out

    def keep(self, keep: np.ndarray, saved: list | None = None) -> None:
        """Drop the rows where ``keep`` is False, also from the pairs
        ``saved`` (as ``save`` took them), in place."""
        for pairs in (self.pairs,) if saved is None else (self.pairs, saved):
            for g, pair in enumerate(pairs):
                if pair is not None:
                    pairs[g] = pair[keep[self.rows[g]]]
        self.ids, self.factor = self.ids[keep], self.factor[keep]
        if len(self.keys) > 1:
            self._index()

    def _positions(self, rows: np.ndarray, g: int) -> np.ndarray:
        """The places among group g's rows of the active ``rows`` (ascending
        indices) in that group."""
        return rows if len(self.keys) == 1 else np.searchsorted(self.rows[g], rows[self.ids[rows] == g])

    def save(self) -> list:
        """Copies of the rank-one pairs, for ``restore``."""
        return [None if pair is None else pair.copy() for pair in self.pairs]

    def restore(self, saved: list, rows: np.ndarray) -> None:
        """Put back the pairs in ``saved`` of the active ``rows``."""
        for g, pair in enumerate(saved):
            if pair is not None:
                at = self._positions(rows, g)
                self.pairs[g][at] = pair[at]

    def extrapolate(self, old: np.ndarray, X: np.ndarray, rows: np.ndarray, old_pairs: list) -> list:
        """Replace the plain iterates ``X`` of the active ``rows`` (ascending
        indices, at keys in ``_EXTRAPOLATED``) by ``_extrapolate``'s, from
        their previous iterates ``old`` and the pairs ``old_pairs`` saved
        before the plain step, each at its own factor; the rank-one group
        keeps the extrapolated pairs.  Returns the plain pairs, for
        ``restore``."""
        plain = self.save()
        ids = self.ids[rows]
        for g, at in [(0, rows)] if len(self.keys) == 1 else [(g, rows[ids == g]) for g in np.unique(ids)]:
            pos = self._positions(at, g)
            pairs = None if self.pairs[g] is None else (old_pairs[g][pos], self.pairs[g][pos])
            X[at], pair = _extrapolate(self.keys[g], old[at], X[at], pairs, self.factor[at])
            if pair is not None:
                self.pairs[g][pos] = pair
        return plain


def _ascend(phi: SuperOp, k: int, cells: list, cfg: OptimizerConfig) -> list:
    """The best restart of each cell ``(q, p, constraint)`` on ``Phi (x) I_k``,
    as ``(iterate, converged)``, from one ascent on a stack of ``cells x
    restarts`` rows, cell by cell.

    Each side groups the rows by witness key ``(ball exponent, constraint)``,
    ``(p*, "full")`` for the output side and ``(q, constraint)`` for the
    input side, and takes its half-step through ``_Side``; there is one
    forward and one adjoint kernel call per iteration.  Each row stops on its
    own tolerances, and each cell picks its best restart from its own rows."""
    # exact unit-scale stacks, so that 2^j Phi runs the very ascent Phi runs
    left, right = _unit_scale(phi.kraus_left), _unit_scale(phi.kraus_right)
    R = cfg.restarts
    forward, backward = _kraus_kernel(left, right, k, len(cells) * R)
    x_keys = [(q, constraint) for q, _, constraint in cells]
    starts = {key: _start_stack(phi.dim_in, k, *key, cfg) for key in dict.fromkeys(x_keys)}
    X = starts[x_keys[0]] if len(cells) == 1 else np.concatenate([starts[key] for key in x_keys])
    # witnesses at key (1, "full"), the unit trace-norm ball, are rank one: the
    # output side's at p = inf, the input side's at q = 1 without a constraint;
    # those groups keep their pairs, one row per active restart, and take
    # power steps
    y_side = _Side([(dual_exponent(p), "full") for _, p, _ in cells], R)
    x_side = _Side(x_keys, R)
    # a rank-one input witness has unit norm, so only the others can stall
    may_stall = any(key != _TRACE_BALL for key in x_side.keys)
    extrapolates = np.array([key in _EXTRAPOLATED for key in x_side.keys])
    any_extrapolate = bool(extrapolates.any())
    converged = np.zeros(len(X), dtype=bool)
    # the active restarts' rows: indices into X, iterates, last values and gains
    active, Xa, values, gains = np.arange(len(X)), X, np.full(len(X), -np.inf), np.full(len(X), np.inf)
    # the rows at an extrapolated iterate: (their indices, plain iterates, plain input pairs)
    trial = None
    for it in range(cfg.max_iterations):
        W = forward(Xa)
        if trial is not None:
            y_saved = y_side.save()
        Y = y_side(W)
        vals = np.einsum("rab,rab->r", W.conj(), Y).real
        gain = vals - values
        back = None
        if trial is not None:
            # the safeguard: a row whose value fell below its last one keeps
            # that value and its gain, takes its plain iterate back with the
            # pairs of both sides as the plain step left them, and is evaluated
            # there in the next iteration, as the plain step would be
            tried, plain, x_saved = trial
            low = vals[tried] < values[tried]
            x_side.factor[tried] = np.minimum(x_side.factor[tried] * _EXTRAPOLATION_GROWTH, _EXTRAPOLATION_CAP)
            if np.any(low):
                back = tried[low]
                vals[back], gain[back] = values[back], gains[back]
                y_side.restore(y_saved, back)
                x_side.factor[back] = _EXTRAPOLATION_START
        # the rows that extrapolate this step: at extrapolated keys, with a last
        # gain above the gate's share of the one before, not rejected, and not
        # in the last iteration, which hands back plain iterates
        slow = x_pairs = None
        if any_extrapolate and it + 1 < cfg.max_iterations:
            slow = extrapolates[x_side.ids] & (gain > _EXTRAPOLATION_GATE * gains)
            if back is not None:
                slow[back] = False
            # and the rank-one pairs their plain step starts from
            slow, x_pairs = (slow, x_side.save()) if np.any(slow) else (None, None)
        Xn = x_side(backward(Y))
        if back is not None:
            Xn[back] = plain[low]
            x_side.restore(x_saved, back)
        if may_stall:
            stalled = _frobenius(Xn) <= 1e-14
            if np.any(stalled):
                Xn[stalled] = Xa[stalled]
        step = _frobenius(Xn - Xa)
        old, Xa, values, gains = Xa, Xn, vals, gain
        done = (np.abs(gain) <= _OBJECTIVE_TOLERANCE * (1.0 + np.abs(vals))) | (step <= _STEP_TOLERANCE)
        if back is not None:
            done[back] = False  # a rejected row has not taken its plain step yet
        if np.any(done):
            # a converged row goes back into the full stack and leaves the active one
            X[active[done]] = Xa[done]
            converged[active[done]] = True
            keep = ~done
            active, Xa, values, gains = active[keep], Xa[keep], values[keep], gains[keep]
            if active.size == 0:
                break
            y_side.keep(keep)
            x_side.keep(keep, x_pairs)
            if slow is not None:
                old, slow = old[keep], slow[keep]
        trial = None
        if slow is not None and np.any(slow):
            tried = np.flatnonzero(slow)
            trial = (tried, Xa[tried], x_side.extrapolate(old, Xa, tried, x_pairs))
    else:
        # the cap: the rows still active go back as they stand
        X[active] = Xa
    s = _batched_svd(forward(X), compute_uv=False)
    best = []
    for c, (_, p, _) in enumerate(cells):
        rows = slice(c * R, (c + 1) * R)
        b = c * R + int(np.argmax(pnorm(s[rows], p, axis=-1)))
        best.append((X[b], bool(converged[b])))
    return best


def _polish_achiever(X: np.ndarray, q: float, constraint: str) -> np.ndarray:
    A = np.array(X, dtype=np.complex128)
    if constraint in ("hermitian", "psd"):
        A = (A + A.conj().T) / 2.0
    if constraint == "psd":
        lam, V = np.linalg.eigh(A)
        A = (V * np.maximum(lam, 0.0)) @ V.conj().T
    elif constraint == "hermitian" and A.trace().real < 0.0:
        A = -A
    nrm = float(pnorm(np.linalg.svd(A, compute_uv=False), q))
    if nrm <= 0.0:
        A = np.zeros_like(A)
        A[0, 0] = 1.0
        nrm = 1.0
    return A / nrm


def _reduced_ancilla(phi: SuperOp, query: NormQuery) -> int:
    """The smallest ancilla on which the paper proves the query's value.

    Theorem 2: without the Hermitian restriction and with ``q <= 2 <= p``, no
    ancilla changes the norm.  Theorem 3: at q = 1, plain or Hermitian, an
    ancilla of dimension ``dim_in`` saturates it (the extreme points of either
    unit ball, ``u v*`` and ``+-u u*``, have Schmidt rank at most ``dim_in``).
    """
    k = query.stabilize_dim
    if k and not query.hermitian_restricted and query.q <= 2.0 <= query.p:
        return 0
    if query.q == 1.0 and k > phi.dim_in:
        return phi.dim_in
    return k


def _embed(X: np.ndarray, base: int, anc: int) -> np.ndarray:
    """``X`` on base (x) C^j as ``(I (x) V) X (I (x) V)^*`` on base (x) C^anc,
    V the isometry onto the first j ancilla coordinates; for j = 1 that is
    ``X (x) E_00``.  Norms, hermiticity and ``Phi (x) I`` values carry over."""
    j = X.shape[0] // base
    out = np.zeros((base, anc, base, anc), dtype=X.dtype)
    out[:, :j, :, :j] = X.reshape(base, j, base, j)
    return out.reshape(base * anc, base * anc)


def _estimate(phi: SuperOp, jobs: list, cfg: OptimizerConfig) -> list:
    """The estimate of each job ``(query, constraint, run_k)``, from one
    stacked ascent per ancilla the jobs run on: ``run_k`` is the query's own
    ancilla, or a smaller one on which the query's value is proven."""
    if not jobs:
        return []
    ascents = {}  # the ancilla an ascent runs on (1 for none) -> its jobs' indices
    for i, (_, _, run_k) in enumerate(jobs):
        ascents.setdefault(max(run_k, 1), []).append(i)
    # the largest arrays: an ascent's stacked iterates and its kernel's, and
    # the same for one achiever on a query's space
    n, m = phi.dim_in, phi.dim_out
    k = max(query.stabilize_dim for query, _, _ in jobs)
    run_k, at = max(ascents.items(), key=lambda item: len(item[1]) * item[0] ** 2)
    blocks = len(at) * cfg.restarts * run_k**2
    entries = max(
        max(blocks, k**2) * max(n, m) ** 2,
        _kernel_entries(phi.n_terms, m, n, blocks),
        _kernel_entries(phi.n_terms, m * max(k, 1), n * max(k, 1), 1),
    )
    ancilla = f"stabilize_dim {k} on " if k else ""
    stacked = f"{len(at)} cells x " if len(at) > 1 else ""
    require_entries(
        entries, f"{ancilla}a {n}->{m} map with {stacked}{cfg.restarts} restarts and {phi.n_terms} terms"
    )
    best = [None] * len(jobs)
    for run_k, at in ascents.items():
        cells = [(jobs[i][0].q, jobs[i][0].p, jobs[i][1]) for i in at]
        for i, found in zip(at, _ascend(phi, run_k, cells, cfg)):
            best[i] = found
    # the reference maps, so that re-evaluating an achiever reproduces ``value``
    enlarged = {}
    estimates = []
    for (query, constraint, run_k), (Xbest, conv) in zip(jobs, best):
        k = query.stabilize_dim
        if run_k != k:
            Xbest = _embed(Xbest, n, k)
        achiever = _polish_achiever(Xbest, query.q, constraint)
        if k not in enlarged:
            enlarged[k] = tensor_identity(phi, k) if k else phi
        value = float(pnorm(np.linalg.svd(apply(enlarged[k], achiever), compute_uv=False), query.p))
        estimates.append(NormEstimate(value=value, achiever=achiever, converged=conv))
    return estimates


def _norms(phi: SuperOp, queries: list, cfg: OptimizerConfig, reduce: bool = True) -> list:
    """``norm_q_to_p`` of each query, from one stacked ascent per distinct
    run ancilla.  With ``reduce=False`` every ascent runs on its query's own
    ancilla, for the checks that compare ancilla sizes (a reduced query would
    compare a number with itself)."""
    jobs = []
    for query in queries:
        constraint = "hermitian" if query.hermitian_restricted else "full"
        jobs.append((query, constraint, _reduced_ancilla(phi, query) if reduce else query.stabilize_dim))
    return _estimate(phi, jobs, cfg)


def norm_q_to_p(
    phi: SuperOp, query: NormQuery | Sequence[NormQuery], config: OptimizerConfig | None = None
) -> NormEstimate | list[NormEstimate]:
    """Best lower bound on the queried induced norm over ``restarts`` runs.

    Where Theorem 2 or 3 proves the value on a smaller ancilla (see
    ``_reduced_ancilla``), the ascent runs there and its achiever is embedded
    in the query's space, where ``value`` is re-evaluated.

    The ascent runs on each Kraus stack scaled by a power of two into
    [0.5, 1) (largest real or imaginary part), so ``2^j phi`` gives ``2^j``
    times the value of ``phi``, bit for bit in LAPACK's unscaled range.

    Given a sequence of queries, returns the list of their estimates from one
    stacked ascent per ancilla the queries run on; each agrees with the same
    query asked alone to the stopping tolerance."""
    cfg = config if config is not None else OptimizerConfig()
    if isinstance(query, NormQuery):
        return _norms(phi, [query], cfg)[0]
    return _norms(phi, list(query), cfg)


def norm_1_to_p(
    phi: SuperOp,
    p,
    hermitian_restricted: bool = False,
    config: OptimizerConfig | None = None,
) -> NormEstimate:
    """The q = 1 induced norm; its achievers are rank-one by construction."""
    return norm_q_to_p(phi, NormQuery(1.0, p, hermitian_restricted), config)


def cp_norm(
    phi: SuperOp, query: NormQuery | Sequence[NormQuery], config: OptimizerConfig | None = None
) -> NormEstimate | list[NormEstimate]:
    """The induced norm of a completely positive map, searched over PSD
    inputs only (for CP maps this loses nothing, by Theorem 1, and the
    achiever is a state when q = 1).  The query's ``hermitian_restricted``
    flag is immaterial here since the PSD cone sits inside the Hermitian
    space.

    Given a sequence of queries, returns the list of their estimates from one
    stacked PSD ascent per ancilla, as ``norm_q_to_p`` does; no query is
    answered on a smaller ancilla."""
    if not is_completely_positive(phi):
        raise PreconditionError("cp_norm requires a completely positive map")
    cfg = config if config is not None else OptimizerConfig()
    queries = [query] if isinstance(query, NormQuery) else list(query)
    estimates = _estimate(phi, [(q, "psd", q.stabilize_dim) for q in queries], cfg)
    return estimates[0] if isinstance(query, NormQuery) else estimates


def stabilized_norm(
    phi: SuperOp,
    p,
    hermitian_restricted: bool = False,
    config: OptimizerConfig | None = None,
) -> NormEstimate:
    """``||Phi (x) I_n||_{1 -> p}`` with ancilla n = dim_in.

    Enlarging the ancilla beyond the input dimension cannot change the
    value, so this single computation defines the stabilized norm; p = 1
    without the Hermitian restriction is the familiar distinguishability
    norm of channel pairs.
    """
    query = NormQuery(1.0, p, hermitian_restricted, stabilize_dim=phi.dim_in)
    return norm_q_to_p(phi, query, config)


def factorization_bound(
    phi: SuperOp, query: NormQuery, config: OptimizerConfig | None = None
) -> tuple[float, float]:
    """The pair (||Phi||_{q->p}, sqrt(||Phi_L||^H_{q->p} ||Phi_R||^H_{q->p})).

    The first entry never exceeds the second beyond optimizer slack; the
    right-hand side depends on the stored Kraus representation.  ``Phi_L``
    and ``Phi_R`` are completely positive, so their Hermitian norms are
    searched over PSD inputs (``cp_norm``), which by Theorem 1 gives the same
    values; at q = 1 they run on an ancilla of at most ``dim_in`` (Theorem 3).
    """
    cfg = config if config is not None else OptimizerConfig()
    return _factorization_bounds(phi, [query], cfg)[0]


def _factorization_bounds(phi: SuperOp, queries: list, cfg: OptimizerConfig) -> list:
    """``factorization_bound`` of each query, from one stacked ascent on each
    of ``Phi``, ``Phi_L`` and ``Phi_R`` per run ancilla."""
    lhs = norm_q_to_p(phi, [replace(query, hermitian_restricted=False) for query in queries], cfg)
    # Theorem 3 on the PSD cone: at q = 1 the ancilla dim_in already attains
    # the value, since the extreme points u u* have Schmidt rank <= dim_in
    sides = [
        replace(query, stabilize_dim=min(query.stabilize_dim, phi.dim_in)) if query.q == 1.0 else query
        for query in queries
    ]
    left, right = cp_norm(left_cp_map(phi), sides, cfg), cp_norm(right_cp_map(phi), sides, cfg)
    return [(a.value, math.sqrt(lv.value * rv.value)) for a, lv, rv in zip(lhs, left, right)]
