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
iteration instead of a decomposition.  The objective value never decreases
along the iteration, every iterate is feasible, and the reported value is
therefore a certified lower bound whatever the convergence status.

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
and its adjoint through the one Kraus kernel of :mod:`.superop`, whose GEMM
operands it lays out once per ascent, and never materializes the enlarged
map.  The kernel's GEMM can round a row differently by where it sits in the
stack, and a merged stack can take the closed form where a group alone would
call LAPACK, so a stacked cell agrees with the same cell alone to the
stopping tolerance, not bit for bit.

The start stack depends on ``(dim_in, ancilla, q, constraint, restarts,
seed)`` only, not on the map, so each distinct key is built once per ascent.

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

from .errors import (
    InvalidInputError,
    PreconditionError,
    UnsupportedInstanceError,
    require_count,
    require_entries,
)
from .linalg import _batched_eigh, _batched_svd
from .schatten import dual_exponent, format_exponent, holder_weights, pnorm, require_exponent
from .superop import (
    SuperOp,
    _dagger,
    _kraus_kernel,
    apply,
    choi_matrix,
    is_completely_positive,
    left_cp_map,
    remix,
    right_cp_map,
    tensor_identity,
)

# complex output entries one chunk of the brute-force oracle holds; each call
# refills the same chunk buffers, so they stay in cache (2^16 ran fastest in a
# sweep of 2^14 .. 2^18, see BENCH_2026-10-18-oracle-workspace.json)
_ORACLE_CHUNK_ENTRIES = 1 << 16

# the ascent's stopping tolerances: objective gain relative to 1 + |value|, step
_OBJECTIVE_TOLERANCE = 1e-10
_STEP_TOLERANCE = 1e-9


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
    """

    value: float
    achiever: np.ndarray
    converged: bool

    def __post_init__(self):
        self.achiever.setflags(write=False)


def _frobenius(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("rab,rab->r", X, X.conj()).real)


# a Frobenius norm below this may have lost its sum of squares to underflow
_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _unit_rows(x: np.ndarray, nrm: np.ndarray, out: np.ndarray) -> None:
    """Write each nonzero row of ``x`` over its 2-norm into ``out``, given the
    plain norms ``nrm`` (one per row, shaped to broadcast against ``x``); the
    rows of ``out`` where ``x`` is zero keep their values.  A nonzero row whose
    plain sum of squares overflows or underflows is divided by its largest
    entry first; every other row keeps the plain quotient's bits."""
    plain = (nrm >= _SQRT_TINY) & np.isfinite(nrm)
    if np.count_nonzero(plain) == plain.size:
        # the common case, where the unmasked quotient is cheaper
        np.divide(x, nrm, out=out)
        return
    np.divide(x, nrm, out=out, where=plain)
    off = np.flatnonzero(~plain)
    flat = x[off].reshape(off.size, -1)
    # the largest real or imaginary part, which cannot overflow
    scale = np.abs(flat.view(np.float64)).max(axis=1)
    off, flat = off[scale > 0.0], flat[scale > 0.0] / scale[scale > 0.0, None]
    out[off] = (flat / np.linalg.norm(flat, axis=1)[:, None]).reshape((off.size,) + x.shape[1:])


def _unit_frobenius(Z: np.ndarray) -> np.ndarray:
    """Each slice of Z over its Frobenius norm; zero slices stay zero."""
    out = np.zeros_like(Z)
    _unit_rows(Z, _frobenius(Z)[:, None, None], out)
    return out


def _normalize_rows(x: np.ndarray, out: np.ndarray) -> None:
    """Write each nonzero row of ``x``, normalized, into ``out``; the rows of
    ``out`` where ``x`` is zero keep their values."""
    r = x.view(np.float64)
    _unit_rows(x, np.sqrt(np.einsum("ra,ra->r", r, r))[:, None], out)


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
    return holder_weights(spectrum, q)


def _rebuild(U: np.ndarray, w: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    return (U * w[..., None, :]) @ Vh


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _start_stack(base: int, anc: int, q: float, constraint: str, cfg: OptimizerConfig) -> np.ndarray:
    """Initial iterates on the base (x) ancilla space: deterministic guesses in
    the first slots (maximally entangled projector when anc >= 2, normalized
    identity, uniform-superposition projector), Gaussian draws after that.

    The stack depends on ``(base, anc, q, constraint, cfg.restarts,
    cfg.seed)`` only, not on the map or ``max_iterations``; the ascent
    overwrites it."""
    n = base * anc
    restarts = cfg.restarts
    starts = np.zeros((restarts, n, n), dtype=np.complex128)
    hints = []
    if anc >= 2:
        m = min(base, anc)
        omega = np.zeros(n, dtype=np.complex128)
        omega[[i * anc + i for i in range(m)]] = 1.0 / math.sqrt(m)
        hints.append(np.outer(omega, omega.conj()))
    hints.append(np.eye(n, dtype=np.complex128) / pnorm(np.ones(n), q))
    u = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    hints.append(np.outer(u, u.conj()))
    n_hints = min(len(hints), restarts)
    for i in range(n_hints):
        starts[i] = hints[i]
    streams = np.random.SeedSequence(cfg.seed).spawn(restarts)
    for r in range(n_hints, restarts):
        rng = np.random.default_rng(streams[r])
        if q == 1.0:
            u = _unit_vector(rng, n)
            v = u if constraint in ("hermitian", "psd") else _unit_vector(rng, n)
            starts[r] = np.outer(u, v.conj())
            continue
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if constraint == "hermitian":
            G = (G + G.conj().T) / 2.0
        elif constraint == "psd":
            G = G.conj().T @ G
        starts[r] = G
    if q != 1.0:
        # one batched SVD; each start's norm is taken on its own row, because a
        # batched pnorm can differ from it in the last bit
        drawn = starts[n_hints:]
        for G, s in zip(drawn, np.linalg.svd(drawn, compute_uv=False)):
            G /= pnorm(s, q)
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
        return None, _unit_frobenius(M if key[1] == "full" else _hermitian_part(M))
    if pair is None:
        U, _, Vh = _batched_svd(M)
        pair = np.stack([U[:, :, 0], Vh[:, 0]], axis=1)
    else:
        u, vh = pair[:, 0], pair[:, 1]
        _normalize_rows((u[:, None].conj() @ M)[:, 0], out=vh)
        _normalize_rows((M @ vh[:, :, None].conj())[:, :, 0], out=u)
    return pair, pair[:, 0, :, None] * pair[:, 1, None, :]


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
    scattered."""

    def __init__(self, keys: list, restarts: int):
        self.keys = list(dict.fromkeys(keys))
        self.pairs = [None] * len(self.keys)
        self.ids = np.repeat([self.keys.index(key) for key in keys], restarts)
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

    def keep(self, keep: np.ndarray) -> None:
        """Drop the rows where ``keep`` is False."""
        for g, pair in enumerate(self.pairs):
            if pair is not None:
                self.pairs[g] = pair[keep[self.rows[g]]]
        if len(self.keys) > 1:
            self.ids = self.ids[keep]
            self._index()


def _ascend(phi: SuperOp, k: int, cells: list, cfg: OptimizerConfig) -> list:
    """The best restart of each cell ``(q, p, constraint)`` on ``Phi (x) I_k``,
    as ``(iterate, converged)``, from one ascent on a stack of ``cells x
    restarts`` rows, cell by cell.

    Each side groups the rows by witness key ``(ball exponent, constraint)``,
    ``(p*, "full")`` for the output side and ``(q, constraint)`` for the
    input side, and takes its half-step through ``_Side``; there is one
    forward and one adjoint kernel call per iteration.  Each row stops on its
    own tolerances, and each cell picks its best restart from its own rows."""
    forward = _kraus_kernel(phi.kraus_left, phi.kraus_right, k)
    backward = _kraus_kernel(_dagger(phi.kraus_left), _dagger(phi.kraus_right), k)
    R = cfg.restarts
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
    converged = np.zeros(len(X), dtype=bool)
    # the active restarts' rows: indices into X, iterates and last values
    active, Xa, values = np.arange(len(X)), X, np.full(len(X), -np.inf)
    for _ in range(cfg.max_iterations):
        W = forward(Xa)
        Y = y_side(W)
        vals = np.einsum("rab,rab->r", W.conj(), Y).real
        gain = vals - values
        Xn = x_side(backward(Y))
        if may_stall:
            stalled = _frobenius(Xn) <= 1e-14
            if np.any(stalled):
                Xn[stalled] = Xa[stalled]
        step = _frobenius(Xn - Xa)
        Xa, values = Xn, vals
        done = (np.abs(gain) <= _OBJECTIVE_TOLERANCE * (1.0 + np.abs(vals))) | (step <= _STEP_TOLERANCE)
        if np.any(done):
            # a converged row goes back into the full stack and leaves the active one
            X[active[done]] = Xa[done]
            converged[active[done]] = True
            keep = ~done
            active, Xa, values = active[keep], Xa[keep], values[keep]
            if active.size == 0:
                break
            y_side.keep(keep)
            x_side.keep(keep)
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
    # the largest arrays: an ascent's stacked iterates and the Kraus kernel's
    # term-expanded product, and the same for one achiever on a query's space
    n, m = phi.dim_in, phi.dim_out
    k = max(query.stabilize_dim for query, _, _ in jobs)
    run_k, at = max(ascents.items(), key=lambda item: len(item[1]) * item[0] ** 2)
    entries = max(len(at) * cfg.restarts * run_k**2, k**2) * max(max(n, m) ** 2, phi.n_terms * n * m)
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


def _grid_runs(rows: int, cols: int, chunk: int):
    """Row-major runs of a ``rows x cols`` grid, at most ``chunk`` points each,
    as (row slice, column slice) rectangles: whole rows while a row fits."""
    per = chunk // cols
    if per:
        for i in range(0, rows, per):
            yield slice(i, i + per), slice(None)
        return
    for i in range(rows):
        for j in range(0, cols, chunk):
            yield slice(i, i + 1), slice(j, j + chunk)


def _sphere_coords(axes) -> np.ndarray:
    """Unit vectors on the row-major grid of the hyperspherical angles
    ``axes`` (first angle slowest); each angle splits the last coordinate into
    its cosine and sine parts, so no angles give the single point ``[1]``."""
    x = np.ones((1, 1))
    for a in axes:
        head, run = np.repeat(x[:, :-1], a.size, axis=0), x[:, -1:]
        x = np.column_stack([head, (run * np.cos(a)).ravel(), (run * np.sin(a)).ravel()])
    return x


def _sphere_chunks(axes, chunk: int):
    """``_sphere_coords(axes)`` in row-major runs of at most ``chunk`` points.

    A point is its leading coordinates followed by the product of the leading
    sines times a point of the trailing sub-sphere.  The longest run of
    trailing angles whose grid fits in one chunk, or else the last angle
    alone, is built once, and each chunk broadcasts a run of leading-angle
    prefixes against it (or one prefix against a run of the last angle), so
    the prefix table holds at most a (last angle's size)-th of the grid.
    Every chunk is a view of one coordinate buffer, which the next overwrites;
    the buffer is column-major, so each coordinate is filled as one
    contiguous run.
    """
    fits = next(i for i in range(len(axes) + 1) if math.prod(a.size for a in axes[i:]) <= chunk)
    split = min(fits, len(axes) - 1)
    head, tail = _sphere_coords(axes[:split]).T, _sphere_coords(axes[split:]).T.copy()
    buf = np.empty((len(axes) + 1, min(chunk, head.shape[1] * tail.shape[1])))
    for rows, cols in _grid_runs(head.shape[1], tail.shape[1], chunk):
        h, t = head[:, rows], tail[:, cols]
        x = buf[:, : h.shape[1] * t.shape[1]]
        blocks = x.reshape(-1, h.shape[1], t.shape[1])
        blocks[:split] = h[:split, :, None]
        # the last coordinate of a prefix is the product of its sines
        np.multiply(h[split:, :, None], t[:, None, :], out=blocks[split:])
        yield x.T


class _Workspace:
    """Per-point buffers of one oracle call, sized for one chunk: every chunk
    fills views of the same arrays, so the walk allocates nothing per chunk."""

    def __init__(self, points: int, dout: int):
        self.out = np.empty((points, 2 * dout * dout))  # real view of the outputs
        self.sq, self.f, self.det2, self.tmp = np.empty((4, points))
        self.det, self.cross = np.empty((2, points), dtype=np.complex128)
        self.near = np.empty(points, dtype=bool)


def _flat_sq_pnorm(flat: np.ndarray, d: int, p: float, ws: _Workspace, hermitian: bool = False) -> np.ndarray:
    """Squared Schatten p-norms of a stack of row-major flattened d x d
    matrices, as a view of ``ws`` that the next call with ``ws`` overwrites.
    A 1x1 matrix's norm is its entry's modulus at every p.  Beyond 2x2,
    matrices the caller knows to be Hermitian (``hermitian``) take their
    singular values as the moduli of their eigenvalues, from ``eigvalsh``."""
    n = len(flat)
    sq = ws.sq[:n]
    # squared moduli from the real views: np.abs would take a hypot per entry
    r = flat.view(np.float64)
    if d == 1:
        return np.einsum("ij,ij->i", r, r, out=sq)
    if d != 2:
        M = flat.reshape(-1, d, d)
        s = np.linalg.eigvalsh(M) if hermitian else np.linalg.svd(M, compute_uv=False)
        return np.square(pnorm(s, p), out=sq)
    f = np.einsum("ij,ij->i", r, r, out=ws.f[:n])
    if p == 2.0:
        return f
    det, cross = ws.det[:n], ws.cross[:n]
    np.multiply(flat[:, 0], flat[:, 3], out=det)
    np.multiply(flat[:, 1], flat[:, 2], out=cross)
    det -= cross
    det2, tmp = ws.det2[:n], ws.tmp[:n]
    np.multiply(det.real, det.real, out=det2)
    np.multiply(det.imag, det.imag, out=tmp)
    det2 += tmp
    # singular values hi >= lo: hi^2 + lo^2 = f and hi lo = |det|
    if p == 1.0:
        np.sqrt(det2, out=sq)
        sq *= 2.0
        sq += f
        return sq
    # hi^2 = (f + g) / 2 with g^2 = f^2 - 4 |det|^2, which cancels when hi is
    # near lo; there g^2 = (a - c)^2 + 4 |b|^2 from M M* = [[a, b], [b*, c]]
    near = ws.near[:n]
    np.multiply(f, f, out=tmp)
    np.multiply(det2, -4.0, out=sq)
    sq += tmp
    tmp *= 1e-4
    np.less(sq, tmp, out=near)
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    sq += f
    sq *= 0.5
    idx = np.flatnonzero(near)
    if idx.size:
        m = r[idx]
        a = np.einsum("ij,ij->i", m[:, :4], m[:, :4])
        c = np.einsum("ij,ij->i", m[:, 4:], m[:, 4:])
        b = flat[idx, 0] * flat[idx, 2].conj() + flat[idx, 1] * flat[idx, 3].conj()
        sq[idx] = f[idx] / 2.0 + np.sqrt(((a - c) / 2.0) ** 2 + (b * b.conj()).real)
    if math.isinf(p):
        return sq
    # (hi^p + lo^p)^(2/p) = hi^2 (1 + (lo / hi)^p)^(2/p) with lo / hi taken as
    # |det| / hi^2, because f - hi^2 would lose a small lo to cancellation
    np.sqrt(det2, out=tmp)
    tmp /= np.maximum(sq, np.finfo(np.float64).tiny, out=f)
    tmp **= p
    tmp += 1.0
    tmp **= 2.0 / p
    sq *= tmp
    return sq


def _run_head_sq_norms(axes, basis: np.ndarray, q: float, chunk: int) -> np.ndarray:
    """Squared q-norms of the Hermitian sphere walk's inputs, one per run of
    its last angle, in walk order, in batches of at most ``chunk``.

    The input ``[[x0, x2 + i x3], [x2 - i x3, x1]]`` depends on the last angle
    only through ``x2^2 + x3^2``, the squared product of the polar sines, so
    its norm holds along each run; it is taken at the run's head, where the
    last angle is 0 and so ``x3 = 0``."""
    heads = _sphere_coords(axes[:-1])
    real = basis[:-1].view(np.float64)
    step = min(chunk, len(heads))
    ws = _Workspace(step, 2)
    sq = np.empty(len(heads))
    for i in range(0, len(heads), step):
        h = heads[i : i + step]
        inputs = np.matmul(h, real, out=ws.out[: len(h)])
        sq[i : i + len(h)] = _flat_sq_pnorm(inputs.view(np.complex128), 2, q, ws)
    return sq


def _rank_one_chunks(states: np.ndarray, chunk: int):
    """``u v*`` for every pair of ``states`` (u slowest) in runs of at most
    ``chunk``, as the real view of the row-major entries, which are the
    coordinates in ``_MATRIX_UNITS``; every chunk is a view of one buffer,
    which the next overwrites."""
    conj = states.conj()
    buf = np.empty((min(chunk, len(states) ** 2), 4), dtype=np.complex128)
    for rows, cols in _grid_runs(len(states), len(states), chunk):
        u, v = states[rows], conj[cols]
        flat = buf[: len(u) * len(v)]
        np.multiply(u[:, None, :, None], v[None, :, None, :], out=flat.reshape(len(u), len(v), 2, 2))
        yield flat.view(np.float64)


# the oracle's coordinate bases: rows are the row-major 2x2 matrices B_i of
# the inputs sum_i x_i B_i; the sphere walk's are keyed by (1 < q < inf, hermitian)
_SPHERE_BASES = {
    # Bloch sphere, sigma_z, sigma_x, sigma_y
    (False, True): np.array([[1, 0, 0, -1], [0, 1, 1, 0], [0, -1j, 1j, 0]]),
    # S^3 to the unitaries [[z1, -z2*], [z2, z1*]], z1 = x0 + i x1, z2 = x2 + i x3
    (False, False): np.array([[1, 0, 0, 1], [1j, 0, 0, -1j], [0, -1, 1, 0], [0, 1j, 1j, 0]]),
    # S^3 to the Hermitian [[x0, x2 + i x3], [x2 - i x3, x1]]
    (True, True): np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0]]),
}
# the rank-one walk's: real and imaginary matrix units
_MATRIX_UNITS = np.kron(np.eye(4), [[1], [1j]])


def brute_force_oracle(phi: SuperOp, query: NormQuery, resolution: int) -> float:
    """Grid maximum over a dense parameterization of the feasible set.

    Only qubit input spaces are in scope.  ``resolution`` counts grid points
    per angle.  Every grid is one walk over chunks of unit real coordinate
    vectors ``x``, mapped to the inputs ``sum_i x_i B_i`` of a fixed basis and
    fed by one of two generators.  The sphere walk puts ``x`` on a grid of
    hyperspherical angles: on the Bloch sphere (2 angles, Pauli basis) the
    inputs are the reflections ``n.sigma``, which with ``I`` are the extreme
    points of the Hermitian q = inf ball, or, shifted, the pure states
    ``(I + n.sigma) / 2`` for Hermitian q = 1; on S^3 (3 angles) the
    unitaries for q = inf, or the Hermitian sphere for finite q.  The
    rank-one walk gives the q = 1 grid without the restriction: the
    matrix-unit coordinates of ``u v*`` for Bloch states u and v (4 angles).
    Finite-q points are rescaled by their q-norm.  Walking extreme points
    keeps the objective smooth in the angles.  The result is always a valid
    lower bound and converges to the norm as the resolution grows.  Finite q
    without the Hermitian restriction has no grid that comes near the norm at
    a usable resolution; it raises ``UnsupportedInstanceError``.

    A 1x1 output's norm is its modulus.  Outputs larger than 2x2 take their
    singular values from a batched SVD, except where every output is
    Hermitian: for a Hermitian-restricted query whose map sends the basis
    and I to exactly Hermitian images (any Hermiticity-preserving map), they
    are the moduli of the ``eigvalsh`` eigenvalues.

    For even ``resolution`` only half of each sphere grid except the q = 1
    one is evaluated: the grid is closed under ``X -> -X``, the objective is
    even, and every skipped point's antipode lies on the evaluated half, so
    the maximum is the same.  ``resolution`` still counts grid points per
    angle.
    """
    R = require_count(resolution, "resolution", 2)
    if query.stabilize_dim:
        raise UnsupportedInstanceError("the oracle does not handle stabilized queries")
    if phi.dim_in > 2:
        raise UnsupportedInstanceError(
            f"oracle grids require dim_in <= 2, got {phi.dim_in}"
        )
    q, p, herm = query.q, query.p, query.hermitian_restricted
    din, dout = phi.dim_in, phi.dim_out
    if din == 1:
        return float(pnorm(np.linalg.svd(apply(phi, np.ones((1, 1))), compute_uv=False), p))
    finite = not (q == 1.0 or math.isinf(q))
    if finite and not herm:
        raise UnsupportedInstanceError("the oracle has no grid for 1 < q < inf without the Hermitian restriction")
    # the realigned Choi matrix maps row-major vectorized inputs to outputs
    transfer_t = choi_matrix(phi).reshape(din, dout, din, dout).transpose(0, 2, 1, 3).reshape(din**2, -1)
    thetas = np.linspace(0.0, math.pi, R)
    phis = np.linspace(0.0, 2.0 * math.pi, R, endpoint=False)
    chunk = max(1, _ORACLE_CHUNK_ENTRIES // dout**2)
    if q == 1.0 and not herm:
        # rank-one inputs u v*, the trace-norm ball's extreme points, for the
        # Bloch states u, v = (cos(theta/2), sin(theta/2) e^(i phi)), theta slowest
        states = np.empty((R, R, 2), dtype=np.complex128)
        states[:, :, 0] = np.cos(thetas / 2.0)[:, None]
        states[:, :, 1] = np.sin(thetas / 2.0)[:, None] * np.exp(1j * phis)
        basis = _MATRIX_UNITS
        coords, points = _rank_one_chunks(states.reshape(-1, 2), chunk), R**4
    else:
        basis = _SPHERE_BASES[finite, herm]
        n_angles = basis.shape[0] - 1
        # for even R, theta index i pairs with R - 1 - i and phi_j + pi =
        # phi_(j + R/2), so the antipode of every point with a first theta index
        # >= R/2 is on the lower half; the q = 1 states have no antipodes
        lead = R // 2 if R % 2 == 0 and q != 1.0 else R
        axes = [thetas[:lead]] + [thetas] * (n_angles - 2) + [phis]
        coords, points = _sphere_chunks(axes, chunk), lead * R ** (n_angles - 1)
    image = basis @ transfer_t
    eye = transfer_t[0] + transfer_t[3]  # the image of I
    # Hermitian inputs have Hermitian outputs when the images of the basis and
    # of I are exactly Hermitian, as they are for Hermiticity-preserving maps;
    # only outputs beyond 2x2 take their spectra from a decomposition
    hermitian = False
    if herm and dout > 2:
        images = np.vstack([image, eye]).reshape(-1, dout, dout)
        hermitian = np.array_equal(images, images.conj().transpose(0, 2, 1))
    ws = _Workspace(min(chunk, points), dout)
    if finite:
        in_sq, walked = _run_head_sq_norms(axes, basis, q, chunk), 0
    # every objective is compared squared; one square root of the maximum ends the walk
    best, shift = 0.0, None
    if q == 1.0 and herm:
        # the pure states (I + n.sigma) / 2
        image, shift = image / 2.0, (eye / 2.0).view(np.float64)
    elif math.isinf(q) and herm:
        best = float(_flat_sq_pnorm(eye[None], dout, p, ws, hermitian)[0])
    # real coordinates times the real view of a complex matrix give the real
    # view of the complex product
    image = image.view(np.float64)
    for x in coords:
        out = np.matmul(x, image, out=ws.out[: len(x)])
        if shift is not None:
            out += shift
        vals = _flat_sq_pnorm(out.view(np.complex128), dout, p, ws, hermitian)
        if finite:
            # a chunk is whole runs of the last angle, or part of one when R
            # exceeds the chunk, and each run shares its head's input norm
            run = min(R, len(x))
            vals = vals.reshape(-1, run).max(axis=1)
            vals /= in_sq[walked // R : walked // R + len(vals)]
            walked += len(x)
        best = max(best, float(vals.max()))
    return math.sqrt(best)


def explore_open_question(
    phi: SuperOp,
    question: int,
    q=1.0,
    p=1.0,
    samples: int = 20,
    config: OptimizerConfig | None = None,
) -> dict:
    """Numeric survey data for the three representation/stabilization
    questions; exploratory output only, no verdict is attached.

    Question 1 samples invertible re-mixings of an equivalent Kraus pair
    (identity mixer first) and tracks the smallest observed product
    ``||Phi_L||^H_{1->p} * ||Phi_R||^H_{1->p}`` against the squared
    stabilized norm.  Questions 2 and 3 tabulate ``||Phi (x) I_k||_{q->p}``
    for ancilla sizes k = 1 .. dim_in + 2; question 3 requires a completely
    positive input and adds the Hermitian-restricted column.
    """
    cfg = config if config is not None else OptimizerConfig()
    if phi.dim_in > 3 or phi.dim_out > 3:
        raise UnsupportedInstanceError("exploration is limited to dimensions <= 3")
    q = require_exponent(q)
    p = require_exponent(p)
    question = require_count(question, "question")
    samples = require_count(samples, "samples", 1)
    if question == 1:
        stab = stabilized_norm(phi, p, hermitian_restricted=False, config=cfg).value
        herm = NormQuery(1.0, p, hermitian_restricted=True)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
        n = phi.n_terms
        records = []
        for i in range(samples):
            if i == 0:
                mixer = np.eye(n, dtype=np.complex128)
            else:
                mixer = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(10):
                    if np.linalg.cond(mixer) < 1e4:
                        break
                    mixer = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mixed = remix(phi, mixer)
            lv = norm_q_to_p(left_cp_map(mixed), herm, cfg).value
            rv = norm_q_to_p(right_cp_map(mixed), herm, cfg).value
            records.append({"sample": i, "left": lv, "right": rv, "product": lv * rv})
        return {
            "question": 1,
            "p": format_exponent(p),
            "stabilized_squared": stab * stab,
            "min_product": min(r["product"] for r in records),
            "samples": records,
        }
    if question in (2, 3):
        if question == 3 and not is_completely_positive(phi):
            raise PreconditionError("question 3 concerns completely positive maps")
        profile = []
        for k in range(1, phi.dim_in + 3):
            query = NormQuery(q, p, False, stabilize_dim=k)
            # unreduced: the profile is a check on ancilla sizes, not a lookup
            row = {"ancilla": k, "value": _norms(phi, [query], cfg, reduce=False)[0].value}
            if question == 3:
                herm = replace(query, hermitian_restricted=True)
                row["hermitian_value"] = _norms(phi, [herm], cfg, reduce=False)[0].value
            profile.append(row)
        return {
            "question": question,
            "q": format_exponent(q),
            "p": format_exponent(p),
            "profile": profile,
        }
    raise InvalidInputError(f"question must be 1, 2, or 3, got {question}")
