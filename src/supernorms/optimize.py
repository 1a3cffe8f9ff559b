"""Induced super-operator norms via multi-restart alternating ascent.

The target quantity sup { ||Phi(X)||_p : ||X||_q = 1 } is treated as the
bilinear form Re<Y, Phi(X)> maximized jointly over the unit p*-ball in Y and
the unit q-ball in X.  Each partial maximization has a closed form (a Hoelder
witness read off a singular value or eigenvalue decomposition; at exponent 2
it is the normalized matrix and no decomposition runs), so the optimizer
alternates the two exact half-steps.  The objective value never
decreases along the iteration, every iterate is feasible, and the reported
value is therefore a certified lower bound whatever the convergence status.

All restarts advance together as one stacked array; a restart drops out of
the stack once its gain or step falls under the configured tolerances.
The ascent applies ``Phi (x) I_k`` and its adjoint through the one Kraus
kernel of :mod:`.superop` and never materializes the enlarged map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, PreconditionError, UnsupportedInstanceError
from .schatten import dual_exponent, format_exponent, holder_weights, pnorm, require_exponent
from .superop import (
    SuperOp,
    _dagger,
    _kraus_act,
    apply,
    choi_matrix,
    is_completely_positive,
    left_cp_map,
    remix,
    right_cp_map,
    tensor_identity,
)

# grid points evaluated per vectorized sweep of the brute-force oracle
_ORACLE_CHUNK = 1 << 18

# complex entries one stacked ascent iterate may hold (2^26 entries = 1 GiB)
_MAX_STACK_ENTRIES = 1 << 26

_CONSTRAINTS = ("full", "hermitian", "psd")


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
        object.__setattr__(self, "hermitian_restricted", bool(self.hermitian_restricted))
        k = int(self.stabilize_dim)
        if k < 0:
            raise InvalidInputError(f"stabilize_dim must be >= 0, got {k}")
        object.__setattr__(self, "stabilize_dim", k)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iterations: int = 5000
    step_tolerance: float = 1e-9
    objective_tolerance: float = 1e-10
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "restarts", int(self.restarts))
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        object.__setattr__(self, "step_tolerance", float(self.step_tolerance))
        object.__setattr__(self, "objective_tolerance", float(self.objective_tolerance))
        object.__setattr__(self, "seed", int(self.seed))
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if not (self.step_tolerance > 0.0 and self.objective_tolerance > 0.0):
            raise InvalidInputError("tolerances must be positive")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
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


def _ball_witness(Z: np.ndarray, q: float, constraint: str) -> np.ndarray:
    """Batched maximizer of Re<Z, X> over the unit q-ball of the given set.

    ``full`` uses the singular triplet of Z, ``hermitian`` the eigensystem of
    its Hermitian part, ``psd`` additionally clamps the spectrum (falling
    back to the top eigendirection when nothing positive remains).  At
    q = 2 the ball is the Frobenius ball, so for ``full`` and ``hermitian``
    the witness is the (Hermitian part of the) matrix normalized, and no
    decomposition runs; zero slices stay zero.
    """
    if constraint != "full":
        Z = (Z + Z.conj().transpose(0, 2, 1)) / 2.0
    if q == 2.0 and constraint != "psd":
        nrm = _frobenius(Z)[:, None, None]
        return np.divide(Z, nrm, out=np.zeros_like(Z), where=nrm > 0.0)
    if constraint == "full":
        U, s, Vh = np.linalg.svd(Z)
        w = holder_weights(s, q)
        return (U * w[..., None, :]) @ Vh
    lam, V = np.linalg.eigh(Z)
    if constraint == "psd":
        lam = np.maximum(lam, 0.0)
        dead = lam[..., -1] <= 0.0
        if np.any(dead):
            lam[dead, -1] = 1.0
    w = holder_weights(lam, q)
    return (V * w[..., None, :]) @ V.conj().transpose(0, 2, 1)


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _start_stack(base: int, anc: int, q: float, constraint: str, cfg: OptimizerConfig) -> np.ndarray:
    """Initial iterates on the base (x) ancilla space: deterministic guesses in
    the first slots (maximally entangled projector when anc >= 2, normalized
    identity, uniform-superposition projector), Gaussian draws after that."""
    n = base * anc
    starts = np.zeros((cfg.restarts, n, n), dtype=np.complex128)
    hints = []
    if anc >= 2:
        m = min(base, anc)
        omega = np.zeros(n, dtype=np.complex128)
        omega[[i * anc + i for i in range(m)]] = 1.0 / math.sqrt(m)
        hints.append(np.outer(omega, omega.conj()))
    hints.append(np.eye(n, dtype=np.complex128) / pnorm(np.ones(n), q))
    u = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    hints.append(np.outer(u, u.conj()))
    n_hints = min(len(hints), cfg.restarts)
    for i in range(n_hints):
        starts[i] = hints[i]
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    for r in range(n_hints, cfg.restarts):
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
        starts[r] = G / pnorm(np.linalg.svd(G, compute_uv=False), q)
    return starts


def _ascend(phi: SuperOp, k: int, q: float, p: float, constraint: str, cfg: OptimizerConfig):
    left, right = phi.kraus_left, phi.kraus_right
    left_h, right_h = _dagger(left), _dagger(right)
    p_dual = dual_exponent(p)
    X = _start_stack(phi.dim_in, k, q, constraint, cfg)
    values = np.full(cfg.restarts, -np.inf)
    converged = np.zeros(cfg.restarts, dtype=bool)
    active = np.arange(cfg.restarts)
    for _ in range(cfg.max_iterations):
        Xa = X[active]
        W = _kraus_act(left, right, Xa, k)
        Y = _ball_witness(W, p_dual, "full")
        vals = np.einsum("rab,rab->r", W.conj(), Y).real
        gain = vals - values[active]
        values[active] = vals
        Xn = _ball_witness(_kraus_act(left_h, right_h, Y, k), q, constraint)
        stalled = _frobenius(Xn) <= 1e-14
        if np.any(stalled):
            Xn[stalled] = Xa[stalled]
        step = _frobenius(Xn - Xa)
        X[active] = Xn
        done = (np.abs(gain) <= cfg.objective_tolerance * (1.0 + np.abs(vals))) | (
            step <= cfg.step_tolerance
        )
        if np.any(done):
            converged[active[done]] = True
            active = active[~done]
            if active.size == 0:
                break
    final = pnorm(np.linalg.svd(_kraus_act(left, right, X, k), compute_uv=False), p, axis=-1)
    best = int(np.argmax(final))
    return X[best], bool(converged[best])


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


def _estimate(phi: SuperOp, query: NormQuery, constraint: str, cfg: OptimizerConfig) -> NormEstimate:
    if constraint not in _CONSTRAINTS:
        raise InvalidInputError(f"unknown constraint {constraint!r}")
    k = query.stabilize_dim
    side = max(phi.dim_in, phi.dim_out) * max(k, 1)
    if cfg.restarts * side * side > _MAX_STACK_ENTRIES:
        raise UnsupportedInstanceError(
            f"stabilize_dim {k} on a {phi.dim_in}->{phi.dim_out} map with {cfg.restarts} restarts "
            f"needs {cfg.restarts} x {side} x {side} iterates, over the limit of "
            f"{_MAX_STACK_ENTRIES} entries"
        )
    Xbest, conv = _ascend(phi, max(k, 1), query.q, query.p, constraint, cfg)
    achiever = _polish_achiever(Xbest, query.q, constraint)
    # the reference map, so that re-evaluating the achiever reproduces ``value``
    phi_eff = tensor_identity(phi, k) if k else phi
    value = float(pnorm(np.linalg.svd(apply(phi_eff, achiever), compute_uv=False), query.p))
    return NormEstimate(
        value=value,
        achiever=achiever,
        converged=conv,
    )


def norm_q_to_p(phi: SuperOp, query: NormQuery, config: OptimizerConfig | None = None) -> NormEstimate:
    """Best lower bound on the queried induced norm over ``restarts`` runs."""
    cfg = config if config is not None else OptimizerConfig()
    constraint = "hermitian" if query.hermitian_restricted else "full"
    return _estimate(phi, query, constraint, cfg)


def norm_1_to_p(
    phi: SuperOp,
    p,
    hermitian_restricted: bool = False,
    config: OptimizerConfig | None = None,
) -> NormEstimate:
    """The q = 1 induced norm; its achievers are rank-one by construction."""
    return norm_q_to_p(phi, NormQuery(1.0, p, hermitian_restricted), config)


def cp_norm(phi: SuperOp, query: NormQuery, config: OptimizerConfig | None = None) -> NormEstimate:
    """The induced norm of a completely positive map, searched over PSD
    inputs only (for CP maps this loses nothing and the achiever is a state
    when q = 1).  The query's ``hermitian_restricted`` flag is immaterial
    here since the PSD cone sits inside the Hermitian space."""
    if not is_completely_positive(phi):
        raise PreconditionError("cp_norm requires a completely positive map")
    cfg = config if config is not None else OptimizerConfig()
    return _estimate(phi, query, "psd", cfg)


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
    right-hand side depends on the stored Kraus representation.
    """
    cfg = config if config is not None else OptimizerConfig()
    plain = replace(query, hermitian_restricted=False)
    herm = replace(query, hermitian_restricted=True)
    lhs = norm_q_to_p(phi, plain, cfg).value
    lv = norm_q_to_p(left_cp_map(phi), herm, cfg).value
    rv = norm_q_to_p(right_cp_map(phi), herm, cfg).value
    return lhs, math.sqrt(lv * rv)


def _chunked_indices(sizes, chunk: int):
    """Yield integer index blocks covering the cartesian grid of the sizes."""
    total = math.prod(sizes)
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        yield np.unravel_index(flat, sizes)


def _pair_pnorm(hi: np.ndarray, lo: np.ndarray, p: float) -> np.ndarray:
    """p-norm of two-entry non-negative spectra, fast paths for 1, 2, inf."""
    if p == 1.0:
        return hi + lo
    if p == 2.0:
        return np.sqrt(hi * hi + lo * lo)
    if math.isinf(p):
        return np.maximum(hi, lo)
    return pnorm(np.stack([hi, lo], axis=-1), p, axis=-1)


def _flat_out_pnorm(out_flat: np.ndarray, dout: int, p: float) -> np.ndarray:
    """Schatten p-norms of a stack of row-major flattened square outputs."""
    if dout == 2:
        f = (np.abs(out_flat) ** 2).sum(axis=-1)
        if p == 2.0:
            return np.sqrt(f)
        det = out_flat[:, 0] * out_flat[:, 3] - out_flat[:, 1] * out_flat[:, 2]
        g = np.sqrt(np.maximum(f * f - 4.0 * np.abs(det) ** 2, 0.0))
        hi = np.sqrt((f + g) / 2.0)
        lo = np.sqrt(np.maximum((f - g) / 2.0, 0.0))
        return _pair_pnorm(hi, lo, p)
    s = np.linalg.svd(out_flat.reshape(-1, dout, dout), compute_uv=False)
    return pnorm(s, p, axis=-1)


def brute_force_oracle(phi: SuperOp, query: NormQuery, resolution: int) -> float:
    """Grid maximum over a dense parameterization of the feasible set.

    Only qubit input spaces are in scope.  ``resolution`` counts grid points
    per angle.  For q = 1 and q = inf the grid walks the extreme points of
    the input ball directly (rank-one matrices, reflections, unitaries), so
    the objective stays smooth in the angles: 2 angles when Hermitian, 4 and
    3 otherwise.  For finite q > 1 there is no such reduction and the grid
    covers the sphere of coordinate vectors, 3 angles for the Hermitian 2x2
    space and 7 for the full one, so the unrestricted finite-q grid is only
    usable at very coarse resolutions.  The result is always a valid lower
    bound and converges to the norm as the resolution grows.

    For even ``resolution`` only half of each sphere grid (finite q, and the
    reflections and unitaries at q = inf) is evaluated: the grid is closed
    under ``X -> -X``, the objective is even, and every skipped point's
    antipode lies on the evaluated half, so the maximum is the same.
    ``resolution`` still counts grid points per angle.
    """
    R = int(resolution)
    if R < 2:
        raise InvalidInputError("resolution must be at least 2")
    if query.stabilize_dim:
        raise UnsupportedInstanceError("the oracle does not handle stabilized queries")
    if phi.dim_in > 2:
        raise UnsupportedInstanceError(
            f"oracle grids require dim_in <= 2, got {phi.dim_in}"
        )
    q, p = query.q, query.p
    din, dout = phi.dim_in, phi.dim_out
    if din == 1:
        return float(pnorm(np.linalg.svd(apply(phi, np.ones((1, 1))), compute_uv=False), p))
    # the realigned Choi matrix maps row-major vectorized inputs to outputs
    transfer_t = choi_matrix(phi).reshape(din, dout, din, dout).transpose(0, 2, 1, 3).reshape(din**2, -1)
    thetas = np.linspace(0.0, math.pi, R)
    phis = np.linspace(0.0, 2.0 * math.pi, R, endpoint=False)
    # sphere grids: for even R, theta index i pairs with R - 1 - i and
    # phi_j + pi = phi_(j + R/2), so the antipode of every point with a first
    # theta index >= R/2 is on the lower half
    lead = R // 2 if R % 2 == 0 else R
    best = 0.0

    def push(flat, dens=None, transfer=transfer_t):
        nonlocal best
        # real coordinates times the real view of a complex transfer give the
        # real view of the complex outputs; on complex inputs the view is a no-op
        vals = _flat_out_pnorm((flat @ transfer).view(np.complex128), dout, p)
        if dens is not None:
            vals = vals / dens
        best = max(best, float(vals.max()))

    if q == 1.0:
        # rank-one inputs: the trace-norm ball's extreme points are u v*
        # (v = u when restricted to the Hermitian cone, up to overall sign)
        ca, sa = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
        ph = np.exp(1j * phis)
        if query.hermitian_restricted:
            for i0, i1 in _chunked_indices((R, R), _ORACLE_CHUNK):
                a, s = ca[i0], sa[i0]
                b = s * ph[i1]
                flat = np.empty((a.size, 4), dtype=np.complex128)
                flat[:, 0] = a * a
                flat[:, 1] = a * b.conj()
                flat[:, 2] = a * b
                flat[:, 3] = s * s
                push(flat)
        else:
            for i0, i1, i2, i3 in _chunked_indices((R, R, R, R), _ORACLE_CHUNK):
                ua, ub = ca[i0], sa[i0] * ph[i1]
                va, vb = ca[i2], sa[i2] * ph[i3]
                flat = np.empty((ua.size, 4), dtype=np.complex128)
                flat[:, 0] = ua * va.conj()
                flat[:, 1] = ua * vb.conj()
                flat[:, 2] = ub * va.conj()
                flat[:, 3] = ub * vb.conj()
                push(flat)
        return best
    if math.isinf(q):
        # extreme points of the operator-norm ball: reflections 2 psi psi* - I
        # (plus I itself) in the Hermitian case, unitaries otherwise; sampling
        # them directly avoids the eigenvalue-crossing kink a normalized
        # direction grid would have to straddle
        if query.hermitian_restricted:
            push(np.array([[1.0, 0.0, 0.0, 1.0]], dtype=np.complex128))
            ca, sa = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
            ph = np.exp(1j * phis)
            for i0, i1 in _chunked_indices((lead, R), _ORACLE_CHUNK):
                a, s = ca[i0], sa[i0]
                b = s * ph[i1]
                flat = np.empty((a.size, 4), dtype=np.complex128)
                flat[:, 0] = 2.0 * a * a - 1.0
                flat[:, 1] = 2.0 * a * b.conj()
                flat[:, 2] = 2.0 * a * b
                flat[:, 3] = 1.0 - 2.0 * a * a
                push(flat)
            return best
        axes = [thetas, thetas, phis]
        cos_t = [np.cos(a) for a in axes]
        sin_t = [np.sin(a) for a in axes]
        for idx in _chunked_indices((lead, R, R), _ORACLE_CHUNK):
            m = idx[0].size
            x = np.empty((m, 4))
            running = np.ones(m)
            for d in range(3):
                x[:, d] = running * cos_t[d][idx[d]]
                running = running * sin_t[d][idx[d]]
            x[:, 3] = running
            z1 = x[:, 0] + 1j * x[:, 1]
            z2 = x[:, 2] + 1j * x[:, 3]
            flat = np.empty((m, 4), dtype=np.complex128)
            flat[:, 0] = z1
            flat[:, 1] = -z2.conj()
            flat[:, 2] = z2
            flat[:, 3] = z1.conj()
            push(flat)
        return best
    # 1 < q < inf: walk the unit sphere of real coordinate vectors (4 for the
    # Hermitian 2x2 space, 8 otherwise) and rescale by the direction's q-norm
    n_angles = 3 if query.hermitian_restricted else 7
    axes = [thetas] * (n_angles - 1) + [phis]
    cos_t = [np.cos(a) for a in axes]
    sin_t = [np.sin(a) for a in axes]
    # images of the Hermitian basis E00, E11, E01 + E10, i(E01 - E10)
    t = transfer_t
    herm_t = np.stack([t[0], t[3], t[1] + t[2], 1j * (t[1] - t[2])]).view(np.float64)
    for idx in _chunked_indices((lead,) + (R,) * (n_angles - 1), _ORACLE_CHUNK):
        m = idx[0].size
        x = np.empty((m, n_angles + 1))
        running = np.ones(m)
        for d in range(n_angles):
            x[:, d] = running * cos_t[d][idx[d]]
            running = running * sin_t[d][idx[d]]
        x[:, n_angles] = running
        if query.hermitian_restricted:
            mean = (x[:, 0] + x[:, 1]) / 2.0
            rad = np.sqrt((x[:, 0] - x[:, 1]) ** 2 / 4.0 + x[:, 2] ** 2 + x[:, 3] ** 2)
            push(x, _pair_pnorm(np.abs(mean + rad), np.abs(mean - rad), q), herm_t)
        else:
            flat = x.view(np.complex128)
            # the coordinate vector is unit, so the squared Frobenius norm is 1
            det = flat[:, 0] * flat[:, 3] - flat[:, 1] * flat[:, 2]
            g = np.sqrt(np.maximum(1.0 - 4.0 * np.abs(det) ** 2, 0.0))
            hi = np.sqrt((1.0 + g) / 2.0)
            lo = np.sqrt(np.maximum((1.0 - g) / 2.0, 0.0))
            push(flat, _pair_pnorm(hi, lo, q))
    return best


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
    question = int(question)
    samples = int(samples)
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
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
            row = {"ancilla": k, "value": norm_q_to_p(phi, query, cfg).value}
            if question == 3:
                row["hermitian_value"] = norm_q_to_p(
                    phi, replace(query, hermitian_restricted=True), cfg
                ).value
            profile.append(row)
        return {
            "question": question,
            "q": format_exponent(q),
            "p": format_exponent(p),
            "profile": profile,
        }
    raise InvalidInputError(f"question must be 1, 2, or 3, got {question}")
