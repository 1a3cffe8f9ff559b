import ast
import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from supernorms import (
    InvalidExponentError,
    InvalidInputError,
    NormQuery,
    OptimizerConfig,
    PreconditionError,
    SuperOp,
    UnsupportedInstanceError,
    adjoint_apply,
    apply,
    brute_force_oracle,
    build_example,
    choi_matrix,
    cp_norm,
    difference,
    factorization_bound,
    holder_weights,
    identity_superop,
    is_hermitian,
    left_cp_map,
    norm_1_to_p,
    norm_q_to_p,
    pnorm,
    random_cp_channel,
    random_superop,
    random_unitary,
    right_cp_map,
    schatten_norm,
    stabilized_norm,
    tensor_identity,
)
from supernorms import linalg, optimize, oracle, schatten
from supernorms.schatten import dual_exponent
from supernorms.superop import _dagger, _kraus_kernel

EXPONENTS = [1.0, 1.5, 2.0, math.inf]


def eval_on(phi: SuperOp, X: np.ndarray, p: float) -> float:
    return schatten_norm(apply(phi, X), p)


def test_norm_query_validation():
    q = NormQuery("2", 1)
    assert q.q == 2.0 and q.p == 1.0 and not q.hermitian_restricted
    with pytest.raises(InvalidExponentError):
        NormQuery(0.5, 1.0)
    with pytest.raises(InvalidExponentError):
        NormQuery(1.0, math.nan)
    with pytest.raises(InvalidInputError):
        NormQuery(1.0, 1.0, stabilize_dim=-1)
    assert NormQuery(1.0, 1.0, stabilize_dim=np.int64(2)).stabilize_dim == 2
    for bad in (2.7, True, math.nan):
        with pytest.raises(InvalidInputError, match="stabilize_dim must be a whole number"):
            NormQuery(1.0, 1.0, stabilize_dim=bad)


def test_optimizer_config_validation():
    cfg = OptimizerConfig(restarts=3.0)
    assert cfg.restarts == 3
    for bad in (
        dict(restarts=0),
        dict(max_iterations=0),
    ):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(**bad)
    assert OptimizerConfig(seed=0).seed == 0
    with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
        OptimizerConfig(seed=-1)
    assert OptimizerConfig(restarts=np.int32(4), seed=np.uint64(5)).seed == 5
    for field, bad in (
        ("restarts", 3.9),
        ("max_iterations", 10.5),
        ("seed", 4.2),
        ("restarts", True),
        ("seed", False),
        ("max_iterations", math.inf),
    ):
        with pytest.raises(InvalidInputError, match=f"{field} must be a whole number"):
            OptimizerConfig(**{field: bad})


@pytest.mark.parametrize("n", [2, 3])
def test_identity_map_closed_form(n, quick_cfg):
    ident = identity_superop(n)
    for q in EXPONENTS:
        for p in EXPONENTS:
            iq = 0.0 if math.isinf(q) else 1.0 / q
            ip = 0.0 if math.isinf(p) else 1.0 / p
            want = n ** max(0.0, ip - iq)
            got = norm_q_to_p(ident, NormQuery(q, p), quick_cfg).value
            assert got == pytest.approx(want, abs=1e-7), (q, p)


def test_unitary_conjugation_has_unit_norm(quick_cfg):
    U = random_unitary(3, 4)
    phi = SuperOp.from_kraus(U[None])
    for p in EXPONENTS:
        assert norm_q_to_p(phi, NormQuery(p, p), quick_cfg).value == pytest.approx(1.0, abs=1e-8)


def test_simple_example_norm_gap(quick_cfg):
    simple = build_example("simple_nonhermitian")
    for q in (1.0, 2.0, 4.0):
        plain = norm_q_to_p(simple, NormQuery(q, 1.0), quick_cfg).value
        herm = norm_q_to_p(simple, NormQuery(q, 1.0, True), quick_cfg).value
        assert plain == pytest.approx(1.0, abs=1e-6)
        assert herm == pytest.approx(2.0 ** (-1.0 / q), abs=1e-6)


def test_dim4_difference_values(quick_cfg):
    d4 = difference(*build_example("dim4_pair"))
    assert norm_1_to_p(d4, 1.0, config=quick_cfg).value == pytest.approx(2.0, abs=1e-5)
    assert norm_1_to_p(d4, 1.0, True, config=quick_cfg).value == pytest.approx(
        math.sqrt(2.0), abs=1e-5
    )


def test_transpose_plain_vs_stabilized(quick_cfg):
    T = build_example("transpose(2)")
    assert norm_1_to_p(T, 1.0, config=quick_cfg).value == pytest.approx(1.0, abs=1e-6)
    est = stabilized_norm(T, 1.0, config=quick_cfg)
    assert est.value == pytest.approx(2.0, abs=1e-5)
    assert est.achiever.shape == (4, 4)


def test_stabilized_norm_matches_explicit_query(quick_cfg):
    phi = random_superop(2, 2, 2, 21)
    direct = norm_q_to_p(phi, NormQuery(1.0, 2.0, False, 2), quick_cfg)
    wrapped = stabilized_norm(phi, 2.0, config=quick_cfg)
    assert wrapped.value == direct.value


def test_cp_map_norms_agree_across_routes(quick_cfg):
    phi = random_cp_channel(2, 3, 2, 0)
    for q, p in [(1.0, 1.0), (2.0, 1.5), (math.inf, math.inf)]:
        plain = norm_q_to_p(phi, NormQuery(q, p), quick_cfg).value
        herm = norm_q_to_p(phi, NormQuery(q, p, True), quick_cfg).value
        psd = cp_norm(phi, NormQuery(q, p), quick_cfg).value
        assert abs(plain - herm) <= 2e-3
        assert abs(plain - psd) <= 2e-3


def test_cp_norm_rejects_non_cp_maps(quick_cfg):
    with pytest.raises(PreconditionError):
        cp_norm(build_example("transpose(2)"), NormQuery(1.0, 1.0), quick_cfg)


def test_achiever_invariants_plain(quick_cfg):
    phi = random_superop(2, 3, 2, 31)
    query = NormQuery(1.5, 2.0)
    est = norm_q_to_p(phi, query, quick_cfg)
    assert schatten_norm(est.achiever, 1.5) == pytest.approx(1.0, abs=1e-9)
    assert eval_on(phi, est.achiever, 2.0) == est.value
    assert not est.achiever.flags.writeable


def test_achiever_invariants_hermitian(quick_cfg):
    phi = random_superop(3, 2, 2, 32)
    est = norm_q_to_p(phi, NormQuery(2.0, 1.0, True), quick_cfg)
    assert is_hermitian(est.achiever, tol=1e-12)
    assert schatten_norm(est.achiever, 2.0) == pytest.approx(1.0, abs=1e-9)
    assert eval_on(phi, est.achiever, 1.0) == est.value


def test_achiever_invariants_psd(quick_cfg):
    phi = random_cp_channel(3, 2, 2, 33)
    est = cp_norm(phi, NormQuery(1.0, 1.0), quick_cfg)
    lam = np.linalg.eigvalsh(est.achiever)
    assert lam.min() >= -1e-12
    assert lam.sum() == pytest.approx(1.0, abs=1e-9)
    assert eval_on(phi, est.achiever, 1.0) == est.value


def test_achiever_lives_on_stabilized_space(quick_cfg):
    phi = random_superop(2, 2, 2, 34)
    big = tensor_identity(phi, 3)
    for query in (NormQuery(1.0, 1.0, False, 3), NormQuery(1.5, 3.0, True, 3)):
        est = norm_q_to_p(phi, query, quick_cfg)
        assert est.achiever.shape == (6, 6)
        assert eval_on(big, est.achiever, query.p) == est.value
    assert is_hermitian(est.achiever, tol=1e-12)


@pytest.mark.parametrize("i", range(8))
def test_reduced_queries_embed_an_exact_achiever(i, monkeypatch):
    # Theorem 2 cells (q <= 2 <= p) and Theorem 3 cells (q = 1, k > dim_in): the
    # ascent runs on the smaller space, the achiever is embedded in the query's
    # space and re-evaluates there exactly, and the value matches the ascent on
    # the query's own ancilla
    din, dout = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]
    phi, cfg = random_superop(din, dout, 2 + i % 2, 800 + i), OptimizerConfig(seed=i)
    ancillas = []
    ascend = optimize._ascend
    monkeypatch.setattr(
        optimize, "_ascend", lambda phi, k, *args: ancillas.append(k) or ascend(phi, k, *args)
    )
    cells = [(1.0, 2.0, 3), (1.5, 3.0, 2), (2.0, math.inf, 2), (1.0, 1.0, din + 2), (1.0, 3.0, din + 1)]
    for q, p, k in cells:
        for herm in (False, True):
            query = NormQuery(q, p, herm, k)
            est = norm_q_to_p(phi, query, cfg)
            # Theorem 2 drops the ancilla of a plain query, Theorem 3 caps it at dim_in
            want = 1 if not herm and q <= 2.0 <= p else min(k, din) if q == 1.0 else k
            assert ancillas[-1] == want, (q, p, k, herm)
            assert est.achiever.shape == (din * k, din * k)
            assert schatten_norm(est.achiever, q) == pytest.approx(1.0, abs=1e-12)
            if herm:
                assert is_hermitian(est.achiever, tol=1e-12)
            assert eval_on(tensor_identity(phi, k), est.achiever, p) == est.value
            unreduced = optimize._norms(phi, [query], cfg, reduce=False)[0]
            assert ancillas[-1] == k
            assert est.value == pytest.approx(unreduced.value, rel=1e-8), (q, p, k, herm)


@pytest.mark.parametrize(
    "route, phi, query",
    [
        (norm_q_to_p, random_superop(3, 2, 3, 40), NormQuery(1.5, 3.0)),
        (norm_q_to_p, random_superop(2, 3, 2, 41), NormQuery(1.0, 2.0, hermitian_restricted=True)),
        (cp_norm, random_cp_channel(3, 2, 2, 42), NormQuery(1.5, 3.0)),
        (norm_q_to_p, random_superop(2, 2, 3, 43), NormQuery(1.0, 1.0, stabilize_dim=2)),
        (norm_q_to_p, random_superop(3, 2, 2, 44), NormQuery(2.0, 1.5)),
        (norm_q_to_p, random_superop(2, 3, 3, 45), NormQuery(2.0, 3.0, hermitian_restricted=True)),
        (norm_q_to_p, random_superop(2, 2, 2, 46), NormQuery(2.0, 2.0, stabilize_dim=2)),
        (norm_q_to_p, random_superop(3, 2, 3, 47), NormQuery(1.0, 3.0)),
        (norm_q_to_p, random_superop(2, 3, 2, 48), NormQuery(1.0, math.inf)),
        (norm_q_to_p, random_superop(3, 3, 2, 49), NormQuery(1.5, math.inf, hermitian_restricted=True)),
    ],
    ids=[
        "full", "hermitian", "psd", "stabilized", "q2-full", "q2-hermitian", "p2-q2-stabilized",
        "q1-full", "q1-pinf-full", "pinf-hermitian",
    ],
)
def test_more_iterations_never_lower_the_value(route, phi, query):
    # the ascent is monotone, so capping it later can only raise the reported value
    values = [
        route(phi, query, OptimizerConfig(max_iterations=j, seed=9)).value for j in range(1, 26)
    ]
    for before, after in zip(values, values[1:]):
        assert after >= before * (1.0 - 1e-12)
    assert values[-1] > values[0]


def test_rank_one_sides_decompose_only_in_the_first_iteration(monkeypatch):
    # at q = 1 and p = inf both witnesses are rank one: after the first
    # iteration's two SVDs every half-step is a power step, and every other SVD
    # takes singular values only.  Stacked beside a 2 -> 2 cell, each side has
    # two witness groups, and the rank-one group keeps its pairs across the
    # other group's (decomposition-free) steps
    phi = random_superop(3, 3, 2, 50)
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for query in (NormQuery(1.0, math.inf), [NormQuery(1.0, math.inf), NormQuery(2.0, 2.0)]):
        values = []
        for iterations in (1, 25):
            calls.clear()
            est = norm_q_to_p(phi, query, OptimizerConfig(max_iterations=iterations))
            values.append(est[0].value if isinstance(est, list) else est.value)
            # before the first iteration only the 2 -> 2 cell's start stack
            # runs an SVD, for singular values only
            first = calls.index(True)
            assert calls[first:first + 2] == [True, True]
            assert not any(calls[first + 2:])
        assert values[1] > values[0]


@pytest.mark.parametrize(
    "q, constraint",
    [
        (1.5, "full"), (3.0, "hermitian"), (1.5, "psd"), (math.inf, "full"), (2.0, "hermitian"),
        (1.0, "full"), (1.0, "psd"),
    ],
)
def test_random_starts_match_a_per_restart_reference(q, constraint):
    # one generator seeded with the seed, drawn restart by restart: each
    # complex entry is a (real, imaginary) pair of consecutive normals
    cfg = OptimizerConfig(restarts=9, seed=5)
    starts = optimize._start_stack(3, 2, q, constraint, cfg)
    rng = np.random.default_rng(cfg.seed)
    for r in range(3, cfg.restarts):  # after the three deterministic hints
        if q == 1.0:
            z = rng.standard_normal((2 if constraint == "full" else 1, 6, 2))
            vectors = [w / np.linalg.norm(w) for w in z[..., 0] + 1j * z[..., 1]]
            u, v = vectors[0], vectors[-1]
            np.testing.assert_allclose(starts[r], np.outer(u, v.conj()), rtol=1e-14, atol=1e-16)
            continue
        z = rng.standard_normal((6, 6, 2))
        G = z[..., 0] + 1j * z[..., 1]
        if constraint == "hermitian":
            G = (G + G.conj().T) / 2.0
        elif constraint == "psd":
            G = G.conj().T @ G
        # the stack takes its norms in one batched pnorm, which may differ
        # from schatten_norm's one-row path in the last bit
        np.testing.assert_allclose(starts[r], G / schatten_norm(G, q), rtol=1e-13, atol=0)


@pytest.mark.parametrize("anc", [1, 2])
@pytest.mark.parametrize("constraint", ["full", "hermitian", "psd"])
@pytest.mark.parametrize("q", [1.0, 1.5, math.inf])
def test_fewer_restarts_take_a_prefix_of_the_start_stack(q, constraint, anc):
    short = optimize._start_stack(3, anc, q, constraint, OptimizerConfig(restarts=9, seed=8))
    full = optimize._start_stack(3, anc, q, constraint, OptimizerConfig(restarts=32, seed=8))
    np.testing.assert_array_equal(short, full[:9])


@pytest.mark.parametrize("anc", [1, 2])
@pytest.mark.parametrize("constraint", ["full", "hermitian", "psd"])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, math.inf])
def test_start_stack_rows_are_feasible_and_hints_keep_their_bits(q, constraint, anc):
    n = 3 * anc
    omega = np.zeros(n, dtype=np.complex128)
    omega[[i * anc + i for i in range(min(3, anc))]] = 1.0 / math.sqrt(min(3, anc))
    uniform = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    hints = [np.outer(omega, omega.conj())] if anc >= 2 else []
    hints += [np.eye(n, dtype=np.complex128) / pnorm(np.ones(n), q), np.outer(uniform, uniform.conj())]
    starts = optimize._start_stack(3, anc, q, constraint, OptimizerConfig(restarts=12, seed=3))
    assert starts.shape == (12, n, n)
    np.testing.assert_array_equal(starts[:len(hints)], hints)
    for X in starts[len(hints):]:
        assert abs(schatten_norm(X, q) - 1.0) <= 1e-12
        if constraint != "full":
            np.testing.assert_allclose(X, X.conj().T, rtol=0, atol=1e-15)
        if constraint == "psd":
            assert np.linalg.eigvalsh(X).min() >= -1e-12
        if q == 1.0:
            s = np.linalg.svd(X, compute_uv=False)
            assert s[1] <= 1e-14 * s[0]
    # stacks of hints only, with no random row
    for restarts in (1, 2, 3):
        few = optimize._start_stack(3, anc, q, constraint, OptimizerConfig(restarts=restarts, seed=3))
        np.testing.assert_array_equal(few, starts[:restarts])


def test_every_key_field_changes_the_start_stack():
    base = dict(base=3, anc=2, q=1.5, constraint="full")
    cfg = OptimizerConfig(restarts=9, seed=5)
    reference = optimize._start_stack(**base, cfg=cfg)
    # max_iterations is not part of the key: the same stack
    capped = OptimizerConfig(restarts=9, max_iterations=7, seed=5)
    np.testing.assert_array_equal(optimize._start_stack(**base, cfg=capped), reference)
    for field, value in [("base", 2), ("anc", 3), ("q", 3.0), ("constraint", "hermitian")]:
        other = optimize._start_stack(**{**base, field: value}, cfg=cfg)
        assert not np.array_equal(other, reference), field
    for other_cfg in (OptimizerConfig(restarts=10, seed=5), OptimizerConfig(restarts=9, seed=6)):
        assert not np.array_equal(optimize._start_stack(**base, cfg=other_cfg), reference), other_cfg


def reference_side(Z, keys, pairs, first, whole):
    """One side's half-step as the stacked ascent takes it, on the active rows
    ``Z`` with witness keys ``keys`` (row by row) and rank-one pairs ``pairs``
    (row by row, updated in place).  Each rank-one group (on the first
    iteration its SVD, then its power steps) and each exponent-2 group takes
    its own witness call on its rows as an index array, since matmul can round
    a strided array (the kernel's output is one) differently from a
    contiguous copy; every other row goes through one SVD (``full``) or one
    eigendecomposition of its Hermitian part (``hermitian`` and ``psd``) of
    all such rows in stack order, weighted by its key.  A side with one key
    (``whole``) takes the same steps on the whole stack as it is."""
    trace = (1.0, "full")

    def rows(sel):
        return slice(None) if whole else sel

    out = np.empty_like(Z)
    kinds = []
    for key in keys:
        q, constraint = key
        own = key == trace or (q == 2.0 and constraint != "psd")
        kinds.append(None if own else "svd" if constraint == "full" else "eigh")
    for key in set(keys):
        sel = np.flatnonzero([k == key and kind is None for k, kind in zip(keys, kinds)])
        if sel.size == 0:
            continue
        pair, out[sel] = optimize._witness(Z[rows(sel)], key, None if first else pairs[sel])
        if key == trace:
            pairs[sel] = pair
    for name in ("svd", "eigh"):
        sel = np.flatnonzero([kind == name for kind in kinds])
        if sel.size == 0:
            continue
        if name == "svd":
            U, s, Vh = linalg._batched_svd(Z[rows(sel)])
        else:
            H = Z[rows(sel)]
            s, U = linalg._batched_eigh((H + H.conj().transpose(0, 2, 1)) / 2.0)
            Vh = U.conj().transpose(0, 2, 1)
        w = np.empty_like(s)
        for key in set(keys[i] for i in sel):
            mine = np.flatnonzero([keys[i] == key for i in sel])
            w[mine] = optimize._spectral_weights(s[mine], *key)
        out[sel] = (U * w[..., None, :]) @ Vh
    return out


def forward_spy(spy):
    """A stand-in for ``optimize._kraus_kernel`` whose forward kernels run
    ``spy(forward, X)`` in place of ``forward(X)``: an ascent builds its
    forward kernel first and its adjoint kernel, on the daggered stacks,
    second."""
    built = []

    def kernel(left, right, k=1, rows=1):
        act = _kraus_kernel(left, right, k, rows)
        built.append(act)
        return act if len(built) % 2 == 0 else lambda X: spy(act, X)

    return kernel


def gather_scatter_ascent(phi, k, cells, cfg):
    """The stacked ascent as one loop over the full stack of ``cells x
    restarts`` rows, on the map's unit-scale Kraus stacks: gather the active
    rows, take each side's half-step with ``reference_side`` on them, with the
    rank-one pairs kept by absolute row, scatter them back; returns the final
    stack and the converged flags.

    A row at an extrapolated input key whose gain is above the gate's share
    of its gain before (and that neither stops nor is in the last iteration)
    next steps from ``optimize._extrapolate``'s iterate, at its own factor.
    If the value there falls below its last value, the row keeps its last
    value and gain, its output pair goes back to where it stood before that
    step, and its input iterate and pair to the plain ones, so the next
    iteration evaluates the plain iterate; its factor starts over.  An
    accepted step grows its factor up to the cap."""
    left, right = optimize._unit_scale(phi.kraus_left), optimize._unit_scale(phi.kraus_right)
    forward = _kraus_kernel(left, right, k, len(cells) * cfg.restarts)
    backward = _kraus_kernel(_dagger(left), _dagger(right), k, len(cells) * cfg.restarts)
    X = np.concatenate([optimize._start_stack(phi.dim_in, k, q, constraint, cfg) for q, _, constraint in cells])
    cell = np.repeat(np.arange(len(cells)), cfg.restarts)
    y_key = [(dual_exponent(cells[c][1]), "full") for c in cell]
    x_key = [(cells[c][0], cells[c][2]) for c in cell]
    y_whole, x_whole = len(set(y_key)) == 1, len(set(x_key)) == 1
    may_stall = any(key != (1.0, "full") for key in x_key)
    y_pairs = np.zeros((len(X), 2, phi.dim_out * k), dtype=complex)
    x_pairs = np.zeros((len(X), 2, phi.dim_in * k), dtype=complex)
    values, gains = np.full(len(X), -np.inf), np.full(len(X), np.inf)
    factor = np.full(len(X), 0.5)
    converged = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    plain = {}  # row -> (plain iterate, plain input pair) of a row at an extrapolated iterate
    for it in range(cfg.max_iterations):
        Xa = X[active]
        W = forward(Xa)
        pairs = y_pairs[active]
        y_before = pairs.copy()
        Y = reference_side(W, [y_key[i] for i in active], pairs, it == 0, y_whole)
        y_pairs[active] = pairs
        vals = np.einsum("rab,rab->r", W.conj(), Y).real
        gain = vals - values[active]
        tried = np.array([i for i, row in enumerate(active) if row in plain], dtype=int)
        factor[active[tried]] = np.minimum(factor[active[tried]] * 1.5, 50.0)
        back = tried[vals[tried] < values[active[tried]]]
        vals[back], gain[back] = values[active[back]], gains[active[back]]
        y_pairs[active[back]] = y_before[back]
        factor[active[back]] = 0.5
        slow = np.array([x_key[row] in optimize._EXTRAPOLATED for row in active]) & (gain > 0.3 * gains[active])
        slow[back] = False
        values[active], gains[active] = vals, gain
        x_before = x_pairs[active]
        pairs = x_before.copy()
        Xn = reference_side(backward(Y), [x_key[i] for i in active], pairs, it == 0, x_whole)
        x_pairs[active] = pairs
        for i in back:
            Xn[i], x_pairs[active[i]] = plain[active[i]]
        if may_stall:
            stalled = optimize._frobenius(Xn) <= 1e-14
            Xn[stalled] = Xa[stalled]
        step = optimize._frobenius(Xn - Xa)
        X[active] = Xn
        done = (np.abs(gain) <= 1e-10 * (1.0 + np.abs(vals))) | (step <= 1e-9)
        done[back] = False
        converged[active[done]] = True
        plain = {}
        if it + 1 < cfg.max_iterations:
            for key in set(x_key):
                mine = np.flatnonzero(slow & ~done & np.array([x_key[row] == key for row in active]))
                if not mine.size:
                    continue
                rows = active[mine]
                plain.update((row, (X[row].copy(), x_pairs[row].copy())) for row in rows)
                both = (x_before[mine], x_pairs[rows]) if key == (1.0, "full") else None
                X[rows], pair = optimize._extrapolate(key, Xa[mine], Xn[mine], both, factor[rows])
                if pair is not None:
                    x_pairs[rows] = pair
        active = active[~done]
        if active.size == 0:
            break
    return X, converged


STACKS = {
    "1.5-3.0-full-2": ([(1.5, 3.0, "full")], 2),
    "1.0-inf-full-1": ([(1.0, math.inf, "full")], 1),
    "2.0-2.0-hermitian-2": ([(2.0, 2.0, "hermitian")], 2),
    "1.0-1.0-hermitian-3": ([(1.0, 1.0, "hermitian")], 3),
    "1.0-3.0-psd-2": ([(1.0, 3.0, "psd")], 2),
    # contiguous input groups, strided output groups, both rank-one kinds
    "grid-1": (
        [(q, p, c) for c in ("full", "hermitian") for q in (1.0, 2.0, 3.0) for p in (1.0, 2.0, math.inf)],
        1,
    ),
    # no group contiguous on either side, and a psd group
    "interleaved-2": (
        [(1.5, 3.0, "full"), (1.0, math.inf, "hermitian"), (1.5, math.inf, "full"), (1.0, 1.0, "full"),
         (2.0, 3.0, "psd"), (1.0, 1.5, "full"), (1.5, 1.0, "full")],
        2,
    ),
}


@pytest.mark.parametrize("cells, k", list(STACKS.values()), ids=list(STACKS))
def test_compact_stack_hands_back_every_row(cells, k, monkeypatch):
    # the ascent steps only the active rows, group by group, and writes a row
    # back into the full stack when it converges or the cap stops it; the final
    # re-evaluation must see the same stack, bit for bit, as a gather/scatter
    # loop leaves, and each cell must pick its best restart from its own rows.
    # The map's left stack peaks at 3 x 0.60, so the ascent runs on it halved
    base, cfg = random_superop(3, 2, 3, 60), OptimizerConfig(restarts=7, seed=4)
    phi = SuperOp.from_kraus(3.0 * base.kraus_left, base.kraus_right)
    seen = []
    monkeypatch.setattr(optimize, "_kraus_kernel", forward_spy(lambda forward, X: seen.append(X.copy()) or forward(X)))
    mixed = split = False
    for cap in (1, 3, 15, 18, 22, 27, 5000):
        capped = OptimizerConfig(restarts=cfg.restarts, max_iterations=cap, seed=cfg.seed)
        want, flags = gather_scatter_ascent(phi, k, cells, capped)
        seen.clear()
        got = optimize._ascend(phi, k, cells, capped)
        np.testing.assert_array_equal(seen[-1], want)  # the final evaluation's stack
        left, right = optimize._unit_scale(phi.kraus_left), optimize._unit_scale(phi.kraus_right)
        final = _kraus_kernel(left, right, k, len(want))(want)
        s = np.linalg.svd(final, compute_uv=False)
        assert len(got) == len(cells)
        for c, ((_, p, _), (X, conv)) in enumerate(zip(cells, got)):
            rows = slice(c * cfg.restarts, (c + 1) * cfg.restarts)
            best = int(np.argmax(pnorm(s[rows], p, axis=-1)))
            np.testing.assert_array_equal(X, want[rows][best])
            assert conv == flags[rows][best]
        if cap <= 3:
            assert not flags.any()  # every restart stopped at the cap
        mixed = mixed or 0 < flags.sum() < len(flags)
        # a cell whose rows have all left the stack beside one still in it
        done = flags.reshape(len(cells), -1).all(axis=1)
        split = split or 0 < done.sum() < len(cells)
    assert flags.all() and mixed  # the last cap let all converge, an earlier one some
    assert split or len(cells) == 1


class RecordingSide(optimize._Side):
    """``optimize._Side`` that logs, in one list for all sides, each step,
    compaction and extrapolation; the sides an ascent builds are ``made`` in
    order, the output side first.  A step logs a copy of the pairs it was
    given and the side's row groups; an extrapolation logs the plain iterates
    of its rows, the pairs it was given and the factors."""

    made, log = [], []

    def __init__(self, *args):
        super().__init__(*args)
        RecordingSide.made.append(self)

    def __call__(self, M, pairs):
        given = None if pairs is None else pairs.copy()
        W, out = super().__call__(M, pairs)
        self.log.append((self, "step", M, W, given, self.ids.copy()))
        return W, out

    def keep(self, keep):
        self.log.append((self, "keep", keep))
        super().keep(keep)

    def extrapolate(self, old, X, rows, pairs, factor):
        plain = X[rows].copy()
        out = super().extrapolate(old, X, rows, pairs, factor)
        self.log.append((self, "extrapolate", rows, plain, pairs, factor.copy()))
        return out


def value_histories(y_side) -> list:
    """The safeguard replayed on the log of one ascent whose output side is
    ``y_side``: for each of its steps ``(rows, values, trial, back)``, the
    restart of each active row, each row's value, the extrapolate event whose
    iterates the step evaluated (or None) and the rejected rows among them.
    A row's value is ``Re <W, Y>`` of the step, except where its extrapolated
    iterate's value fell below its last value: it is rejected and keeps that."""
    rows = values = trial = None
    steps = []
    for event in RecordingSide.log:
        side, kind = event[:2]
        if kind == "extrapolate":
            trial = event
        elif side is not y_side:
            continue
        elif kind == "keep":
            rows, values = rows[event[2]], values[event[2]]
        elif kind == "step":
            W, Y = event[2:4]
            now = np.einsum("rab,rab->r", W.conj(), Y).real
            rows = np.arange(len(W)) if rows is None else rows
            back = np.zeros(0, dtype=int)
            if trial is not None:
                tried = trial[2]
                back = tried[now[tried] < values[tried]]
                now[back] = values[back]
            steps.append((rows, now, trial, back))
            values, trial = now, None
    return steps


# one-cell ascents at each extrapolated input key, and one stack of them all
EXTRAPOLATED_CELLS = {
    "1-full": ([(1.0, 1.0, "full")], 2),
    "1-hermitian": ([(1.0, 1.0, "hermitian")], 2),
    "1-psd": ([(1.0, 3.0, "psd")], 2),
    "2-full": ([(2.0, 1.0, "full")], 2),
    "2-hermitian": ([(2.0, 2.0, "hermitian")], 1),
    "stacked": ([(1.0, 1.0, "full"), (1.0, 1.0, "hermitian"), (1.0, 3.0, "psd"), (2.0, 1.0, "full"),
                 (2.0, 2.0, "hermitian"), (1.5, math.inf, "full"), (1.0, math.inf, "hermitian")], 2),
}


@pytest.mark.parametrize("cells, k", list(EXTRAPOLATED_CELLS.values()), ids=list(EXTRAPOLATED_CELLS))
def test_no_row_value_ever_decreases(cells, k, monkeypatch):
    # a row whose extrapolated iterate lowers its value keeps its last value and
    # takes its plain iterate back, so each row's value never decreases from one
    # iteration to the next (up to rounding in the plain steps)
    monkeypatch.setattr(optimize, "_Side", RecordingSide)
    RecordingSide.made.clear()
    RecordingSide.log.clear()
    optimize._ascend(random_superop(3, 3, 2, 90), k, cells, OptimizerConfig(restarts=8, seed=5))
    y_side, x_side = RecordingSide.made
    steps = value_histories(y_side)
    assert any(event[1] == "extrapolate" for event in RecordingSide.log)
    assert any(len(back) for *_, back in steps)
    histories = {}
    for rows, values, _, _ in steps:
        for row, value in zip(rows, values):
            histories.setdefault(int(row), []).append(value)
    for row, values in histories.items():
        for before, after in zip(values, values[1:]):
            assert after >= before - 1e-13 * (1.0 + abs(before)), row


@pytest.mark.parametrize("cells, k", list(EXTRAPOLATED_CELLS.values()), ids=list(EXTRAPOLATED_CELLS))
def test_rejected_extrapolation_steps_from_the_plain_iterate(cells, k, monkeypatch):
    # a row whose extrapolated iterate lowers its value goes back to the plain
    # step's iterate: the kernel's next input for that row is that iterate, bit
    # for bit, its output pair is the one the rejected step started from, its
    # input pair is the plain step's again, and its factor starts over
    forwards = []
    spy_kernel = forward_spy(lambda forward, X: forwards.append((X.copy(), forward(X))) or forwards[-1][1])
    monkeypatch.setattr(optimize, "_kraus_kernel", spy_kernel)
    monkeypatch.setattr(optimize, "_Side", RecordingSide)
    RecordingSide.made.clear()
    RecordingSide.log.clear()
    optimize._ascend(random_superop(3, 3, 2, 90), k, cells, OptimizerConfig(restarts=8, seed=5))
    y_side, x_side = RecordingSide.made
    steps = iter(value_histories(y_side))

    def rank_one(side, ids):
        return np.array([side.keys[g] == (1.0, "full") for g in ids], dtype=bool)

    rejected, y_checked, x_checked = 0, 0, 0
    # the last rejected rows: (positions, plain iterates, output pairs before
    # the rejected step, plain input pairs); the same rows' positions and plain
    # input pairs until the next input step; and the last evaluated trial's
    # rows still active with the factors they must carry
    pending = x_due = factors = None
    for event in RecordingSide.log:
        side, kind = event[:2]
        if kind == "step" and side is y_side:
            if pending is not None:
                # the iteration after a rejection evaluates the plain iterates,
                # from the output pairs the rejected step started from
                at, want, y_before, x_plain = pending
                (X,) = [X for X, out in forwards if out is event[2]]
                np.testing.assert_array_equal(X[at], want)
                mine = rank_one(y_side, event[5][at])
                if mine.any():
                    np.testing.assert_array_equal(event[4][at[mine]], y_before[mine])
                    y_checked += mine.sum()
                x_due, pending = (at, x_plain), None
            _, _, trial, back = next(steps)
            if trial is not None:
                tried, plain, (_, x_plain), factor = trial[2:]
                low = np.isin(tried, back)
                grown = np.minimum(factor[tried] * optimize._EXTRAPOLATION_GROWTH, optimize._EXTRAPOLATION_CAP)
                factors = tried, np.where(low, optimize._EXTRAPOLATION_START, grown)
                if len(back):
                    y_before = None if event[4] is None else event[4][back]
                    pending = back, plain[low], y_before, None if x_plain is None else x_plain[back]
                    rejected += len(back)
        elif kind == "step" and x_due is not None:
            # and its input step starts from the plain step's input pairs
            at, x_plain = x_due
            mine = rank_one(x_side, event[5][at])
            if mine.any():
                np.testing.assert_array_equal(event[4][at[mine]], x_plain[mine])
                x_checked += mine.sum()
            x_due = None
        elif kind == "keep" and side is y_side:
            # the rejected rows stay; the others may leave the stack
            keep, order = event[2], np.cumsum(event[2]) - 1
            if pending is not None:
                assert keep[pending[0]].all()
                pending = (order[pending[0]],) + pending[1:]
            if factors is not None:
                at, want = factors
                factors = order[at[keep[at]]], want[keep[at]]
        elif kind == "extrapolate" and factors is not None:
            # a rejected row's factor starts over, an accepted one's grows
            at, want = factors
            np.testing.assert_array_equal(event[5][at], want)
            factors = None
    assert rejected > 0
    # rows with rank-one output witnesses (p = inf) were rejected too, and
    # rows with rank-one input witnesses (q = 1 without a constraint)
    assert y_checked or not any(math.isinf(p) for _, p, _ in cells)
    assert x_checked or (1.0, "full") not in [(q, c) for q, _, c in cells]


@pytest.mark.parametrize(
    "cells, k", [EXTRAPOLATED_CELLS[key] for key in EXTRAPOLATED_CELLS if key != "stacked"],
    ids=[key for key in EXTRAPOLATED_CELLS if key != "stacked"],
)
def test_one_cell_ascent_without_a_slow_row_takes_the_plain_steps(cells, k, monkeypatch):
    # with a gate no gain passes, no row qualifies: the one-cell ascent takes
    # only plain steps, bit for bit those of the loop without extrapolation
    phi, cfg = random_superop(3, 3, 2, 90), OptimizerConfig(restarts=8, seed=5)
    seen = []
    monkeypatch.setattr(optimize, "_kraus_kernel", forward_spy(lambda forward, X: seen.append(X.copy()) or forward(X)))
    monkeypatch.setattr(optimize, "_Side", RecordingSide)
    monkeypatch.setattr(optimize, "_EXTRAPOLATION_GATE", math.inf)
    RecordingSide.log.clear()
    ((X, conv),) = optimize._ascend(phi, k, cells, cfg)
    assert not any(event[1] == "extrapolate" for event in RecordingSide.log)
    monkeypatch.setattr(optimize, "_EXTRAPOLATED", frozenset())
    want, flags = gather_scatter_ascent(phi, k, cells, cfg)
    np.testing.assert_array_equal(seen[-1], want)
    assert flags.all() and conv


# a GEMM of the kernel (the transfer matrix's on these maps) can round a row's
# entries differently by where the row sits in the stack, and a last-bit
# change can move the iteration at which the row meets the objective
# tolerance; so a stacked cell agrees with the cell alone to that tolerance,
# not bit for bit.  The largest difference on this grid was 6.1e-13 with
# OpenBLAS's default kernel on an AVX-512 Xeon (SkylakeX), 1.7e-12 with its
# Haswell kernel, 2.8e-12 with Sandybridge and 1.1e-11 with Prescott
STACKED_REL = 5e-11


def test_stacked_estimates_match_one_cell_estimates():
    # every cell of a stacked ascent is the ascent of that cell alone: the same
    # value and the same convergence flag, over the whole exponent grid
    # (rank-one groups included), all three constraints and ancillas 0 and 2
    grid = [(q, p) for q in EXPONENTS + [3.0] for p in EXPONENTS + [3.0]]
    cfg = OptimizerConfig(restarts=6, seed=12)
    for k in (0, 2):
        phi = random_superop(2, 3, 2, 70 + k)
        queries = [NormQuery(q, p, herm, k) for herm in (False, True) for q, p in grid]
        for reduce in (True, False):
            stacked = optimize._norms(phi, queries, cfg, reduce)
            for query, est in zip(queries, stacked):
                alone = optimize._norms(phi, [query], cfg, reduce)[0]
                assert est.value == pytest.approx(alone.value, rel=STACKED_REL, abs=0.0), (query, reduce)
                assert est.converged == alone.converged, (query, reduce)
                assert est.achiever.shape == alone.achiever.shape
        cp = random_cp_channel(3, 2, 2, 72 + k)
        psd = [NormQuery(q, p, False, k) for q, p in grid]
        jobs = [(query, "psd", k) for query in psd]
        for query, est in zip(psd, optimize._estimate(cp, jobs, cfg)):
            alone = cp_norm(cp, query, cfg)
            assert est.value == pytest.approx(alone.value, rel=STACKED_REL, abs=0.0), query
            assert est.converged == alone.converged, query


def test_norm_q_to_p_answers_a_list_of_queries(quick_cfg):
    # a sequence of queries comes back as the list of estimates _norms gives;
    # a one-query list runs the one-cell ascent, and an empty one asks nothing
    phi = random_superop(2, 3, 2, 73)
    queries = [NormQuery(1.0, 2.0), NormQuery(2.0, math.inf, True), NormQuery(1.5, 3.0, False, 2)]
    got = norm_q_to_p(phi, tuple(queries), quick_cfg)
    assert [est.value for est in got] == [est.value for est in optimize._norms(phi, queries, quick_cfg)]
    for query in queries:
        (alone,) = norm_q_to_p(phi, [query], quick_cfg)
        assert alone.value == norm_q_to_p(phi, query, quick_cfg).value
    assert norm_q_to_p(phi, [], quick_cfg) == []


def test_cp_norm_answers_a_list_of_queries():
    # a sequence of queries runs one stacked PSD ascent per ancilla: each
    # estimate agrees with the query asked alone to the stacking bound, a
    # one-query list is the one-cell ascent, and a map that is not CP is
    # refused before any ascent
    cp, cfg = random_cp_channel(2, 3, 2, 74), OptimizerConfig(restarts=6, seed=12)
    queries = [NormQuery(q, p, h, k) for k in (0, 2) for h in (False, True) for q, p in
               [(1.0, 1.0), (1.5, 3.0), (2.0, 2.0), (math.inf, 1.5), (3.0, math.inf)]]
    got = cp_norm(cp, tuple(queries), cfg)
    assert len(got) == len(queries)
    for query, est in zip(queries, got):
        alone = cp_norm(cp, query, cfg)
        assert est.value == pytest.approx(alone.value, rel=STACKED_REL, abs=0.0), query
        assert est.converged == alone.converged, query
        assert est.achiever.shape == alone.achiever.shape
        (single,) = cp_norm(cp, [query], cfg)
        assert single.value == alone.value
    assert cp_norm(cp, [], cfg) == []
    with pytest.raises(PreconditionError):
        cp_norm(build_example("transpose(2)"), queries[:3], cfg)


def test_one_cell_ascent_gathers_nothing(monkeypatch):
    # a single cell's ascent is the whole stack as one group on each side: each
    # half-step hands the kernel's own output, as a view and not a gathered
    # copy, to its decomposition or its _witness call, and the output side
    # returns its witness as it is, as the adjoint kernel call's input
    events = []  # ("kernel", input, output), ("take", input), ("make", output)
    kernel = optimize._kraus_kernel

    def spy_kernel(left, right, k=1, rows=1):
        def spied(act):
            def run(X):
                events.append(("kernel", X, act(X)))
                return events[-1][2]

            return run

        return spied(kernel(left, right, k, rows))

    def spy(name, take, make):
        real = getattr(optimize, name)

        def run(*args, **kwargs):
            if take:
                events.append(("take", args[0]))
            out = real(*args, **kwargs)
            if make:
                events.append(("make", out[1] if name == "_witness" else out))
            return out

        monkeypatch.setattr(optimize, name, run)

    monkeypatch.setattr(optimize, "_kraus_kernel", spy_kernel)
    for name, take, make in [("_witness", True, True), ("_batched_svd", True, False),
                             ("_hermitian_part", True, False), ("_rebuild", False, True)]:
        spy(name, take, make)
    cfg = OptimizerConfig(restarts=5, seed=3)
    phi, cp = random_superop(3, 2, 2, 71), random_cp_channel(2, 2, 2, 72)
    for ask in (
        lambda: norm_q_to_p(phi, NormQuery(1.5, 3.0), cfg),
        lambda: norm_q_to_p(phi, NormQuery(1.0, math.inf), cfg),
        lambda: norm_q_to_p(phi, NormQuery(1.0, 2.0, True, 2), cfg),
        lambda: norm_q_to_p(phi, NormQuery(2.0, 1.5, True), cfg),
        lambda: cp_norm(cp, NormQuery(2.0, 3.0), cfg),
    ):
        events.clear()
        ask()
        kernels = [i for i, event in enumerate(events) if event[0] == "kernel"]
        # forward and adjoint calls alternate, then the final re-evaluation's
        assert len(kernels) % 2 == 1 and len(kernels) > 4
        for n, i in enumerate(kernels[:-1]):
            (_, _, out), (kind, M) = events[i], events[i + 1]
            assert kind == "take" and M.shape == out.shape and np.shares_memory(M, out)
            if n % 2:
                made = [event[1] for event in events[:i] if event[0] == "make"]
                assert events[i][1] is made[-1]


def test_results_are_deterministic(quick_cfg):
    phi = random_superop(2, 2, 2, 35)
    query = NormQuery(2.0, math.inf, True)
    a = norm_q_to_p(phi, query, quick_cfg)
    b = norm_q_to_p(phi, query, quick_cfg)
    assert a.value == b.value
    assert np.array_equal(a.achiever, b.achiever)
    assert a.converged == b.converged
    other = norm_q_to_p(phi, query, OptimizerConfig(restarts=12, seed=8))
    assert other.value == pytest.approx(a.value, abs=1e-8)


def test_zero_map(quick_cfg):
    zero = SuperOp.from_kraus(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)) + 0.0)
    queries = (NormQuery(1.0, 1.0), NormQuery(1.0, math.inf), NormQuery(2.0, 2.0), NormQuery(2.0, 2.0, True))
    for query in queries:
        with np.errstate(all="raise"):
            est = norm_q_to_p(zero, query, quick_cfg)
        assert est.value == 0.0
        assert est.converged


def one_key_witness(Z, key):
    """The half-step of a one-key side at witness key ``key`` on the stack ``Z``."""
    return optimize._Side([key], len(Z))(Z, None)[0]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_ball_witness_at_q2_matches_the_decompositions(d):
    rng = np.random.default_rng(300 + d)
    Z = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    Z[3] = 0.0
    U, s, Vh = np.linalg.svd(Z)
    full = (U * holder_weights(s, 2.0)[..., None, :]) @ Vh
    lam, V = np.linalg.eigh((Z + Z.conj().transpose(0, 2, 1)) / 2.0)
    Vd = V.conj().transpose(0, 2, 1)
    herm = (V * holder_weights(lam, 2.0)[..., None, :]) @ Vd
    assert np.allclose(one_key_witness(Z, (2.0, "full")), full, rtol=0.0, atol=1e-12)
    assert np.allclose(one_key_witness(Z, (2.0, "hermitian")), herm, rtol=0.0, atol=1e-12)
    for constraint in ("full", "hermitian"):
        assert not one_key_witness(Z, (2.0, constraint))[3].any()
    # psd keeps the clamped spectrum; an all-zero slice falls back to a unit projector
    psd = one_key_witness(Z, (2.0, "psd"))
    clamped = (V * holder_weights(np.maximum(lam, 0.0), 2.0)[..., None, :]) @ Vd
    live = [0, 1, 2, 4]
    assert np.allclose(psd[live], clamped[live], rtol=0.0, atol=1e-12)
    assert np.allclose(psd[3], psd[3] @ psd[3], atol=1e-12)
    assert np.trace(psd[3]).real == pytest.approx(1.0, abs=1e-12)


def _two_by_two_stacks(n: int = 64) -> dict:
    """Stacks of ``n`` 2x2 slices of each kind the closed-form kernels must take."""
    rng = np.random.default_rng(311)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    Q, W = np.linalg.qr(cplx(n, 2, 2))[0], np.linalg.qr(cplx(n, 2, 2))[0]
    lam = rng.uniform(0.1, 10.0, n)[:, None, None]
    spaced = np.array([1.0, 1.0 + 1e-9])
    diagonal = np.zeros((n, 2, 2), dtype=np.complex128)
    diagonal[:, 0, 0], diagonal[:, 1, 1] = cplx(n), cplx(n)
    triangular = cplx(n, 2, 2)
    triangular[:, 1, 0] = 0.0
    # an off-diagonal entry far above the diagonal ones takes dlasv2's own branch
    dominant = triangular * [[1e-17, 1.0], [0.0, 1e-18]]
    # +-lam: diag(lam, -lam) and [[0, lam e], [lam e*, 0]]
    ties = np.zeros((n, 2, 2), dtype=np.complex128)
    ties[::2] = np.diag([1.0, -1.0]) * lam[::2]
    e = np.exp(2j * math.pi * rng.uniform(size=n // 2))[:, None, None]
    ties[1::2] = lam[1::2] * (e * [[0, 1], [0, 0]] + e.conj() * [[0, 0], [1, 0]])
    return {
        "random": cplx(n, 2, 2),
        "rank one": np.einsum("na,nb->nab", cplx(n, 2), cplx(n, 2).conj()),
        "zero": np.zeros((n, 2, 2), dtype=np.complex128),
        "tiny": 1e-16 * cplx(n, 2, 2),
        "huge": 1e200 * cplx(n, 2, 2),
        "minute": 1e-200 * cplx(n, 2, 2),
        "equal singular values": lam * Q,
        "equal eigenvalues": lam * np.eye(2),
        "spaced singular values": lam * (Q * spaced) @ W,
        "spaced eigenvalues": lam * (Q * spaced) @ Q.conj().transpose(0, 2, 1),
        "diagonal": diagonal,
        "triangular": triangular,
        "g dominant": dominant,
        "ties": ties,
    }


# the stacks on which each witness is unique, so that the closed form must
# reproduce LAPACK's, tie rule included; the others are checked for attainment
# and feasibility only
_UNIQUE_WITNESS = ("random", "tiny", "huge", "minute", "diagonal", "triangular", "ties")


@pytest.mark.parametrize("constraint", ["full", "hermitian", "psd"])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_closed_form_witness_matches_lapack(r, constraint, monkeypatch):
    # each witness the ascent takes on 2x2 slices, from the closed forms and
    # from LAPACK: it attains ||Z||_{r*} (over the constraint's set) and lies
    # in the unit r-ball, to 1e-13 relative; where it is unique the two agree
    # to 1e-12, and on +-lam ties both pick the first (negative) eigenvalue.
    # The closed forms must raise no floating-point warning on any slice.  The
    # exponent-2 keys outside the PSD cone take no decomposition: they divide
    # by a plain row norm, which on the ascent's unit-scale maps cannot
    # overflow, so they skip the huge and minute stacks
    key, rs = (r, constraint), dual_exponent(r)
    plain = optimize._decomposition(key) is None and key != (1.0, "full")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, Z in _two_by_two_stacks().items():
            if plain and name in ("huge", "minute"):
                continue
            monkeypatch.setattr(linalg, "_CLOSED_FORM_ROWS", 1)
            got = one_key_witness(Z, key)
            s, lam = linalg._svd_2x2(Z, compute_uv=False), linalg._eigh_2x2(Z)[0]
            monkeypatch.setattr(linalg, "_CLOSED_FORM_ROWS", 10**9)
            want = one_key_witness(Z, key)
            sv = np.linalg.svd(Z, compute_uv=False)
            H = Z if constraint == "full" else (Z + Z.conj().transpose(0, 2, 1)) / 2.0
            if constraint == "full":
                best = pnorm(sv, rs)
            else:
                spectrum = np.linalg.eigvalsh(H)
                top = spectrum[:, -1]
                if constraint == "psd":
                    spectrum = np.maximum(spectrum, 0.0)
                best = pnorm(spectrum, rs)
                if constraint == "psd":
                    # nothing positive: the top eigendirection
                    best = np.where(top > 0.0, best, top)
            attained = np.einsum("nab,nab->n", H.conj(), got).real
            assert np.all(np.abs(attained - best) <= 1e-13 * sv[:, 0]), name
            np.testing.assert_array_less(pnorm(np.linalg.svd(got, compute_uv=False), r), 1.0 + 1e-13, err_msg=name)
            if constraint != "full":
                np.testing.assert_allclose(got, got.conj().transpose(0, 2, 1), rtol=0.0, atol=1e-15, err_msg=name)
            if name in _UNIQUE_WITNESS and not (name == "ties" and key == (1.0, "full")):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=name)
            # LAPACK's order: singular values descending, eigenvalues ascending
            assert np.all(s[:, 0] >= s[:, 1]) and np.all(lam[:, 0] <= lam[:, 1]), name
    lam = linalg._eigh_2x2(_two_by_two_stacks()["ties"])[0]
    np.testing.assert_array_equal(lam[:, 0], -lam[:, 1])
    assert np.all(lam[:, 0] < 0.0)


def _spy_decompositions(monkeypatch) -> list:
    """Record ``(name, shape)`` of every ``np.linalg.svd``/``eigh`` call."""
    calls = []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, real=real, name=name, **kwargs):
            calls.append((name, np.shape(a)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


# a side with a group of every kind: three merged SVD groups, the rank-one
# trace ball, exponent 2 outside the PSD cone, and merged eigh groups on the
# Hermitian and PSD balls
_EVERY_KIND = [(1.5, "full"), (3.0, "full"), (math.inf, "full"), (1.0, "full"), (2.0, "full"),
               (1.5, "hermitian"), (1.0, "hermitian"), (2.0, "hermitian"), (math.inf, "hermitian"),
               (2.0, "psd"), (1.0, "psd"), (3.0, "psd")]


def reference_witness(Z, key, pair=None):
    """The half-step at witness key ``key`` on the stack ``Z``, from
    ``np.linalg.svd``/``eigh`` and ``holder_weights``: the Hoelder-weighted
    singular triplets (``full``) or eigensystems of the Hermitian parts
    (``hermitian``; ``psd`` clamps the spectrum at zero, and a slice with
    nothing positive takes its top eigendirection).  Given the rank-one pairs
    ``pair`` of the unit trace-norm ball, the power step from them instead:
    ``v* = u* Z / |u* Z|``, ``u' = Z v / |Z v|``, and the witness ``u' v*``."""
    q, constraint = key
    if pair is not None:
        vh = np.einsum("ra,rab->rb", pair[:, 0].conj(), Z)
        vh /= np.linalg.norm(vh, axis=1)[:, None]
        u = np.einsum("rab,rb->ra", Z, vh.conj())
        u /= np.linalg.norm(u, axis=1)[:, None]
        return u[:, :, None] * vh[:, None, :]
    if constraint == "full":
        U, s, Vh = np.linalg.svd(Z)
        return (U * holder_weights(s, q)[..., None, :]) @ Vh
    lam, V = np.linalg.eigh((Z + Z.conj().transpose(0, 2, 1)) / 2.0)
    if constraint == "psd":
        lam = np.maximum(lam, 0.0)
        lam[lam[:, -1] <= 0.0, -1] = 1.0
    return (V * holder_weights(lam, q)[..., None, :]) @ V.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("d", [2, 3])
def test_merged_side_decomposes_each_kind_once_per_step(d, monkeypatch):
    # with several keys a side takes one _batched_svd over its full rows and
    # one _batched_eigh over its Hermitian and PSD rows per step, besides the
    # rank-one group's own SVD on the first step, and each row's witness is
    # the reference's on that row's key to 1e-12.  At d = 2 every SVD or eigh
    # group is under the closed-form cutoff on its own, and the merged stacks
    # reach it
    restarts = 24
    assert restarts < linalg._CLOSED_FORM_ROWS <= 3 * restarts
    calls = []
    for name in ("_batched_svd", "_batched_eigh"):
        real = getattr(optimize, name)

        def spy(Z, *args, real=real, name=name, **kwargs):
            calls.append((name, len(Z)))
            return real(Z, *args, **kwargs)

        monkeypatch.setattr(optimize, name, spy)
    # the groups of the merged SVD, the rank-one group, and the merged eigh groups
    svd, trace, eigh = [0, 1, 2], 3, [5, 6, 8, 9, 10, 11]
    assert _EVERY_KIND[trace] == (1.0, "full")
    rng = np.random.default_rng(313 + d)
    side, pairs = optimize._Side(_EVERY_KIND, restarts), None
    ids = np.repeat(np.arange(len(_EVERY_KIND)), restarts)
    for step in range(5):
        M = rng.standard_normal((len(ids), d, d)) + 1j * rng.standard_normal((len(ids), d, d))
        before = pairs
        calls.clear()
        out, pairs = side(M, pairs)
        merged = [("_batched_svd", np.isin(ids, svd).sum()), ("_batched_eigh", np.isin(ids, eigh).sum())]
        first = [("_batched_svd", np.sum(ids == trace))] if step == 0 else []
        assert sorted(calls) == sorted(merged + first), step
        if d == 2 and step < 2:
            assert all(rows >= linalg._CLOSED_FORM_ROWS for _, rows in merged)
        for g, key in enumerate(_EVERY_KIND):
            rows = np.flatnonzero(ids == g)
            if rows.size:
                want = reference_witness(M[rows], key, None if before is None or g != trace else before[rows])
                np.testing.assert_allclose(out[rows], want, rtol=0.0, atol=1e-12, err_msg=f"{key} {step}")
        # drop rows after every step but the first, all of one group's after the third
        keep = rng.uniform(size=len(ids)) < (0.8 if step else 1.0)
        if step == 2:
            keep[ids == 1] = False
        side.keep(keep)
        ids, pairs = ids[keep], pairs[keep]
    # one pair per active row, and the rank-one rows' pairs are their witnesses' factors
    assert pairs is not None and len(pairs) == len(ids)
    rows = ids == trace
    np.testing.assert_array_equal(out[keep][rows], pairs[rows, 0, :, None] * pairs[rows, 1, None, :])


def test_rank_one_first_step_is_unit_on_zero_slices():
    # the first step on the unit trace-norm ball is the top singular pair u v*,
    # of unit norm also on a zero slice, beside other keys as alone
    rng = np.random.default_rng(320)
    restarts, d = 4, 3
    M = rng.standard_normal((2 * restarts, d, d)) + 1j * rng.standard_normal((2 * restarts, d, d))
    M[1] = 0.0
    got = optimize._Side([(1.0, "full"), (1.5, "full")], restarts)(M, None)[0]
    np.testing.assert_array_equal(got[:restarts], one_key_witness(M[:restarts], (1.0, "full")))
    assert np.linalg.norm(got[1]) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.svd(got[1], compute_uv=False)[1] == pytest.approx(0.0, abs=1e-15)


def test_half_steps_never_write_into_the_pairs_they_are_given():
    # the rank-one pairs are values: a one-key output side at p = inf, a side
    # with a (1, "full") group among others, their extrapolation, and
    # _witness's power step return new pairs and leave the given ones as they
    # were, bit for bit
    rng = np.random.default_rng(321)
    restarts, d = 6, 3

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    keys = [(1.5, "full"), (1.0, "full"), (2.0, "hermitian"), (1.0, "hermitian")]
    for side in (optimize._Side([(dual_exponent(math.inf), "full")], restarts), optimize._Side(keys, restarts)):
        X, pairs = side(cplx(len(side.ids), d, d), None)
        for _ in range(3):
            given = pairs.copy()
            old, (X, out) = X, side(cplx(len(side.ids), d, d), pairs)
            np.testing.assert_array_equal(pairs, given)
            assert not np.shares_memory(out, pairs)
            previous, pairs = pairs, out
        # the last step's rows at q = 1 extrapolated from the pairs before and after it
        rows = np.flatnonzero([side.keys[g][0] == 1.0 for g in side.ids])
        given = previous.copy(), pairs.copy()
        out = side.extrapolate(old, X, rows, (previous, pairs), np.full(len(X), 0.5))
        np.testing.assert_array_equal(previous, given[0])
        np.testing.assert_array_equal(pairs, given[1])
        assert not np.shares_memory(out, pairs)
    M = cplx(restarts, d, d)
    pair = optimize._witness(cplx(restarts, d, d), (1.0, "full"), None)[0]
    given = pair.copy()
    out = optimize._witness(M, (1.0, "full"), pair)[0]
    np.testing.assert_array_equal(pair, given)
    assert not np.array_equal(out, given)


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_huge_maps_keep_their_rank_one_norms(scale):
    # the rank-one power step's plain row norms would overflow on maps whose
    # entries pass about 1e154; the ascent runs on unit-scale Kraus stacks, so
    # the 1->1 and 1->inf norms of a scaled map are the scale times the map's
    phi, cfg = random_superop(2, 2, 2, 5), OptimizerConfig(restarts=4)
    huge = SuperOp.from_kraus(scale * phi.kraus_left, phi.kraus_right)
    for p in (1.0, math.inf):
        want = norm_q_to_p(phi, NormQuery(1.0, p), cfg).value
        got = norm_q_to_p(huge, NormQuery(1.0, p), cfg).value
        assert got == pytest.approx(scale * want, rel=1e-9, abs=0.0), p


# 2^j for these j scales a map exactly, with no entry, product or singular value
# of the re-evaluation leaving LAPACK's unscaled range
HOMOGENEITY_POWERS = (-400, -282, -100, 100, 282, 400)


def _scaled(phi, c, cp):
    """``c Phi``: the left stack times c, or each stack times sqrt(c) for ``cp``."""
    if cp:
        return SuperOp.from_kraus(math.sqrt(c) * phi.kraus_left)
    return SuperOp.from_kraus(c * phi.kraus_left, phi.kraus_right)


@pytest.mark.parametrize(
    "phi, cp",
    [(random_superop(2, 2, 2, 5), False), (build_example("transpose(2)"), False),
     (random_cp_channel(2, 2, 3, 7), True)],
    ids=["random", "transpose", "cp"],
)
def test_scaled_maps_run_the_same_ascent(phi, cp):
    # the ascent runs on unit-scale Kraus stacks, so 2^j Phi takes the very
    # iterates Phi takes and its value is 2^j times Phi's, bit for bit; any
    # other scale rounds the stacks, and its values agree to 1e-10 relative.
    # Hermitian p = 1 cells converge slowly and stop about 2.5e-9 below their
    # limit, where a last-bit change of the stacks moves the stopping point by
    # up to 4.5e-10 (also between the scales 3 and 0.7), so they get 1e-9.
    # Plain, Hermitian and ancilla queries, reduced ones among them (q <= 2 <= p
    # with an ancilla runs on none, q = 1 with k = 3 runs on k = 2), or PSD
    # cells through cp_norm
    cfg = OptimizerConfig(restarts=4)
    if cp:
        queries = [NormQuery(q, p, stabilize_dim=k) for q in EXPONENTS for p, k in ((3.0, 0), (1.0, 2))]
        run = cp_norm
    else:
        queries = [
            NormQuery(q, p, herm, k)
            for q in EXPONENTS
            for p, herm, k in ((3.0, False, 0), (1.0, True, 0), (math.inf, False, 2), (1.0, True, 3))
        ]
        run = norm_q_to_p
    want = np.array([est.value for est in run(phi, queries, cfg)])
    for j in HOMOGENEITY_POWERS:
        got = [est.value for est in run(_scaled(phi, 2.0**j, cp), queries, cfg)]
        np.testing.assert_array_equal(got, 2.0**j * want, err_msg=str(j))
    rtol = np.array([1e-9 if query.hermitian_restricted and query.p == 1.0 else 1e-10 for query in queries])
    for c in (1e-85, 1e155, 1e200):
        got = np.array([est.value for est in run(_scaled(phi, c, cp), queries, cfg)])
        assert np.all(np.abs(got - c * want) <= rtol * c * want), (c, got / (c * want) - 1.0)


def test_long_two_by_two_stacks_take_no_lapack_call(monkeypatch):
    # a theorem1 trial on a 2 -> 2 map stacks 50 cells of 32 restarts: no 2x2
    # stack of at least the cutoff reaches LAPACK, while shorter stacks and
    # the achievers' re-evaluations still do
    calls = _spy_decompositions(monkeypatch)
    verify_module = importlib.import_module("supernorms.verify")
    phi = random_cp_channel(2, 2, 2, 5)
    assert all(r < 2e-3 for r, _ in verify_module._theorem1_cases(phi, OptimizerConfig(seed=5)))
    shapes = [shape for _, shape in calls]
    assert not [s for s in shapes if s[1:] == (2, 2) and s[0] >= linalg._CLOSED_FORM_ROWS]
    assert (2, 2) in shapes and any(s[1:] == (2, 2) for s in shapes)


@pytest.mark.parametrize(
    "query", [NormQuery(1.5, 3.0), NormQuery(3.0, 1.0, True), NormQuery(1.0, math.inf), NormQuery(1.5, 1.5)]
)
def test_default_queries_keep_their_lapack_calls(query, monkeypatch):
    # a one-cell ascent at the default 32 restarts is under the cutoff: it makes
    # the same LAPACK calls, and gets the same bits, as with no closed form
    assert OptimizerConfig().restarts < linalg._CLOSED_FORM_ROWS
    phi = random_superop(2, 2, 2, 81)
    runs = []
    for rows in (linalg._CLOSED_FORM_ROWS, 10**9):
        monkeypatch.setattr(linalg, "_CLOSED_FORM_ROWS", rows)
        with monkeypatch.context() as m:
            calls = _spy_decompositions(m)
            runs.append((calls, norm_q_to_p(phi, query)))
    (calls, est), (lapack_calls, lapack_est) = runs
    assert calls == lapack_calls and len(calls) > 2
    assert est.value == lapack_est.value and est.converged == lapack_est.converged
    np.testing.assert_array_equal(est.achiever, lapack_est.achiever)


@pytest.mark.parametrize("k", [0, 2])
def test_two_to_two_norm_is_the_top_singular_value_of_the_realigned_choi(k, quick_cfg):
    # ||Phi (x) I_k||_{2->2} = ||Phi||_{2->2}: the operator norm of the map acting on
    # row-major vectorized matrices, i.e. of the realigned Choi matrix
    shapes = [(2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 2)]
    for i in range(12):
        n, m, t = shapes[i % 4]
        phi = random_superop(n, m, t, 600 + i)
        realigned = choi_matrix(phi).reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
        exact = np.linalg.svd(realigned, compute_uv=False)[0]
        got = norm_q_to_p(phi, NormQuery(2.0, 2.0, False, k), quick_cfg).value
        assert got == pytest.approx(exact, rel=1e-8)


def test_cp_one_to_one_norm_is_the_adjoint_on_the_identity(quick_cfg):
    # for CP maps ||Phi (x) I_k||_{1->1} = ||Phi^*(I)||_inf for every k, with or
    # without the Hermitian restriction (Theorem 1); the maps need not preserve trace
    rng = np.random.default_rng(700)
    for i, (n, m) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3)] * 2):
        kraus = rng.standard_normal((2 + i % 2, m, n)) + 1j * rng.standard_normal((2 + i % 2, m, n))
        phi = SuperOp.from_kraus(kraus)
        exact = schatten_norm(adjoint_apply(phi, np.eye(m)), math.inf)
        for route, query in [
            (norm_q_to_p, NormQuery(1.0, 1.0)),
            (norm_q_to_p, NormQuery(1.0, 1.0, hermitian_restricted=True)),
            (norm_q_to_p, NormQuery(1.0, 1.0, stabilize_dim=2)),
            (cp_norm, NormQuery(1.0, 1.0)),
        ]:
            assert route(phi, query, quick_cfg).value == pytest.approx(exact, rel=1e-9), (i, query)


def test_oversized_stack_is_refused_before_any_allocation(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the ascent started")

    monkeypatch.setattr("supernorms.optimize._ascend", never)
    phi = random_superop(2, 2, 2, 47)
    with pytest.raises(UnsupportedInstanceError, match="stabilize_dim 100000"):
        norm_q_to_p(phi, NormQuery(1.0, 1.0, False, 100000))
    with pytest.raises(UnsupportedInstanceError):
        cp_norm(random_cp_channel(2, 2, 2, 48), NormQuery(1.0, 1.0, False, 5000))
    # its 32 x 144^2 iterates fit, but the Kraus kernel's term-expanded
    # product of the 144 terms holds 144 times as many entries
    with pytest.raises(UnsupportedInstanceError, match="stabilize_dim 12 on a 12->12 map"):
        stabilized_norm(build_example("transpose(12)"), 1.0)


def test_ancilla_never_hurts(quick_cfg):
    phi = random_superop(2, 2, 2, 36)
    base = norm_1_to_p(phi, 1.0, config=quick_cfg).value
    prev = base
    for k in (2, 3):
        cur = norm_q_to_p(phi, NormQuery(1.0, 1.0, False, k), quick_cfg).value
        assert cur >= prev - 2e-3
        prev = cur


def test_factorization_bound_holds(quick_cfg):
    phi = random_superop(2, 2, 2, 37)
    lhs, rhs = factorization_bound(phi, NormQuery(1.5, 2.0), quick_cfg)
    assert lhs <= rhs + 2e-3


def test_factorization_bound_runs_its_cp_sides_on_at_most_dim_in(monkeypatch):
    # the CP sides run PSD cells; at q = 1 on an ancilla of dim_in (Theorem 3
    # on the PSD cone), which gives the value of the query's own ancilla
    runs = []
    ascend = optimize._ascend

    def spy(phi, k, cells, cfg):
        runs.append((k, sorted({c for _, _, c in cells})))
        return ascend(phi, k, cells, cfg)

    monkeypatch.setattr(optimize, "_ascend", spy)
    phi, cfg = random_superop(2, 2, 2, 37), OptimizerConfig(restarts=8, seed=3)
    for q, k in ((1.0, 4), (1.5, 3)):
        runs.clear()
        query = NormQuery(q, 1.0, False, k)
        lhs, rhs = factorization_bound(phi, query, cfg)
        assert [k for k, constraints in runs if constraints == ["psd"]] == [min(k, 2) if q == 1.0 else k] * 2
        own = [optimize._estimate(side(phi), [(query, "psd", k)], cfg)[0].value for side in (left_cp_map, right_cp_map)]
        assert rhs == pytest.approx(math.sqrt(own[0] * own[1]), rel=1e-8)
        assert lhs <= rhs + 2e-3


def test_half_steps_take_no_spectrum_checks(monkeypatch):
    # the public pnorm and holder_weights check their input; the half-steps
    # take the unchecked forms, so the checks run as often at 1 iteration as
    # at 60, on every witness route (SVD, eigh, PSD, rank one, exponent 2)
    checks = []
    check = schatten._real_spectrum
    monkeypatch.setattr(schatten, "_real_spectrum", lambda *args: checks.append(1) or check(*args))
    phi, cp = random_superop(2, 3, 2, 44), random_cp_channel(2, 2, 2, 45)
    queries = [NormQuery(q, p, herm) for herm in (False, True) for q, p in ((1.5, 3.0), (1.0, math.inf), (2.0, 2.0))]
    counts = []
    for iterations in (1, 60):
        cfg = OptimizerConfig(restarts=4, max_iterations=iterations)
        checks.clear()
        norm_q_to_p(phi, queries, cfg)
        cp_norm(cp, queries[:3], cfg)
        counts.append(len(checks))
    assert counts[0] == counts[1]


def _runtime_imports(module) -> dict:
    """The names each ``from`` import of a package module takes at run time,
    by the package module it names; ``if TYPE_CHECKING:`` blocks are skipped."""
    tree = ast.parse(Path(module.__file__).read_text())
    typing_only = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING"
        for node in ast.walk(stmt)
    }
    taken = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and id(node) not in typing_only:
            name = node.module or ""
            if node.level == 0 and name.startswith("supernorms."):
                name = name[len("supernorms."):]
            elif node.level != 1:
                continue
            taken.setdefault(name, set()).update(alias.name for alias in node.names)
    return taken


def test_the_oracle_and_the_ascent_share_one_binding():
    assert not {"optimize", "explore"} & set(_runtime_imports(oracle))
    taken = _runtime_imports(optimize)
    assert taken["oracle"] == {"brute_force_oracle"} and "explore" not in taken
    # the benchmark calls and traces the oracle as supernorms.optimize.brute_force_oracle
    assert optimize.brute_force_oracle is oracle.brute_force_oracle


def test_oracle_brackets_optimizer(quick_cfg):
    phi = random_superop(2, 2, 2, 38)
    query = NormQuery(2.0, 2.0, True)
    est = norm_q_to_p(phi, query, quick_cfg).value
    v = brute_force_oracle(phi, query, 60)
    assert v <= est + 1e-3
    assert est <= v + 5e-2


def test_norm_wrapper_routes_match(quick_cfg):
    phi = random_superop(2, 2, 2, 43)
    assert (
        norm_1_to_p(phi, 2.0, config=quick_cfg).value
        == norm_q_to_p(phi, NormQuery(1.0, 2.0), quick_cfg).value
    )


def test_pnorm_reexport_smoke():
    assert pnorm([3.0, 4.0], 2.0) == pytest.approx(5.0)
