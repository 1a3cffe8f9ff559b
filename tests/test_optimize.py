import math

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
    explore_open_question,
    factorization_bound,
    holder_weights,
    identity_superop,
    is_hermitian,
    norm_1_to_p,
    norm_q_to_p,
    pnorm,
    random_cp_channel,
    random_superop,
    random_unitary,
    schatten_norm,
    stabilized_norm,
    tensor_identity,
)
from supernorms import optimize
from supernorms.optimize import _ball_witness
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
    # iteration's two SVDs every half-step is a power step, and the only other
    # SVDs are the singular values of the final re-evaluation
    phi, query = random_superop(3, 3, 2, 50), NormQuery(1.0, math.inf)
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    values = []
    for iterations in (1, 25):
        calls.clear()
        values.append(norm_q_to_p(phi, query, OptimizerConfig(max_iterations=iterations)).value)
        assert calls[:2] == [True, True]
        assert not any(calls[2:])
    assert values[1] > values[0]


@pytest.mark.parametrize(
    "q, constraint",
    [(1.5, "full"), (3.0, "hermitian"), (1.5, "psd"), (math.inf, "full"), (2.0, "hermitian")],
)
def test_random_starts_match_a_per_restart_reference(q, constraint):
    cfg = OptimizerConfig(restarts=9, seed=5)
    starts = optimize._start_stack(3, 2, q, constraint, cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    for r in range(3, cfg.restarts):  # after the three deterministic hints
        rng = np.random.default_rng(streams[r])
        G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        if constraint == "hermitian":
            G = (G + G.conj().T) / 2.0
        elif constraint == "psd":
            G = G.conj().T @ G
        np.testing.assert_array_equal(starts[r], G / schatten_norm(G, q))


@pytest.mark.parametrize("q", EXPONENTS)
@pytest.mark.parametrize("constraint", ["full", "hermitian", "psd"])
def test_memoized_start_stacks_give_bit_identical_estimates(q, constraint):
    phi = random_cp_channel(2, 2, 2, 61) if constraint == "psd" else random_superop(2, 2, 2, 61)
    cfg = OptimizerConfig(restarts=8, seed=11)
    for k in (0, 2):
        query = NormQuery(q, 3.0, constraint == "hermitian", k)
        route = cp_norm if constraint == "psd" else norm_q_to_p
        optimize._memo_start_stack.cache_clear()
        cold = route(phi, query, cfg)
        hits = optimize._memo_start_stack.cache_info().hits
        warm = route(phi, query, cfg)
        assert optimize._memo_start_stack.cache_info().hits == hits + 1
        assert warm.value == cold.value and warm.converged == cold.converged
        np.testing.assert_array_equal(warm.achiever, cold.achiever)


def test_memoized_stack_is_read_only_and_outlives_a_capped_ascent():
    # the ascent writes its rows into the start stack it gets, so it must get a
    # copy: the memoized stack is the same after an ascent stopped by the cap
    optimize._memo_start_stack.cache_clear()
    phi, cfg = random_superop(3, 2, 3, 60), OptimizerConfig(restarts=7, max_iterations=3, seed=4)
    optimize._ascend(phi, 2, [(1.5, 3.0, "full")], cfg)
    memo = optimize._memo_start_stack(3, 2, 1.5, "full", 7, 4)
    assert optimize._memo_start_stack.cache_info().hits == 1
    assert not memo.flags.writeable
    with pytest.raises(ValueError):
        memo[0, 0, 0] = 0.0
    np.testing.assert_array_equal(memo, optimize._build_start_stack(3, 2, 1.5, "full", 7, 4))
    assert optimize._start_stack(3, 2, 1.5, "full", cfg).flags.writeable


def test_every_key_field_changes_the_start_stack():
    base = dict(base=3, anc=2, q=1.5, constraint="full")
    cfg = OptimizerConfig(restarts=9, seed=5)
    reference = optimize._start_stack(**base, cfg=cfg)
    # max_iterations is not part of the key: the same stack, from the memo
    hits = optimize._memo_start_stack.cache_info().hits
    capped = OptimizerConfig(restarts=9, max_iterations=7, seed=5)
    np.testing.assert_array_equal(optimize._start_stack(**base, cfg=capped), reference)
    assert optimize._memo_start_stack.cache_info().hits == hits + 1
    for field, value in [("base", 2), ("anc", 3), ("q", 3.0), ("constraint", "hermitian")]:
        other = optimize._start_stack(**{**base, field: value}, cfg=cfg)
        assert not np.array_equal(other, reference), field
    for other_cfg in (OptimizerConfig(restarts=10, seed=5), OptimizerConfig(restarts=9, seed=6)):
        assert not np.array_equal(optimize._start_stack(**base, cfg=other_cfg), reference), other_cfg


@pytest.mark.parametrize("restarts, base, anc, kept", [(16, 8, 8, True), (32, 4, 12, False)])
def test_start_stacks_over_the_memo_cap_are_not_retained(restarts, base, anc, kept):
    # 16 x 64^2 = 2^16 entries is the largest stack kept; 32 x 48^2 is built fresh
    optimize._memo_start_stack.cache_clear()
    cfg = OptimizerConfig(restarts=restarts, seed=8)
    stack = optimize._start_stack(base, anc, 2.0, "hermitian", cfg)
    assert optimize._memo_start_stack.cache_info().currsize == int(kept)
    assert stack.flags.writeable
    np.testing.assert_array_equal(stack, optimize._build_start_stack(base, anc, 2.0, "hermitian", restarts, 8))


def gather_scatter_ascent(phi, k, cells, cfg):
    """The stacked ascent as one loop over the full stack of ``cells x
    restarts`` rows: gather the active rows, step each witness group on its
    rows with the rank-one pairs kept by absolute row, scatter them back;
    returns the final stack and the converged flags.  Like the ascent, it
    hands a side's only witness group the whole stack, and each of several
    groups its rows as an index array, since matmul can round a strided array
    differently from a contiguous copy."""
    forward = _kraus_kernel(phi.kraus_left, phi.kraus_right, k)
    backward = _kraus_kernel(_dagger(phi.kraus_left), _dagger(phi.kraus_right), k)
    X = np.concatenate([optimize._start_stack(phi.dim_in, k, q, constraint, cfg) for q, _, constraint in cells])
    cell = np.repeat(np.arange(len(cells)), cfg.restarts)
    y_key = np.array([p for _, p, _ in cells])[cell]
    x_key = np.array([f"{q} {constraint}" for q, _, constraint in cells])[cell]

    def rows(keys, key):
        return slice(None) if len(set(keys)) == 1 else np.flatnonzero(keys[active] == key)

    y_pairs = np.zeros((len(X), 2, phi.dim_out * k), dtype=complex)
    x_pairs = np.zeros((len(X), 2, phi.dim_in * k), dtype=complex)
    values = np.full(len(X), -np.inf)
    converged = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    for it in range(cfg.max_iterations):
        Xa = X[active]
        W = forward(Xa)
        Y = np.empty_like(W)
        for p in set(y_key[active]):
            sel = rows(y_key, p)
            if math.isinf(p):
                pair, Y[sel] = optimize._rank_one_witness(W[sel], None if it == 0 else y_pairs[active[sel]])
                y_pairs[active[sel]] = pair
            else:
                Y[sel] = _ball_witness(W[sel], dual_exponent(p), "full")
        vals = np.einsum("rab,rab->r", W.conj(), Y).real
        gain = vals - values[active]
        values[active] = vals
        Z = backward(Y)
        Xn = np.empty_like(Z)
        for key in set(x_key[active]):
            sel = rows(x_key, key)
            q, constraint = float(key.split()[0]), key.split()[1]
            if q == 1.0 and constraint == "full":
                pair, Xn[sel] = optimize._rank_one_witness(Z[sel], None if it == 0 else x_pairs[active[sel]])
                x_pairs[active[sel]] = pair
            else:
                Xs = _ball_witness(Z[sel], q, constraint)
                stalled = optimize._frobenius(Xs) <= 1e-14
                Xs[stalled] = Xa[sel][stalled]
                Xn[sel] = Xs
        step = optimize._frobenius(Xn - Xa)
        X[active] = Xn
        done = (np.abs(gain) <= 1e-10 * (1.0 + np.abs(vals))) | (step <= 1e-9)
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    return X, converged


STACKS = {
    "1.5-3.0-full-2": ([(1.5, 3.0, "full")], 2),
    "1.0-inf-full-1": ([(1.0, math.inf, "full")], 1),
    "2.0-2.0-hermitian-2": ([(2.0, 2.0, "hermitian")], 2),
    "1.0-1.0-hermitian-3": ([(1.0, 1.0, "hermitian")], 3),
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
    # loop leaves, and each cell must pick its best restart from its own rows
    phi, cfg = random_superop(3, 2, 3, 60), OptimizerConfig(restarts=7, seed=4)
    seen = []

    def spy_kernel(left, right, k=1):
        act = _kraus_kernel(left, right, k)
        return lambda X: seen.append(X.copy()) or act(X)

    monkeypatch.setattr(optimize, "_kraus_kernel", spy_kernel)
    mixed = split = False
    for cap in (1, 3, 22, 27, 5000):
        capped = OptimizerConfig(restarts=cfg.restarts, max_iterations=cap, seed=cfg.seed)
        want, flags = gather_scatter_ascent(phi, k, cells, capped)
        seen.clear()
        got = optimize._ascend(phi, k, cells, capped)
        np.testing.assert_array_equal(seen[-1], want)  # the final evaluation's stack
        final = _kraus_kernel(phi.kraus_left, phi.kraus_right, k)(want)
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


# the kernel's GEMM can round a row's entries differently by where the row sits
# in the stack, and a last-bit change can move the iteration at which the row
# meets the objective tolerance; so a stacked cell agrees with the cell alone to
# that tolerance, not bit for bit.  The largest difference on this grid was
# 7.2e-12 with OpenBLAS's default kernel on an AVX-512 Xeon, 2.7e-11 with its
# Haswell kernel, 1.2e-13 with Prescott and none with Sandybridge
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


def test_one_cell_ascent_gathers_nothing(monkeypatch):
    # a single cell's ascent is the whole stack as one group on each side: no
    # group lookup runs, so it makes exactly the operations of a one-cell ascent
    def never(*args):
        raise AssertionError("a group was looked up")

    monkeypatch.setattr(optimize, "_rows_of", never)
    phi = random_superop(3, 2, 2, 71)
    for query in (NormQuery(1.5, 3.0), NormQuery(1.0, math.inf), NormQuery(1.0, 2.0, True, 2)):
        norm_q_to_p(phi, query, OptimizerConfig(restarts=5, seed=3))
    cp_norm(random_cp_channel(2, 2, 2, 72), NormQuery(2.0, 3.0), OptimizerConfig(restarts=5, seed=3))


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
    assert np.allclose(_ball_witness(Z, 2.0, "full"), full, rtol=0.0, atol=1e-12)
    assert np.allclose(_ball_witness(Z, 2.0, "hermitian"), herm, rtol=0.0, atol=1e-12)
    for constraint in ("full", "hermitian"):
        assert not _ball_witness(Z, 2.0, constraint)[3].any()
    # psd keeps the clamped spectrum; an all-zero slice falls back to a unit projector
    psd = _ball_witness(Z, 2.0, "psd")
    clamped = (V * holder_weights(np.maximum(lam, 0.0), 2.0)[..., None, :]) @ Vd
    live = [0, 1, 2, 4]
    assert np.allclose(psd[live], clamped[live], rtol=0.0, atol=1e-12)
    assert np.allclose(psd[3], psd[3] @ psd[3], atol=1e-12)
    assert np.trace(psd[3]).real == pytest.approx(1.0, abs=1e-12)


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


def test_oracle_identity_small_grid():
    v = brute_force_oracle(identity_superop(2), NormQuery(1.0, 1.0), 50)
    assert v == pytest.approx(1.0, abs=1e-3)


def test_oracle_dim4_hermitian():
    d4 = difference(*build_example("dim4_pair"))
    v = brute_force_oracle(d4, NormQuery(1.0, 1.0, True), 200)
    assert v == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_oracle_simple_hermitian_q2():
    simple = build_example("simple_nonhermitian")
    v = brute_force_oracle(simple, NormQuery(2.0, 1.0, True), 200)
    assert v == pytest.approx(2.0 ** -0.5, abs=1e-2)


def test_oracle_full_rank_one_grid():
    simple = build_example("simple_nonhermitian")
    v = brute_force_oracle(simple, NormQuery(1.0, 1.0), 30)
    assert v == pytest.approx(1.0, abs=1e-3)


def test_oracle_refuses_finite_q_without_the_hermitian_restriction():
    # no grid of all 2x2 inputs comes near the norm at a usable resolution
    simple = build_example("simple_nonhermitian")
    for q in (1.0001, 1.5, 2.0, 3.0, 50.0):
        for p in (1.0, 2.0, math.inf):
            with pytest.raises(UnsupportedInstanceError, match="without the Hermitian restriction"):
                brute_force_oracle(simple, NormQuery(q, p), 10)


def test_oracle_reflection_grid_for_qinf_hermitian():
    qinf = build_example("qinf_nonhermitian")
    v = brute_force_oracle(qinf, NormQuery(math.inf, 1.0, True), 200)
    assert v == pytest.approx(2.0 ** -0.5, abs=1e-4)


def test_oracle_unitary_grid_for_qinf():
    v = brute_force_oracle(identity_superop(2), NormQuery(math.inf, 2.0), 50)
    assert v == pytest.approx(math.sqrt(2.0), abs=1e-6)
    qinf = build_example("qinf_nonhermitian")
    assert brute_force_oracle(qinf, NormQuery(math.inf, 1.0), 60) == pytest.approx(1.0, abs=1e-3)


def test_oracle_brackets_optimizer(quick_cfg):
    phi = random_superop(2, 2, 2, 38)
    query = NormQuery(2.0, 2.0, True)
    est = norm_q_to_p(phi, query, quick_cfg).value
    v = brute_force_oracle(phi, query, 60)
    assert v <= est + 1e-3
    assert est <= v + 5e-2


def _sphere_points(R: int, n_polar: int) -> np.ndarray:
    # every unit vector of the oracle's hyperspherical grid: n_polar angles on
    # linspace(0, pi, R) and one azimuth on [0, 2 pi), first angle slowest
    thetas = np.linspace(0.0, math.pi, R)
    phis = np.linspace(0.0, 2.0 * math.pi, R, endpoint=False)
    running, coords = 1.0, []
    for a in np.meshgrid(*([thetas] * n_polar + [phis]), indexing="ij"):
        coords.append(running * np.cos(a))
        running = running * np.sin(a)
    return np.stack([c.ravel() for c in coords + [running]], axis=-1)


def _bloch_states(R: int) -> np.ndarray:
    theta, phi = np.meshgrid(
        np.linspace(0.0, math.pi, R), np.linspace(0.0, 2.0 * math.pi, R, endpoint=False), indexing="ij"
    )
    return np.stack([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)], axis=-1).reshape(-1, 2)


def _full_oracle_grid(q: float, hermitian: bool, R: int) -> np.ndarray:
    """Every input matrix of the oracle's grid for (q, hermitian), none skipped."""
    if q == 1.0:
        psi = _bloch_states(R)
        if hermitian:
            return np.einsum("na,nb->nab", psi, psi.conj())
        return np.einsum("ua,vb->uvab", psi, psi.conj()).reshape(-1, 2, 2)
    if math.isinf(q) and hermitian:
        psi = _bloch_states(R)
        refl = 2.0 * np.einsum("na,nb->nab", psi, psi.conj()) - np.eye(2)
        return np.concatenate([refl, np.eye(2)[None]])
    x = _sphere_points(R, 2)
    if math.isinf(q):
        z1, z2 = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
        return np.stack([z1, -z2.conj(), z2, z1.conj()], axis=-1).reshape(-1, 2, 2)
    off = x[:, 2] + 1j * x[:, 3]
    return np.stack([x[:, 0], off, off.conj(), x[:, 1]], axis=-1).reshape(-1, 2, 2)


@pytest.mark.parametrize(
    "q, hermitian, resolutions",
    [
        (1.5, True, (12, 11)),
        (3.0, True, (12, 11)),
        (math.inf, True, (12, 11)),
        (math.inf, False, (12, 11)),
        # the rank-one q = 1 grids have no antipodes and are walked whole
        (1.0, True, (12, 11)),
        (1.0, False, (6, 5)),
        # the q = 2 Hermitian walk compares squared norms, with x0^2 + x1^2 + 2(x2^2 + x3^2) inputs
        (2.0, True, (12, 11)),
    ],
)
def test_oracle_matches_a_full_grid_reference(q, hermitian, resolutions):
    # the oracle evaluates half of each sphere grid at even resolution; the
    # reference evaluates ||Phi(X)||_p / ||X||_q on every grid point by SVD
    maps = [
        (random_superop(2, 2, 2, 50), 1.0),
        (random_superop(2, 3, 2, 51), 2.5),
        (random_superop(2, 2, 3, 52), math.inf),
        (random_superop(2, 2, 2, 53), 2.0),
    ]
    for phi, p in maps:
        for R in resolutions:
            X = _full_oracle_grid(q, hermitian, R)
            out = np.einsum("tab,nbc,tdc->nad", phi.kraus_left, X, phi.kraus_right.conj())
            ratios = pnorm(np.linalg.svd(out, compute_uv=False), p)
            ratios = ratios / pnorm(np.linalg.svd(X, compute_uv=False), q)
            got = brute_force_oracle(phi, NormQuery(q, p, hermitian), R)
            assert got == pytest.approx(ratios.max(), rel=1e-12)


def test_oracle_chunk_holds_at_most_2_16_output_entries(monkeypatch):
    # a chunk's outputs, not its grid points, bound the oracle's memory
    phi = random_superop(2, 6, 2, 54)
    batches = []
    flat_sq_pnorm = optimize._flat_sq_pnorm

    def spy(flat, d, p, ws):
        if d == 6:
            batches.append(flat.shape[0])
        return flat_sq_pnorm(flat, d, p, ws)

    monkeypatch.setattr(optimize, "_flat_sq_pnorm", spy)
    got = brute_force_oracle(phi, NormQuery(2.0, 1.0, True), 64)
    assert len(batches) > 1
    assert all(batch * 36 <= 2**16 for batch in batches)
    want = 0.0
    for X in np.array_split(_full_oracle_grid(2.0, True, 64), 8):
        out = np.einsum("tab,nbc,tdc->nad", phi.kraus_left, X, phi.kraus_right.conj())
        ratios = pnorm(np.linalg.svd(out, compute_uv=False), 1.0)
        ratios = ratios / pnorm(np.linalg.svd(X, compute_uv=False), 2.0)
        want = max(want, ratios.max())
    assert got == pytest.approx(want, rel=1e-12)


def test_oracle_rank_one_walk_splits_a_state_grid_larger_than_a_chunk(monkeypatch):
    # 36 Bloch states against a 20-point chunk: each chunk is one u times a run of v
    phi = random_superop(2, 2, 2, 55)
    batches = []
    flat_sq_pnorm = optimize._flat_sq_pnorm

    def spy(flat, d, p, ws):
        batches.append(flat.shape[0])
        return flat_sq_pnorm(flat, d, p, ws)

    monkeypatch.setattr(optimize, "_ORACLE_CHUNK_ENTRIES", 80)
    monkeypatch.setattr(optimize, "_flat_sq_pnorm", spy)
    got = brute_force_oracle(phi, NormQuery(1.0, 3.0), 6)
    assert sum(batches) == 6**4 and max(batches) == 20
    X = _full_oracle_grid(1.0, False, 6)
    out = np.einsum("tab,nbc,tdc->nad", phi.kraus_left, X, phi.kraus_right.conj())
    want = pnorm(np.linalg.svd(out, compute_uv=False), 3.0).max()
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "R, n_polar, lead, chunk",
    [
        (7, 2, 7, 1 << 18),  # the whole grid in one chunk
        (5, 2, 5, 100),  # a 25-point trailing slab, four prefixes per chunk
        (8, 2, 4, 50),  # the even-R half grid
        (5, 2, 5, 3),  # the last angle alone exceeds a chunk: one prefix per chunk
    ],
)
def test_sphere_chunks_walk_the_meshgrid_in_row_major_order(R, n_polar, lead, chunk):
    thetas = np.linspace(0.0, math.pi, R)
    axes = [thetas[:lead]] + [thetas] * (n_polar - 1) + [np.linspace(0.0, 2.0 * math.pi, R, endpoint=False)]
    # each chunk is a view of one buffer that the next chunk overwrites
    chunks = [x.copy() for x in optimize._sphere_chunks(axes, chunk)]
    assert all(len(x) <= chunk for x in chunks)
    if chunk >= R ** (n_polar + 1):
        assert len(chunks) == 1
    want = _sphere_points(R, n_polar)[: lead * R**n_polar]
    np.testing.assert_allclose(np.concatenate(chunks), want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("p", [1.0, 1.0001, 1.5, 2.0, 3.0, 50.0, math.inf])
def test_two_by_two_output_norms_match_the_svd(p):
    rng = np.random.default_rng(56)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rank_one = np.einsum("na,nb->nab", cplx(200, 2), cplx(200, 2).conj())
    # equal singular values: hi^2 from f and |det| alone would cancel
    unitaries = np.linalg.qr(cplx(200, 2, 2))[0] * rng.uniform(0.1, 10.0, (200, 1, 1))
    stacks = {
        "random": cplx(200, 2, 2),
        "rank one": rank_one,
        "nearly rank one": rank_one + 1e-9 * cplx(200, 2, 2),
        "scaled unitaries": unitaries,
    }
    ws = optimize._Workspace(200, 2)
    for name, M in stacks.items():
        got = optimize._flat_sq_pnorm(M.reshape(-1, 4), 2, p, ws)
        want = pnorm(np.linalg.svd(M, compute_uv=False), p)
        np.testing.assert_allclose(got, want**2, rtol=1e-12, atol=0.0, err_msg=name)
    zero = optimize._flat_sq_pnorm(np.zeros((5, 4), dtype=np.complex128), 2, p, ws)
    np.testing.assert_allclose(zero, 0.0, rtol=0.0, atol=1e-15)


def test_oracle_on_unitaries_stays_below_the_norm():
    # every output of the identity on the unitary grid has equal singular
    # values, where hi^2 = (f + sqrt(f^2 - 4 |det|^2)) / 2 loses ~sqrt(eps)
    got = brute_force_oracle(identity_superop(2), NormQuery(math.inf, math.inf), 50)
    assert 1.0 - 1e-15 <= got <= 1.0 + 1e-15


@pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
@pytest.mark.parametrize("entries", [4 * 5, 4 * 24])
def test_oracle_hermitian_input_norm_holds_along_the_last_angle(monkeypatch, q, entries):
    # chunks of 5 points are parts of one run of the last angle, chunks of
    # 24 points whole runs of it; the input norm is taken once per run
    monkeypatch.setattr(optimize, "_ORACLE_CHUNK_ENTRIES", entries)
    phi = random_superop(2, 2, 2, 57)
    for R in (12, 11):
        X = _full_oracle_grid(q, True, R)
        out = np.einsum("tab,nbc,tdc->nad", phi.kraus_left, X, phi.kraus_right.conj())
        for p in (1.0, 2.5):
            ratios = pnorm(np.linalg.svd(out, compute_uv=False), p)
            ratios = ratios / pnorm(np.linalg.svd(X, compute_uv=False), q)
            got = brute_force_oracle(phi, NormQuery(q, p, True), R)
            assert got == pytest.approx(ratios.max(), rel=1e-12)


def test_oracle_scalar_input_space():
    phi = SuperOp.from_kraus(np.array([[[1.0], [0.0]]]))
    assert brute_force_oracle(phi, NormQuery(3.0, 2.0), 7) == pytest.approx(1.0)


def test_oracle_rejects_out_of_scope_queries():
    phi = random_superop(2, 2, 2, 39)
    with pytest.raises(InvalidInputError):
        brute_force_oracle(phi, NormQuery(1.0, 1.0), 1)
    for bad in (10.5, True):
        with pytest.raises(InvalidInputError, match="resolution must be a whole number"):
            brute_force_oracle(phi, NormQuery(1.0, 1.0), bad)
    with pytest.raises(UnsupportedInstanceError):
        brute_force_oracle(phi, NormQuery(1.0, 1.0, False, 2), 10)
    with pytest.raises(UnsupportedInstanceError):
        brute_force_oracle(random_superop(3, 2, 2, 40), NormQuery(1.0, 1.0), 10)


def test_explore_ancilla_profile_for_transpose(quick_cfg):
    out = explore_open_question(build_example("transpose(2)"), 2, config=quick_cfg)
    assert out["question"] == 2
    assert out["q"] == "1.0" and out["p"] == "1.0"
    values = [row["value"] for row in out["profile"]]
    assert [row["ancilla"] for row in out["profile"]] == [1, 2, 3, 4]
    assert values[0] == pytest.approx(1.0, abs=2e-3)
    for v in values[1:]:
        assert v == pytest.approx(2.0, abs=2e-3)


def test_explore_representation_products(quick_cfg):
    phi = random_cp_channel(2, 2, 1, 41)
    out = explore_open_question(phi, 1, p=1.0, samples=3, config=quick_cfg)
    assert out["question"] == 1
    assert len(out["samples"]) == 3
    assert out["samples"][0]["sample"] == 0
    products = [r["product"] for r in out["samples"]]
    assert out["min_product"] == min(products)
    # representation-independent upper bound: stabilized^2 <= every product
    assert out["stabilized_squared"] <= out["min_product"] + 2e-2


def test_explore_cp_profile_includes_hermitian_column(quick_cfg):
    phi = random_cp_channel(2, 2, 2, 42)
    out = explore_open_question(phi, 3, p=2.0, config=quick_cfg)
    for row in out["profile"]:
        assert abs(row["value"] - row["hermitian_value"]) <= 2e-3


def test_explore_validation(quick_cfg):
    with pytest.raises(PreconditionError):
        explore_open_question(build_example("transpose(2)"), 3, config=quick_cfg)
    with pytest.raises(InvalidInputError):
        explore_open_question(identity_superop(2), 4, config=quick_cfg)
    with pytest.raises(UnsupportedInstanceError):
        explore_open_question(random_superop(4, 4, 2, 0), 2, config=quick_cfg)
    for samples in (0, -5):
        with pytest.raises(InvalidInputError, match="samples must be >= 1"):
            explore_open_question(identity_superop(2), 1, samples=samples, config=quick_cfg)
    for field, bad in (("question", 2.9), ("question", True), ("samples", 2.7), ("samples", False)):
        with pytest.raises(InvalidInputError, match=f"{field} must be a whole number"):
            explore_open_question(identity_superop(2), **{"question": 2, field: bad}, config=quick_cfg)


def test_norm_wrapper_routes_match(quick_cfg):
    phi = random_superop(2, 2, 2, 43)
    assert (
        norm_1_to_p(phi, 2.0, config=quick_cfg).value
        == norm_q_to_p(phi, NormQuery(1.0, 2.0), quick_cfg).value
    )


def test_pnorm_reexport_smoke():
    assert pnorm([3.0, 4.0], 2.0) == pytest.approx(5.0)
