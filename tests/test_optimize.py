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
from supernorms.superop import _kraus_kernel

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
    forward, backward = _kraus_kernel(left, right, k, len(cells) * cfg.restarts)
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

    def spy_kernel(left, right, k=1, rows=1):
        forward, backward = _kraus_kernel(left, right, k, rows)
        return lambda X: seen.append(X.copy()) or forward(X), backward

    monkeypatch.setattr(optimize, "_kraus_kernel", spy_kernel)
    mixed = split = False
    for cap in (1, 3, 15, 18, 22, 27, 5000):
        capped = OptimizerConfig(restarts=cfg.restarts, max_iterations=cap, seed=cfg.seed)
        want, flags = gather_scatter_ascent(phi, k, cells, capped)
        seen.clear()
        got = optimize._ascend(phi, k, cells, capped)
        np.testing.assert_array_equal(seen[-1], want)  # the final evaluation's stack
        left, right = optimize._unit_scale(phi.kraus_left), optimize._unit_scale(phi.kraus_right)
        final = _kraus_kernel(left, right, k, len(want))[0](want)
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
    compaction, extrapolation and restore of pairs; the sides an ascent
    builds are ``made`` in order, the output side first.  A step logs the
    side's pairs before it; a restore logs the side's pairs after it, the
    places of its rows among them and the factors."""

    made, log = [], []

    def __init__(self, *args):
        super().__init__(*args)
        RecordingSide.made.append(self)

    def __call__(self, M):
        before = self.save()
        W = super().__call__(M)
        self.log.append((self, "step", M, W, before))
        return W

    def keep(self, keep, saved=None):
        self.log.append((self, "keep", keep))
        super().keep(keep, saved)

    def extrapolate(self, old, X, rows, old_pairs):
        plain = X[rows].copy()
        pairs = super().extrapolate(old, X, rows, old_pairs)
        self.log.append((self, "extrapolate", rows, plain, pairs))
        return pairs

    def restore(self, saved, rows):
        super().restore(saved, rows)
        places = [self._positions(rows, g) for g in range(len(self.keys))]
        self.log.append((self, "restore", rows, self.save(), places, self.factor.copy()))


def value_histories(side) -> dict:
    """Each row's objective value, iteration by iteration, from the log of
    the output side ``side``: ``Re <W, Y>`` of its step, except where the
    step's extrapolation was rejected, where the row keeps its last value."""
    rows, now, histories = None, None, {}

    def close():
        for row, value in zip(rows, now):
            if not np.isnan(value):
                histories.setdefault(int(row), []).append(value)

    for event in RecordingSide.log:
        if event[0] is not side:
            continue
        if event[1] == "step":
            if now is not None:
                close()
            W, Y = event[2:4]
            rows = np.arange(len(W)) if rows is None else rows
            now = np.einsum("rab,rab->r", W.conj(), Y).real
        elif event[1] == "restore":
            now[event[2]] = np.nan
        else:
            close()
            rows, now = rows[event[2]], None
    if now is not None:
        close()
    return histories


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
    kinds = [event[1] for event in RecordingSide.log]
    assert "extrapolate" in kinds and "restore" in kinds
    for row, values in value_histories(y_side).items():
        for before, after in zip(values, values[1:]):
            assert after >= before - 1e-13 * (1.0 + abs(before)), row


@pytest.mark.parametrize("cells, k", list(EXTRAPOLATED_CELLS.values()), ids=list(EXTRAPOLATED_CELLS))
def test_rejected_extrapolation_steps_from_the_plain_iterate(cells, k, monkeypatch):
    # a row whose extrapolated iterate lowers its value goes back to the plain
    # step's iterate: the kernel's next input for that row is that iterate, bit
    # for bit, its output pair is the one the rejected step started from, its
    # input pair is the plain step's again, and its factor starts over
    forwards = []

    def spy_kernel(left, right, k=1, rows=1):
        forward, backward = _kraus_kernel(left, right, k, rows)
        return lambda X: forwards.append((X.copy(), forward(X))) or forwards[-1][1], backward

    monkeypatch.setattr(optimize, "_kraus_kernel", spy_kernel)
    monkeypatch.setattr(optimize, "_Side", RecordingSide)
    RecordingSide.made.clear()
    RecordingSide.log.clear()
    optimize._ascend(random_superop(3, 3, 2, 90), k, cells, OptimizerConfig(restarts=8, seed=5))
    y_side, x_side = RecordingSide.made
    rejected, y_checked, trial, y_before, pending = 0, 0, None, None, None
    for event in RecordingSide.log:
        side, kind = event[:2]
        if kind == "extrapolate":
            trial = event[2:]
        elif kind == "step" and side is y_side:
            if pending is not None:
                # the iteration after a rejection evaluates the plain iterates
                at, want = pending
                (X,) = [X for X, out in forwards if out is event[2]]
                np.testing.assert_array_equal(X[at], want)
                pending = None
            y_before = event[4]
        elif kind == "restore":
            back, pairs, places, factor = event[2:]
            tried, plain, plain_pairs = trial
            at = np.searchsorted(tried, back)
            assert np.array_equal(tried[at], back)
            if side is x_side:
                for g, pair in enumerate(plain_pairs):
                    if pair is not None:
                        np.testing.assert_array_equal(pairs[g][places[g]], pair[places[g]])
                assert (factor[back] == optimize._EXTRAPOLATION_START).all()
            else:
                for g, pair in enumerate(y_before):
                    if pair is not None:
                        np.testing.assert_array_equal(pairs[g][places[g]], pair[places[g]])
                        y_checked += places[g].size
                pending = back, plain[at]
                rejected += len(back)
        elif kind == "keep" and side is y_side and pending is not None:
            # the rejected rows stay; the others may leave the stack
            keep = event[2]
            assert keep[pending[0]].all()
            pending = np.cumsum(keep)[pending[0]] - 1, pending[1]
    assert rejected > 0
    # rows with rank-one output witnesses (p = inf) were rejected too
    assert y_checked or not any(math.isinf(p) for _, p, _ in cells)


@pytest.mark.parametrize(
    "cells, k", [EXTRAPOLATED_CELLS[key] for key in EXTRAPOLATED_CELLS if key != "stacked"],
    ids=[key for key in EXTRAPOLATED_CELLS if key != "stacked"],
)
def test_one_cell_ascent_without_a_slow_row_takes_the_plain_steps(cells, k, monkeypatch):
    # with a gate no gain passes, no row qualifies: the one-cell ascent takes
    # only plain steps, bit for bit those of the loop without extrapolation
    phi, cfg = random_superop(3, 3, 2, 90), OptimizerConfig(restarts=8, seed=5)
    seen = []

    def spy_kernel(left, right, k=1, rows=1):
        forward, backward = _kraus_kernel(left, right, k, rows)
        return lambda X: seen.append(X.copy()) or forward(X), backward

    monkeypatch.setattr(optimize, "_kraus_kernel", spy_kernel)
    monkeypatch.setattr(optimize, "_Side", RecordingSide)
    monkeypatch.setattr(optimize, "_EXTRAPOLATION_GATE", math.inf)
    RecordingSide.log.clear()
    ((X, conv),) = optimize._ascend(phi, k, cells, cfg)
    assert not any(event[1] in ("extrapolate", "restore") for event in RecordingSide.log)
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

        return tuple(spied(act) for act in kernel(left, right, k, rows))

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
    return optimize._Side([key], len(Z))(Z)


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
    side = optimize._Side(_EVERY_KIND, restarts)
    ids = np.repeat(np.arange(len(_EVERY_KIND)), restarts)
    for step in range(5):
        M = rng.standard_normal((len(ids), d, d)) + 1j * rng.standard_normal((len(ids), d, d))
        before = [None if pair is None else pair.copy() for pair in side.pairs]
        calls.clear()
        out = side(M)
        merged = [("_batched_svd", np.isin(ids, svd).sum()), ("_batched_eigh", np.isin(ids, eigh).sum())]
        first = [("_batched_svd", np.sum(ids == trace))] if step == 0 else []
        assert sorted(calls) == sorted(merged + first), step
        if d == 2 and step < 2:
            assert all(rows >= linalg._CLOSED_FORM_ROWS for _, rows in merged)
        for g, key in enumerate(_EVERY_KIND):
            rows = np.flatnonzero(ids == g)
            if rows.size:
                want = reference_witness(M[rows], key, before[g])
                np.testing.assert_allclose(out[rows], want, rtol=0.0, atol=1e-12, err_msg=f"{key} {step}")
        # drop rows after every step but the first, all of one group's after the third
        keep = rng.uniform(size=len(ids)) < (0.8 if step else 1.0)
        if step == 2:
            keep[ids == 1] = False
        side.keep(keep)
        ids = ids[keep]
    assert side.pairs[trace] is not None and len(side.pairs[trace]) == np.sum(ids == trace)


def test_rank_one_first_step_is_unit_on_zero_slices():
    # the first step on the unit trace-norm ball is the top singular pair u v*,
    # of unit norm also on a zero slice, beside other keys as alone
    rng = np.random.default_rng(320)
    restarts, d = 4, 3
    M = rng.standard_normal((2 * restarts, d, d)) + 1j * rng.standard_normal((2 * restarts, d, d))
    M[1] = 0.0
    got = optimize._Side([(1.0, "full"), (1.5, "full")], restarts)(M)
    np.testing.assert_array_equal(got[:restarts], one_key_witness(M[:restarts], (1.0, "full")))
    assert np.linalg.norm(got[1]) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.svd(got[1], compute_uv=False)[1] == pytest.approx(0.0, abs=1e-15)


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
    flat_sq_pnorm = oracle._flat_sq_pnorm

    def spy(flat, d, p, ws, *hermitian):
        if d == 6:
            batches.append(flat.shape[0])
        return flat_sq_pnorm(flat, d, p, ws, *hermitian)

    monkeypatch.setattr(oracle, "_flat_sq_pnorm", spy)
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
    flat_sq_pnorm = oracle._flat_sq_pnorm

    def spy(flat, d, p, ws, *hermitian):
        batches.append(flat.shape[0])
        return flat_sq_pnorm(flat, d, p, ws, *hermitian)

    monkeypatch.setattr(oracle, "_ORACLE_CHUNK_ENTRIES", 80)
    monkeypatch.setattr(oracle, "_flat_sq_pnorm", spy)
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
    chunks = [x.copy() for x in oracle._sphere_chunks(axes, chunk)]
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
    ws = oracle._Workspace(200, 2)
    for name, M in stacks.items():
        got = oracle._flat_sq_pnorm(M.reshape(-1, 4), 2, p, ws)
        want = pnorm(np.linalg.svd(M, compute_uv=False), p)
        np.testing.assert_allclose(got, want**2, rtol=1e-12, atol=0.0, err_msg=name)
    zero = oracle._flat_sq_pnorm(np.zeros((5, 4), dtype=np.complex128), 2, p, ws)
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
    monkeypatch.setattr(oracle, "_ORACLE_CHUNK_ENTRIES", entries)
    phi = random_superop(2, 2, 2, 57)
    for R in (12, 11):
        X = _full_oracle_grid(q, True, R)
        out = np.einsum("tab,nbc,tdc->nad", phi.kraus_left, X, phi.kraus_right.conj())
        for p in (1.0, 2.5):
            ratios = pnorm(np.linalg.svd(out, compute_uv=False), p)
            ratios = ratios / pnorm(np.linalg.svd(X, compute_uv=False), q)
            got = brute_force_oracle(phi, NormQuery(q, p, True), R)
            assert got == pytest.approx(ratios.max(), rel=1e-12)


@pytest.mark.parametrize("q", [1.0, 1.5, 3.0])
def test_oracle_takes_eigvalsh_only_on_hermitian_outputs(q, monkeypatch):
    # Hermitian inputs under a Hermiticity-preserving map: outputs beyond 2x2
    # take eigvalsh, and the value is the one the SVD gives to 1e-13 relative
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def svd_spectra(a, *args, **kwargs):
        return np.linalg.svd(a, compute_uv=False)

    cp = {
        "dim4_pair": difference(*build_example("dim4_pair")),
        "cp difference": difference(random_cp_channel(2, 3, 2, 91), random_cp_channel(2, 3, 3, 92)),
    }
    for name, phi in cp.items():
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            query = NormQuery(q, p, True)
            calls.clear()
            monkeypatch.setattr(np.linalg, "eigvalsh", spy)
            got = brute_force_oracle(phi, query, 9)
            assert calls and all(shape[1:] == (phi.dim_out,) * 2 for shape in calls), name
            monkeypatch.setattr(np.linalg, "eigvalsh", svd_spectra)
            assert got == pytest.approx(brute_force_oracle(phi, query, 9), rel=1e-13, abs=0.0), (name, p)
    # not Hermiticity-preserving, or not Hermitian-restricted: the SVD throughout
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    calls.clear()
    brute_force_oracle(random_superop(2, 3, 2, 93), NormQuery(q, 2.0, True), 9)
    if q in (1.0, math.inf):
        for phi in cp.values():
            brute_force_oracle(phi, NormQuery(q, 2.0), 9)
    assert not calls


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("R", [100, 400, 11])
def test_run_head_norms_are_the_per_chunk_heads_bit_for_bit(q, R):
    # the Hermitian finite-q walk divides each run of the last angle by its
    # head's input norm; taken once per call, the norms are the bits the walk
    # took chunk by chunk from each chunk's heads x[::R] (R = 100 and 400 are
    # the criterion-9 and oracle_grid resolutions, whose chunks are whole runs)
    basis = oracle._SPHERE_BASES[True, True]
    thetas = np.linspace(0.0, math.pi, R)
    phis = np.linspace(0.0, 2.0 * math.pi, R, endpoint=False)
    axes = [thetas[: R // 2 if R % 2 == 0 else R], thetas, phis]
    chunk = oracle._ORACLE_CHUNK_ENTRIES // 4
    ws, real, want = oracle._Workspace(chunk // R, 2), basis.view(np.float64), []
    for x in oracle._sphere_chunks(axes, chunk):
        inputs = np.matmul(x[::R], real, out=ws.out[: len(x) // R])
        want.append(oracle._flat_sq_pnorm(inputs.view(np.complex128), 2, q, ws).copy())
    got = oracle._run_head_sq_norms(axes, basis, q, chunk)
    np.testing.assert_array_equal(got, np.concatenate(want))


# 2 -> 1 maps at NormQuery(1.5, p, True): the trace functional, whose norm is
# 2^(1/3), and a random one; the values the walk took with its input norms
# taken chunk by chunk
_SCALAR_OUTPUT_ORACLE = {
    (2, 1 << 16): (1.0, 0.28549585284194834),
    (3, 1 << 16): (1.0000000000000002, 3.661942513895438),
    (40, 1 << 10): (1.2597932862538375, 3.8307881654895533),
    (41, 1 << 10): (1.2599210498948732, 3.8334318577171165),
}


@pytest.mark.parametrize("R, entries", list(_SCALAR_OUTPUT_ORACLE))
def test_oracle_hermitian_finite_q_on_scalar_outputs(R, entries, monkeypatch):
    # the run heads' input norms have buffers of their own, 2x2 whatever the
    # output dimension: a 1x1 output's buffer holds a quarter of a head, too
    # short at R = 2 and 3 and, at a 2^10-entry chunk, once the heads (R = 40
    # or 41) outnumber a quarter of the chunk, as they do at R = 400 by default
    monkeypatch.setattr(oracle, "_ORACLE_CHUNK_ENTRIES", entries)
    rng = np.random.default_rng(7)
    maps = (
        SuperOp.from_kraus(np.array([[[1.0, 0.0]], [[0.0, 1.0]]])),
        SuperOp.from_kraus(rng.standard_normal((2, 1, 2)) + 1j * rng.standard_normal((2, 1, 2))),
    )
    for phi, want in zip(maps, _SCALAR_OUTPUT_ORACLE[R, entries]):
        for p in (1.0, 3.0):
            assert brute_force_oracle(phi, NormQuery(1.5, p, True), R) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q, hermitian", [(1.0, False), (1.0, True), (math.inf, False), (math.inf, True), (1.5, True)])
def test_oracle_takes_no_svd_on_scalar_outputs(q, hermitian, monkeypatch):
    # a map to 1x1 outputs is X -> <K, X>: every grid takes its outputs'
    # moduli, with no decomposition, and stays below the dual norm ||K||_{q*}
    rng = np.random.default_rng(8)
    phi = SuperOp.from_kraus(rng.standard_normal((2, 1, 2)) + 1j * rng.standard_normal((2, 1, 2)))
    # the dual matrix, read off the matrix units
    units = np.eye(4).reshape(4, 2, 2)
    K = np.array([apply(phi, E)[0, 0] for E in units]).conj().reshape(2, 2)
    dual = schatten_norm(K, dual_exponent(q))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    got = brute_force_oracle(phi, NormQuery(q, 2.0, hermitian), 16)
    assert not calls
    assert got <= dual * (1.0 + 1e-12)
    if not hermitian:
        assert got >= dual * (1.0 - 1e-2)


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


def test_norm_wrapper_routes_match(quick_cfg):
    phi = random_superop(2, 2, 2, 43)
    assert (
        norm_1_to_p(phi, 2.0, config=quick_cfg).value
        == norm_q_to_p(phi, NormQuery(1.0, 2.0), quick_cfg).value
    )


def test_pnorm_reexport_smoke():
    assert pnorm([3.0, 4.0], 2.0) == pytest.approx(5.0)
