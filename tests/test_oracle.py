import math

import numpy as np
import pytest

from supernorms import (
    InvalidInputError,
    NormQuery,
    SuperOp,
    UnsupportedInstanceError,
    apply,
    brute_force_oracle,
    build_example,
    difference,
    identity_superop,
    pnorm,
    random_cp_channel,
    random_superop,
    schatten_norm,
)
from supernorms import oracle
from supernorms.schatten import dual_exponent


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
