import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supernorms import (
    InvalidInputError,
    NormQuery,
    OptimizerConfig,
    SuperOp,
    UnsupportedInstanceError,
    adjoint_apply,
    apply,
    build_example,
    choi_matrix,
    difference,
    identity_superop,
    inner,
    is_completely_positive,
    is_trace_preserving,
    left_cp_map,
    norm_q_to_p,
    random_cp_channel,
    random_superop,
    remix,
    right_cp_map,
    tensor_identity,
)

from supernorms import superop
from supernorms.superop import _kraus_kernel, _transfer_matrix as transfer_matrix, _transfer_pays

from conftest import COUNTS, check_count, complex_matrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def manual_apply(phi: SuperOp, X: np.ndarray) -> np.ndarray:
    return sum(A @ X @ B.conj().T for A, B in zip(phi.kraus_left, phi.kraus_right))


def test_superop_validates_kraus_lists():
    with pytest.raises(InvalidInputError):
        SuperOp.from_kraus(np.zeros((0, 2, 2)))
    with pytest.raises(InvalidInputError):
        SuperOp.from_kraus(np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(InvalidInputError):
        SuperOp.from_kraus(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)))
    with pytest.raises(InvalidInputError):
        SuperOp.from_kraus(np.full((1, 2, 2), np.nan))
    # zero-size matrices, as a stack and as a list, on either side
    for shape in ((1, 2, 0), (1, 0, 2)):
        for mats in (np.zeros(shape), list(np.zeros(shape))):
            with pytest.raises(InvalidInputError, match="needs nonempty matrices"):
                SuperOp(mats, mats)
            with pytest.raises(InvalidInputError, match="needs nonempty matrices"):
                SuperOp.from_kraus(np.zeros((1, 2, 2)), mats)
    with pytest.raises(InvalidInputError):
        SuperOp.from_kraus([np.eye(2), np.eye(3)])
    phi = SuperOp.from_kraus(np.eye(2) for _ in range(3))
    assert phi.n_terms == 3 and np.array_equal(phi.kraus_left[2], np.eye(2))


def test_maps_compare_and_hash_by_identity():
    a, b = random_superop(2, 2, 2, 1), random_superop(2, 2, 2, 2)
    assert a != b and a == a
    assert a in [a] and b not in [a]
    assert {a: 1, b: 2}[a] == 1
    cfg = OptimizerConfig(restarts=2, seed=0)
    est, again = (norm_q_to_p(a, NormQuery(2.0, 2.0), cfg) for _ in range(2))
    assert est.value == again.value and est != again
    assert est in [est] and {est: 1}[est] == 1


def test_superop_dimensions_and_cp_form():
    phi = SuperOp.from_kraus(np.zeros((3, 4, 2)) + 1.0)
    assert (phi.n_terms, phi.dim_out, phi.dim_in) == (3, 4, 2)
    assert phi.cp_form
    psi = SuperOp.from_kraus(np.ones((1, 2, 2)), 2.0 * np.ones((1, 2, 2)))
    assert not psi.cp_form
    # a CP-form map keeps one fresh read-only stack for both lists
    left = np.arange(8.0).reshape(2, 2, 2)
    phi = SuperOp.from_kraus(left)
    left[0, 0, 0] = 7.0
    assert phi.kraus_left[0, 0, 0] == 0.0 and not phi.kraus_left.flags.writeable
    for cp in (phi, left_cp_map(psi), right_cp_map(psi), tensor_identity(phi, 3)):
        assert cp.kraus_left is cp.kraus_right and cp.cp_form
    # equal lists given as two objects are two stacks, still in CP form
    twin = SuperOp(phi.kraus_left, phi.kraus_left.copy())
    assert twin.kraus_left is not twin.kraus_right and twin.cp_form


def test_identity_superop_acts_trivially(rng):
    X = complex_matrix(rng, 3, 3)
    ident = identity_superop(3)
    assert np.allclose(apply(ident, X), X)
    assert np.allclose(adjoint_apply(ident, X), X)
    with pytest.raises(InvalidInputError):
        identity_superop(0)


def test_apply_simple_example_keeps_upper_corner():
    simple = build_example("simple_nonhermitian")
    out = apply(simple, [[1, 2], [3, 4]])
    assert np.allclose(out, [[2, 0], [0, 0]])


def test_apply_rejects_wrong_input_shape():
    with pytest.raises(InvalidInputError):
        apply(identity_superop(2), np.eye(3))
    with pytest.raises(InvalidInputError):
        adjoint_apply(identity_superop(2), np.eye(3))


@given(seeds)
def test_apply_matches_kraus_sum(seed):
    phi = random_superop(3, 2, 3, seed)
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 3, 3)
    assert np.allclose(apply(phi, X), manual_apply(phi, X), atol=1e-12)


@given(seeds)
def test_apply_is_linear(seed):
    phi = random_superop(2, 3, 2, seed)
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 2, 2)
    Y = complex_matrix(rng, 2, 2)
    assert np.allclose(apply(phi, 2.0 * X - 1j * Y), 2.0 * apply(phi, X) - 1j * apply(phi, Y))


@given(seeds)
def test_adjoint_pairs_with_apply(seed):
    phi = random_superop(3, 2, 2, seed)
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 3, 3)
    Y = complex_matrix(rng, 2, 2)
    assert inner(Y, apply(phi, X)) == pytest.approx(inner(adjoint_apply(phi, Y), X), abs=1e-10)


@given(seeds, st.integers(min_value=1, max_value=3))
def test_tensor_identity_on_product_inputs(seed, k):
    phi = random_superop(2, 3, 2, seed)
    big = tensor_identity(phi, k)
    assert (big.dim_in, big.dim_out) == (2 * k, 3 * k)
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 2, 2)
    W = complex_matrix(rng, k, k)
    assert np.allclose(apply(big, np.kron(X, W)), np.kron(apply(phi, X), W), atol=1e-12)


# each map with the contraction the rule names for a 32-row stack at every k;
# one matrix (rows = 1) at k = 1 takes the system legs on all of them
KERNEL_MAPS = {
    "2to3": (random_superop(2, 3, 2, 7), True),
    "3to2": (random_superop(3, 2, 3, 8), True),
    "transpose3": (build_example("transpose(3)"), True),
    "2to3x3": (random_superop(2, 3, 3, 9), True),
    "identity12": (identity_superop(12), False),
    "12to12x2": (random_superop(12, 12, 2, 10), False),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("phi, transfer", list(KERNEL_MAPS.values()), ids=list(KERNEL_MAPS))
def test_kraus_kernel_matches_tensor_identity(phi, transfer, k, monkeypatch):
    # the stacked kernel against the explicitly enlarged map, on stacks of 1
    # and 32 rows: each stack takes the contraction _transfer_pays names for
    # its rows x k^2 blocks, builds the transfer matrix at most once for both
    # directions, and matches the Kraus sum on the enlarged map
    built = []
    monkeypatch.setattr(superop, "_transfer_matrix", lambda *stacks: built.append(1) or transfer_matrix(*stacks))
    big = tensor_identity(phi, k)
    t, m, n = phi.kraus_left.shape
    for rows in (1, 32):
        rng = np.random.default_rng(100 + k + rows)
        X = rng.standard_normal((rows, big.dim_in, big.dim_in, 2)).view(complex)[..., 0]
        Y = rng.standard_normal((rows, big.dim_out, big.dim_out, 2)).view(complex)[..., 0]
        built.clear()
        forward, backward = _kraus_kernel(phi.kraus_left, phi.kraus_right, k, rows)
        out, back = forward(X), backward(Y)
        assert (out.shape, back.shape) == (Y.shape, X.shape)
        assert len(built) == _transfer_pays(t, m, n, rows * k * k)
        if rows == 32:
            assert len(built) == transfer
        elif k == 1:
            assert not built
        for i in range(rows):
            want_back = sum(A.conj().T @ Y[i] @ B for A, B in zip(big.kraus_left, big.kraus_right))
            assert np.allclose(out[i], manual_apply(big, X[i]), rtol=0.0, atol=1e-12)
            assert np.allclose(back[i], want_back, rtol=0.0, atol=1e-12)
            assert inner(Y[i], out[i]) == pytest.approx(inner(back[i], X[i]), abs=1e-10)


def test_apply_on_a_large_enlarged_map_builds_no_transfer_matrix(monkeypatch):
    # one matrix through tensor_identity(transpose(8), 8), a 64 -> 64 map with
    # 64 terms, stays on the system legs: its transfer matrix would hold 64^4
    # entries (268 MB)
    built = []
    monkeypatch.setattr(superop, "_transfer_matrix", lambda *stacks: built.append(1) or transfer_matrix(*stacks))
    big = tensor_identity(build_example("transpose(8)"), 8)
    X = complex_matrix(np.random.default_rng(5), 64, 64)
    out = apply(big, X)
    assert np.allclose(out, manual_apply(big, X), rtol=0.0, atol=1e-12)
    assert adjoint_apply(big, out).shape == (64, 64)
    assert not built


def test_estimate_size_guard_counts_the_transfer_matrix():
    # a 10 -> 820 map with 30 terms and 30 restarts takes the transfer form
    # (6.7e7 entries) while its iterates and kernel product hold 2.0e7, so
    # the guard refuses it by the transfer matrix alone, before any ascent
    phi = SuperOp.from_kraus(np.ones((30, 820, 10)))
    assert _transfer_pays(30, 820, 10, 30)
    with pytest.raises(UnsupportedInstanceError, match=f"needs {(10 * 820) ** 2} entries, over the limit"):
        norm_q_to_p(phi, NormQuery(2.0, 2.0), OptimizerConfig(restarts=30))


def test_tensor_identity_with_one_is_same_map(rng):
    phi = random_superop(2, 2, 2, 5)
    same = tensor_identity(phi, 1)
    X = complex_matrix(rng, 2, 2)
    assert np.allclose(apply(same, X), apply(phi, X))
    with pytest.raises(InvalidInputError):
        tensor_identity(phi, 0)


def test_tensor_identity_over_the_size_limit_is_refused_before_any_allocation(monkeypatch):
    phi = random_superop(2, 2, 2, 3)

    def never(*args, **kwargs):
        raise AssertionError("the widened stacks were built")

    monkeypatch.setattr(np, "eye", never)
    # 2 terms of (2k x 2k): 8 k^2 entries exceed the 2^26 limit from k = 2897 on
    for k in (2897, 10**6):
        with pytest.raises(UnsupportedInstanceError, match="over the limit of 67108864"):
            tensor_identity(phi, k)
    with pytest.raises(AssertionError, match="the widened stacks were built"):
        tensor_identity(phi, 2896)


def test_left_right_cp_maps_on_simple_example():
    simple = build_example("simple_nonhermitian")
    X = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(apply(left_cp_map(simple), X), [[1, 0], [0, 0]])
    assert np.allclose(apply(right_cp_map(simple), X), [[4, 0], [0, 0]])
    assert is_completely_positive(left_cp_map(simple))
    assert is_completely_positive(right_cp_map(simple))


def test_choi_matrix_of_identity():
    C = choi_matrix(identity_superop(2))
    want = np.zeros((4, 4))
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 1.0
    assert np.allclose(C, want)


def test_transpose_is_positive_but_not_cp():
    T = build_example("transpose(2)")
    C = choi_matrix(T)
    assert np.linalg.eigvalsh(C).min() == pytest.approx(-1.0)
    assert not is_completely_positive(T)
    assert is_trace_preserving(T)


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_complete_positivity_does_not_change_with_scale(scale):
    # the tolerance is relative to the Choi matrix's spectral norm: the
    # transpose stays refused when its left stack is scaled (its Choi
    # eigenvalue -1 becomes -scale), a CP channel stays accepted, and the
    # zero map passes
    T = build_example("transpose(2)")
    assert not is_completely_positive(SuperOp(scale * T.kraus_left, T.kraus_right))
    cp = random_cp_channel(2, 2, 2, 7)
    assert is_completely_positive(SuperOp(scale * cp.kraus_left, cp.kraus_right))
    assert is_completely_positive(SuperOp.from_kraus(np.zeros((1, 2, 2))))


def test_dim4_difference_is_not_cp():
    d4 = difference(*build_example("dim4_pair"))
    assert not is_completely_positive(d4)


def test_trace_preservation_predicate():
    assert is_trace_preserving(identity_superop(3))
    halver = SuperOp.from_kraus((np.eye(2) / math.sqrt(2.0))[None])
    assert not is_trace_preserving(halver)


def test_difference_of_map_with_itself_vanishes(rng):
    phi = random_superop(2, 3, 2, 11)
    d = difference(phi, phi)
    X = complex_matrix(rng, 2, 2)
    assert np.allclose(apply(d, X), 0.0, atol=1e-12)
    assert d.n_terms == 2 * phi.n_terms


def test_difference_requires_matching_dimensions():
    with pytest.raises(InvalidInputError):
        difference(identity_superop(2), identity_superop(3))


@given(seeds)
def test_remix_preserves_the_action(seed):
    phi = random_superop(2, 2, 3, seed)
    rng = np.random.default_rng(seed)
    M = complex_matrix(rng, 3, 3) + 3.0 * np.eye(3)
    mixed = remix(phi, M)
    X = complex_matrix(rng, 2, 2)
    assert np.allclose(apply(mixed, X), apply(phi, X), atol=1e-10)
    assert not np.allclose(mixed.kraus_left, phi.kraus_left)


@pytest.mark.parametrize("count, whole", COUNTS)
@pytest.mark.parametrize(
    "build",
    [
        lambda n: identity_superop(n).kraus_left,
        lambda n: tensor_identity(random_superop(2, 2, 2, 3), n).kraus_left,
    ],
    ids=["identity_superop", "tensor_identity"],
)
def test_dimensions_must_be_whole_numbers(build, count, whole):
    check_count(lambda n: (build(n),), count, whole)


def test_remix_validates_mixer():
    phi = random_superop(2, 2, 2, 0)
    with pytest.raises(InvalidInputError):
        remix(phi, np.eye(3))
    with pytest.raises(InvalidInputError):
        remix(phi, np.zeros((2, 2)))
