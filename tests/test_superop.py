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
    random_superop,
    remix,
    right_cp_map,
    tensor_identity,
)

from supernorms.superop import _dagger, _kraus_kernel

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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "phi",
    [random_superop(2, 3, 2, 7), random_superop(3, 2, 3, 8), build_example("transpose(3)")],
    ids=["2to3", "3to2", "transpose3"],
)
def test_kraus_kernel_matches_tensor_identity(phi, k):
    # the stacked ancilla-leg kernel against the explicitly enlarged map
    rng = np.random.default_rng(100 + k)
    big = tensor_identity(phi, k)
    X = np.stack([complex_matrix(rng, big.dim_in, big.dim_in) for _ in range(5)])
    Y = np.stack([complex_matrix(rng, big.dim_out, big.dim_out) for _ in range(5)])
    out = _kraus_kernel(phi.kraus_left, phi.kraus_right, k)(X)
    back = _kraus_kernel(_dagger(phi.kraus_left), _dagger(phi.kraus_right), k)(Y)
    for i in range(len(X)):
        assert np.allclose(out[i], apply(big, X[i]), rtol=0.0, atol=1e-12)
        assert np.allclose(out[i], manual_apply(big, X[i]), rtol=0.0, atol=1e-12)
        assert np.allclose(back[i], adjoint_apply(big, Y[i]), rtol=0.0, atol=1e-12)
        assert inner(Y[i], out[i]) == pytest.approx(inner(back[i], X[i]), abs=1e-10)


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
