import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supernorms import (
    InvalidInputError,
    as_matrix,
    inner,
    is_hermitian,
    psd_sqrt,
    random_unitary,
    schmidt,
    svd,
)

from conftest import COUNTS, check_count, complex_matrix, random_psd

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_as_matrix_returns_complex_copy():
    data = [[1, 2], [3, 4]]
    A = as_matrix(data)
    assert A.dtype == np.complex128
    assert A.shape == (2, 2)
    A[0, 0] = 99
    assert data[0][0] == 1


@pytest.mark.parametrize(
    "bad",
    [
        [1, 2, 3],
        [[[1]]],
        [[np.nan, 0], [0, 1]],
        [[np.inf, 0], [0, 1]],
        np.zeros((0, 3)),
        "nonsense",
    ],
)
def test_as_matrix_rejects_garbage(bad):
    with pytest.raises(InvalidInputError):
        as_matrix(bad)


def test_svd_diagonal():
    data = svd(np.diag([3.0, 1.0]))
    assert np.allclose(data.singular_values, [3.0, 1.0])


def test_svd_nilpotent():
    data = svd([[0, 1], [0, 0]])
    assert np.allclose(data.singular_values, [1.0, 0.0])


def test_svd_rank_one_row():
    data = svd([[3, 4], [0, 0]])
    assert np.allclose(data.singular_values, [5.0, 0.0])


def test_svd_zero_matrix_rank():
    assert np.array_equal(svd(np.zeros((3, 3))).singular_values, np.zeros(3))


@given(seeds, dims, dims)
def test_svd_reconstructs(seed, n, m):
    rng = np.random.default_rng(seed)
    A = complex_matrix(rng, n, m)
    data = svd(A)
    assert np.allclose(data.reconstruct(), A, atol=1e-10)
    # orthonormal columns
    k = data.singular_values.size
    assert np.allclose(data.left_vectors.conj().T @ data.left_vectors, np.eye(k), atol=1e-10)
    assert np.allclose(data.right_vectors.conj().T @ data.right_vectors, np.eye(k), atol=1e-10)


@given(seeds)
def test_singular_values_unitarily_invariant(seed):
    rng = np.random.default_rng(seed)
    A = complex_matrix(rng, 4, 4)
    U = random_unitary(4, seed)
    V = random_unitary(4, seed + 1)
    assert np.allclose(svd(U @ A @ V).singular_values, svd(A).singular_values, atol=1e-10)


def test_schmidt_known_coefficients():
    state = np.array([2.0, 0.0, 0.0, 1.0]) / math.sqrt(5.0)
    data = schmidt(state, 2, 2)
    assert np.allclose(data.singular_values, [2 / math.sqrt(5), 1 / math.sqrt(5)])
    assert abs(np.sum(data.singular_values**2) - 1.0) < 1e-12


def test_schmidt_product_state_rank_one():
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    v = np.array([1.0, 1j]) / math.sqrt(2.0)
    data = schmidt(np.kron(u, v), 2, 2)
    assert np.allclose(data.singular_values, [1.0, 0.0], atol=1e-12)


def test_schmidt_maximally_entangled():
    state = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    data = schmidt(state, 2, 2)
    assert np.allclose(data.singular_values, [1 / math.sqrt(2)] * 2)


@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_schmidt_reconstructs(seed, dl, dr):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dl * dr) + 1j * rng.standard_normal(dl * dr)
    vec /= np.linalg.norm(vec)
    data = schmidt(vec, dl, dr)
    rebuilt = sum(
        s * np.kron(data.left_vectors[:, i], data.right_vectors[:, i])
        for i, s in enumerate(data.singular_values)
    )
    assert np.allclose(rebuilt, vec, atol=1e-10)


@pytest.mark.parametrize("count, whole", COUNTS)
@pytest.mark.parametrize("slot", range(2))
def test_schmidt_dimensions_must_be_whole_numbers(slot, count, whole):
    state = np.array([2.0, 0.0, 1.0, 1.0j]) / math.sqrt(6.0)

    def build(n):
        dims = [2, 2]
        dims[slot] = n
        data = schmidt(state, *dims)
        return data.singular_values, data.left_vectors, data.right_vectors

    check_count(build, count, whole)


def test_schmidt_rejects_non_unit_vector():
    with pytest.raises(InvalidInputError):
        schmidt([1.0, 1.0, 0.0, 0.0], 2, 2)


def test_schmidt_rejects_wrong_size():
    with pytest.raises(InvalidInputError):
        schmidt([1.0, 0.0, 0.0], 2, 2)


def test_inner_basic():
    assert inner(np.eye(2), [[1, 2], [3, 4]]) == pytest.approx(5.0)


def test_inner_conjugate_linear_in_first_slot(rng):
    X = complex_matrix(rng, 3, 3)
    Y = complex_matrix(rng, 3, 3)
    assert inner(1j * X, Y) == pytest.approx(-1j * inner(X, Y))
    assert inner(X, 1j * Y) == pytest.approx(1j * inner(X, Y))


def test_inner_shape_mismatch():
    with pytest.raises(InvalidInputError):
        inner(np.eye(2), np.eye(3))


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


@given(seeds, st.integers(min_value=1, max_value=5))
def test_psd_sqrt_squares_back(seed, n):
    rng = np.random.default_rng(seed)
    H = random_psd(rng, n)
    R = psd_sqrt(H)
    assert np.allclose(R @ R, H, atol=1e-8 * max(1.0, np.linalg.norm(H)))
    assert is_hermitian(R, tol=1e-8)
    assert np.linalg.eigvalsh(R).min() >= -1e-8


def test_psd_sqrt_clamps_roundoff_negatives():
    H = np.diag([1.0, -1e-14])
    R = psd_sqrt(H)
    assert np.isfinite(R).all()
    assert R[1, 1].real >= 0.0


def test_hermitian_predicate():
    assert is_hermitian([[0, 1j], [-1j, 0]])
    assert not is_hermitian([[0, 1], [0, 0]])
    with pytest.raises(InvalidInputError):
        is_hermitian(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        is_hermitian(np.eye(2), tol=-1.0)


def test_random_unitary_is_unitary_and_deterministic():
    U = random_unitary(4, 9)
    assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-10)
    assert np.array_equal(U, random_unitary(4, 9))
    assert not np.allclose(U, random_unitary(4, 10))
