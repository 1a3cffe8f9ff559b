import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supernorms import (
    EXAMPLE_NAMES,
    InvalidInputError,
    UnsupportedInstanceError,
    apply,
    build_example,
    difference,
    is_completely_positive,
    is_trace_preserving,
    random_cp_channel,
    random_superop,
    random_unitary,
    schatten_norm,
)

from conftest import COUNTS, check_count, complex_matrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_example_names_cover_builders():
    assert set(EXAMPLE_NAMES) == {
        "simple_nonhermitian",
        "qinf_nonhermitian",
        "depolarizing_pair",
        "dim4_pair",
        "transpose(n)",
    }


def test_unknown_example_name():
    with pytest.raises(InvalidInputError):
        build_example("mystery")
    with pytest.raises(InvalidInputError):
        build_example(42)
    with pytest.raises(InvalidInputError):
        build_example("transpose(0)")
    with pytest.raises(InvalidInputError):
        build_example("transpose(2")


def test_transpose_names_and_action(rng):
    T = build_example("transpose(3)")
    alias = build_example("transpose-3")
    assert np.array_equal(T.kraus_left, alias.kraus_left)
    X = complex_matrix(rng, 3, 3)
    assert np.allclose(apply(T, X), X.T)
    # term 3 i + j is exactly |i><j| on the left and |j><i| on the right
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3))
            unit[i, j] = 1.0
            assert np.array_equal(T.kraus_left[3 * i + j], unit)
            assert np.array_equal(T.kraus_right[3 * i + j], unit.T)


def test_transpose_over_the_size_limit_is_refused_before_any_allocation(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the Kraus stack was built")

    monkeypatch.setattr(np, "eye", never)
    # 91^4 entries per Kraus stack exceed the 2^26 limit, 90^4 do not
    for name in ("transpose(91)", "transpose-100", "transpose(100000)"):
        with pytest.raises(UnsupportedInstanceError, match="over the limit of 67108864"):
            build_example(name)
    with pytest.raises(AssertionError, match="the Kraus stack was built"):
        build_example("transpose(90)")


def test_simple_example_action():
    simple = build_example("simple_nonhermitian")
    out = apply(simple, [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(out, [[2.0, 0.0], [0.0, 0.0]])


def test_qinf_example_action():
    qinf = build_example("qinf_nonhermitian")
    out = apply(qinf, [[1.0, 5.0], [6.0, 3.0]])
    assert np.allclose(out, [[(1.0 + 3.0j) / 2.0, 0.0], [0.0, 0.0]])


def test_depolarizing_pair(rng):
    ident, depol = build_example("depolarizing_pair")
    X = complex_matrix(rng, 2, 2)
    assert np.allclose(apply(ident, X), X)
    assert np.allclose(apply(depol, X), np.trace(X) / 2.0 * np.eye(2))
    assert is_completely_positive(depol)
    assert is_trace_preserving(depol)


def test_dim4_pair_maps_are_channels():
    phi0, phi1 = build_example("dim4_pair")
    for phi in (phi0, phi1):
        assert (phi.dim_in, phi.dim_out) == (2, 4)
        assert is_completely_positive(phi)
        assert is_trace_preserving(phi)


def test_dim4_difference_trace_norm_profile():
    """The trace norm of the difference on a pure state has a closed form in
    the overlaps with the computational and Hadamard bases."""
    d4 = difference(*build_example("dim4_pair"))
    rng = np.random.default_rng(2024)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    worst = 0.0
    for _ in range(10_000):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        got = schatten_norm(apply(d4, np.outer(psi, psi.conj())), 1.0)
        want = abs(abs(psi[0]) ** 2 - abs(psi[1]) ** 2) + abs(
            abs(plus @ psi.conj()) ** 2 - abs(minus @ psi.conj()) ** 2
        )
        worst = max(worst, abs(got - want))
    assert worst < 1e-9


@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
def test_random_cp_channel_is_cptp(seed, dims):
    din, dout = dims
    phi = random_cp_channel(din, dout, 2, seed)
    assert (phi.dim_in, phi.dim_out) == (din, dout)
    assert phi.cp_form
    assert is_completely_positive(phi)
    assert is_trace_preserving(phi)


def test_random_cp_channel_completion_when_output_is_smaller():
    phi = random_cp_channel(4, 2, 1, 0)
    assert is_trace_preserving(phi)
    assert phi.n_terms >= math.ceil(4 / 2) + 1


def test_random_generators_are_deterministic():
    a = random_superop(2, 3, 2, 77)
    b = random_superop(2, 3, 2, 77)
    assert np.array_equal(a.kraus_left, b.kraus_left)
    assert np.array_equal(a.kraus_right, b.kraus_right)
    c = random_superop(2, 3, 2, 78)
    assert not np.allclose(a.kraus_left, c.kraus_left)

    x = random_cp_channel(3, 2, 2, 5)
    y = random_cp_channel(3, 2, 2, 5)
    assert np.array_equal(x.kraus_left, y.kraus_left)


@pytest.mark.parametrize("count, whole", COUNTS)
@pytest.mark.parametrize(
    "factory, arity, slot",
    [(f, 4, i) for f in (random_superop, random_cp_channel) for i in range(4)]
    + [(random_unitary, 2, i) for i in range(2)],
)
def test_generator_sizes_and_seeds_must_be_whole_numbers(factory, arity, slot, count, whole):
    def build(n):
        args = [2] * (arity - 1) + [3]  # sizes, then the seed
        args[slot] = n
        out = factory(*args)
        return (out,) if isinstance(out, np.ndarray) else (out.kraus_left, out.kraus_right)

    check_count(build, count, whole)


@pytest.mark.parametrize(
    "build",
    [
        lambda seed: random_superop(2, 2, 2, seed),
        lambda seed: random_cp_channel(2, 2, 2, seed),
        lambda seed: random_unitary(2, seed),
    ],
    ids=["random_superop", "random_cp_channel", "random_unitary"],
)
@pytest.mark.parametrize("seed", [-1, np.int64(-3), -2.0])
def test_generators_refuse_negative_seeds(build, seed):
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        build(seed)
    build(0)


def test_random_superop_is_generally_not_cp():
    phi = random_superop(2, 2, 2, 123)
    assert not phi.cp_form
    assert not is_completely_positive(phi)
