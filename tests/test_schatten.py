import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supernorms import (
    InvalidExponentError,
    InvalidInputError,
    NormQuery,
    block_norm_bounds,
    dual_exponent,
    duality_witness,
    format_exponent,
    hoelder_gap,
    holder_weights,
    inner,
    parse_exponent,
    pnorm,
    random_unitary,
    require_exponent,
    schatten_norm,
    singular_values,
)

from supernorms.schatten import _spectrum_pnorms

from conftest import COUNTS, check_count, complex_matrix

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]
seeds = st.integers(min_value=0, max_value=2**32 - 1)
exponents = st.sampled_from(EXPONENTS)


@pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan, "x", None])
def test_require_exponent_rejects(bad):
    with pytest.raises(InvalidExponentError):
        require_exponent(bad)


def test_require_exponent_accepts_edge_values():
    assert require_exponent(1) == 1.0
    assert require_exponent("2.5") == 2.5
    assert math.isinf(require_exponent(math.inf))


def test_dual_exponent_values():
    assert math.isinf(dual_exponent(1.0))
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(4.0) == pytest.approx(4.0 / 3.0)


@given(st.floats(min_value=1.0, max_value=100.0))
def test_dual_exponent_involution(p):
    assert dual_exponent(dual_exponent(p)) == pytest.approx(p, rel=1e-12)


def test_parse_and_format_exponent():
    assert math.isinf(parse_exponent("inf"))
    assert parse_exponent(" 2 ") == 2.0
    assert format_exponent(math.inf) == "inf"
    assert parse_exponent(format_exponent(1.5)) == 1.5
    for bad in ("0.5", "-3", "abc", "nan", "Infinity", ""):
        with pytest.raises(InvalidExponentError):
            parse_exponent(bad)
    with pytest.raises(InvalidExponentError):
        parse_exponent(2.0)
    with pytest.raises(InvalidExponentError, match=r"must be a number or \"inf\", got 'nan'"):
        parse_exponent("nan")
    with pytest.raises(InvalidExponentError, match='infinity must be spelled "inf"'):
        parse_exponent("Infinity")


@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_booleans_are_not_exponents(flag):
    message = f"exponent must be a number or inf, got {flag!r}"
    for call in (require_exponent, lambda p: schatten_norm(np.eye(2), p), lambda p: NormQuery(p, 2.0)):
        with pytest.raises(InvalidExponentError) as info:
            call(flag)
        assert str(info.value) == message
    assert require_exponent(np.int64(1)) == 1.0
    assert parse_exponent("1") == 1.0


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("p", EXPONENTS)
def test_schatten_norm_identity(n, p):
    want = 1.0 if math.isinf(p) else n ** (1.0 / p)
    assert schatten_norm(np.eye(n), p) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p", EXPONENTS)
def test_schatten_norm_rank_one(p):
    assert schatten_norm([[0, 1], [0, 0]], p) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_of_signed_unitary_spectrum():
    X = np.diag([0.5, 0.5j, -0.5, -0.5j])
    assert schatten_norm(X, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert schatten_norm(X, math.inf) == pytest.approx(0.5, abs=1e-12)


def test_pnorm_batched_axis():
    vals = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert np.allclose(pnorm(vals, 2.0, axis=-1), [5.0, 1.0])
    assert np.allclose(pnorm(vals, 1.0, axis=0), [4.0, 4.0])
    assert np.allclose(pnorm(vals, math.inf, axis=-1), [4.0, 1.0])


def test_pnorm_peak_scaling_avoids_overflow():
    vals = np.array([1e200, 5e199])
    out = pnorm(vals, 30.0)
    assert np.isfinite(out)
    assert out == pytest.approx(1e200 * (1 + 0.5**30) ** (1 / 30))


def test_pnorm_zero_spectrum():
    assert pnorm(np.zeros(3), 2.5) == 0.0


@pytest.mark.parametrize("p", EXPONENTS)
def test_empty_spectra_have_norm_zero_and_empty_weights(p):
    # every exponent answers as p = 1 and q = inf always did
    assert pnorm([], p) == 0.0
    assert _spectrum_pnorms(np.zeros((1, 0)), [p]) == [[0.0]]
    np.testing.assert_array_equal(pnorm(np.zeros((3, 0)), p), np.zeros(3))
    assert holder_weights([], p).shape == (0,)
    assert holder_weights(np.zeros((3, 0)), p).shape == (3, 0)


def _reference_pnorm(values, p):
    # pnorm's batched formula on one spectrum: keepdims peak, squeezed scale
    a = np.abs(np.asarray(values, dtype=float))
    if math.isinf(p):
        return float(a.max(axis=-1))
    if p < 1.0001:
        a = np.where(a < 1e-300, 0.0, a)
    if p == 1.0:
        return float(a.sum(axis=-1))
    peak = a.max(axis=-1, keepdims=True)
    safe = np.where(peak > 0.0, peak, 1.0)
    return float(((a / safe) ** p).sum(axis=-1) ** (1.0 / p) * np.squeeze(safe, axis=-1))


def _table_spectra():
    rng = np.random.default_rng(2027)
    for n in range(1, 13):
        for scale in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300):
            s = np.sort(rng.random(n))[::-1] * scale
            yield s
            yield np.where(rng.random(n) < 0.4, 0.0, s)  # with zeros
        yield np.zeros(n)
        tiny = rng.random(n) * 1e-301  # every entry under the floor
        yield tiny
        yield np.concatenate([rng.random(n), tiny])  # some entries under it
        yield -rng.standard_normal(n)  # signed, as eigenvalue spectra are


def _table_stacks():
    # stacks of 1 to 9 rows of 1 to 9 entries, at scales from 1e-300 to 1e300
    # per row, with zero entries, all-zero rows and entries under the floor
    rng = np.random.default_rng(2028)
    for length in range(1, 10):
        for rows in range(1, 10):
            scale = 10.0 ** rng.uniform(-300, 300, size=(rows, 1))
            stack = np.sort(rng.random((rows, length)), axis=-1)[:, ::-1] * scale
            stack[rng.random((rows, length)) < 0.3] = 0.0
            stack[rng.random(rows) < 0.2] = 0.0
            tiny = rng.random((rows, length)) < 0.2
            stack[tiny] = rng.random(int(tiny.sum())) * 1e-301
            yield stack


def test_spectrum_pnorms_match_pnorm_bit_for_bit():
    exponents = (1.0, 1.00005, 1.5, 2.0, 3.0, 7.3, math.inf)
    count = 0
    # each table spectrum as a one-row stack, then stacks of several rows;
    # every row reads as pnorm and its batched formula read it alone
    stacks = [s[None] for s in _table_spectra()] + list(_table_stacks())
    for stack in stacks:
        got = _spectrum_pnorms(stack, exponents)
        assert len(got) == len(exponents) and all(len(norms) == len(stack) for norms in got)
        for row, norms in zip(stack, zip(*got)):
            assert all(type(v) is float for v in norms)
            for p, v in zip(exponents, norms):
                want = _reference_pnorm(row, p)
                assert v.hex() == want.hex() == float(pnorm(row, p)).hex(), (row, p)
            count += 1
    assert count == 12 * 18 + 9 * 45
    # an empty stack has no rows, and rows of no entries have norm 0
    assert _spectrum_pnorms(np.zeros((0, 3)), exponents) == [[]] * len(exponents)
    assert _spectrum_pnorms(np.zeros((2, 0)), exponents) == [[0.0, 0.0]] * len(exponents)


def test_singular_values_sorted():
    s = singular_values([[0, 3], [1, 0]])
    assert np.allclose(s, [3.0, 1.0])


def test_holder_weights_q1_is_signed_one_hot():
    w = holder_weights(np.array([1.0, -3.0, 2.0]), 1.0)
    assert np.allclose(w, [0.0, -1.0, 0.0])


def test_holder_weights_q1_tie_takes_first():
    w = holder_weights(np.array([2.0, -2.0]), 1.0)
    assert np.allclose(w, [1.0, 0.0])


def test_holder_weights_qinf_is_sign_vector():
    w = holder_weights(np.array([0.5, -0.25, 0.0]), math.inf)
    assert np.allclose(w, [1.0, -1.0, 0.0])


def test_holder_weights_q2_normalizes():
    v = np.array([3.0, -4.0])
    assert np.allclose(holder_weights(v, 2.0), v / 5.0)


def test_holder_weights_zero_rows():
    w = holder_weights(np.zeros((2, 3)), 1.5)
    assert np.allclose(w, 0.0)


@given(seeds, exponents)
def test_holder_weights_attain_dual_norm(seed, q):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(5)
    w = holder_weights(v, q)
    assert pnorm(w, q) == pytest.approx(1.0, abs=1e-10)
    assert float(np.sum(v * w)) == pytest.approx(float(pnorm(v, dual_exponent(q))), abs=1e-10)


def test_duality_witness_identity_p1():
    Y = duality_witness(np.eye(2), 1.0)
    assert np.allclose(Y, np.eye(2) / 1.0)
    assert inner(Y, np.eye(2)).real == pytest.approx(2.0)


def test_duality_witness_rank_one_self():
    X = np.array([[0.0, 0.7], [0.0, 0.0]])
    Y = duality_witness(X, 2.0)
    assert np.allclose(Y, X / 0.7)


def test_duality_witness_p2_known_value():
    X = np.diag([2.0, 1.0])
    Y = duality_witness(X, 2.0)
    assert inner(Y, X).real == pytest.approx(math.sqrt(5.0))
    assert schatten_norm(Y, 2.0) == pytest.approx(1.0)


def test_duality_witness_zero_matrix():
    with pytest.raises(InvalidInputError):
        duality_witness(np.zeros((2, 2)), 2.0)


@given(seeds, exponents)
def test_duality_witness_attains_norm(seed, p):
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 4, 3)
    Y = duality_witness(X, p)
    assert inner(Y, X).real == pytest.approx(schatten_norm(X, p), abs=1e-9)
    assert abs(inner(Y, X).imag) < 1e-9
    assert schatten_norm(Y, dual_exponent(p)) == pytest.approx(1.0, abs=1e-10)


def test_block_bounds_identity_p1():
    assert block_norm_bounds(np.eye(4), 2, 2, 1.0) == pytest.approx((8.0, 16.0))


def test_block_bounds_partition_validation():
    with pytest.raises(InvalidInputError):
        block_norm_bounds(np.eye(4), 3, 2, 2.0)
    with pytest.raises(InvalidInputError):
        block_norm_bounds(np.eye(4), 0, 2, 2.0)


@pytest.mark.parametrize("count, whole", COUNTS)
@pytest.mark.parametrize("slot", range(2))
def test_block_counts_must_be_whole_numbers(slot, count, whole):
    X = complex_matrix(np.random.default_rng(5), 4, 4)

    def build(n):
        counts = [2, 2]
        counts[slot] = n
        return block_norm_bounds(X, *counts, 1.5)

    check_count(build, count, whole)


def _per_block_bounds(X, block_rows, block_cols, p):
    # the per-block formula, one schatten_norm call per block: the reference
    # that block_norm_bounds's batched SVD of the blocks must match bit for bit
    h, w = X.shape[0] // block_rows, X.shape[1] // block_cols
    blocks_sq = 0.0
    for i in range(block_rows):
        for j in range(block_cols):
            blocks_sq += schatten_norm(X[i * h : (i + 1) * h, j * w : (j + 1) * w], p) ** 2
    return float(blocks_sq), float(schatten_norm(X, p) ** 2)


def test_block_bounds_match_the_per_block_formula_bit_for_bit():
    rng = np.random.default_rng(2026)
    for block_rows in (1, 2, 3):
        for block_cols in (1, 2, 3):
            for _ in range(8):
                h, w = (int(v) for v in rng.integers(1, 4, size=2))
                X = complex_matrix(rng, block_rows * h, block_cols * w)
                for p in EXPONENTS:
                    got = block_norm_bounds(X, block_rows, block_cols, p)
                    want = _per_block_bounds(X, block_rows, block_cols, p)
                    assert got == want, (block_rows, block_cols, h, w, p)
                    assert all(type(v) is float for v in got)


@given(seeds, exponents)
def test_block_bounds_direction(seed, p):
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 6, 4)
    blocks_sq, full_sq = block_norm_bounds(X, 3, 2, p)
    if p == 2.0:
        assert blocks_sq == pytest.approx(full_sq, abs=1e-9)
    elif p < 2.0:
        assert blocks_sq <= full_sq + 1e-9
    else:
        assert blocks_sq >= full_sq - 1e-9


@given(seeds, exponents)
def test_hoelder_gap_nonnegative(seed, p):
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 3, 5)
    Y = complex_matrix(rng, 3, 5)
    assert hoelder_gap(X, Y, p) >= -1e-9


@given(seeds, exponents)
def test_hoelder_gap_tight_at_witness(seed, p):
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 4, 4)
    assert hoelder_gap(X, duality_witness(X, p), p) == pytest.approx(0.0, abs=1e-9)


def test_hoelder_gap_shape_mismatch():
    with pytest.raises(InvalidInputError):
        hoelder_gap(np.eye(2), np.eye(3), 2.0)


@given(seeds)
def test_schatten_norm_monotone_in_p(seed):
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 4, 4)
    vals = [schatten_norm(X, p) for p in EXPONENTS]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo + 1e-10


@given(seeds, exponents)
def test_schatten_norm_triangle_and_scaling(seed, p):
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 3, 4)
    Y = complex_matrix(rng, 3, 4)
    assert schatten_norm(X + Y, p) <= schatten_norm(X, p) + schatten_norm(Y, p) + 1e-9
    assert schatten_norm(-2.5j * X, p) == pytest.approx(2.5 * schatten_norm(X, p), rel=1e-10)


@given(seeds, exponents)
def test_schatten_norm_unitarily_invariant(seed, p):
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 4, 4)
    U = random_unitary(4, seed)
    V = random_unitary(4, seed + 1)
    assert schatten_norm(U @ X @ V, p) == pytest.approx(schatten_norm(X, p), rel=1e-9)


def test_schatten_norm_rejects_bad_exponent():
    with pytest.raises(InvalidExponentError):
        schatten_norm(np.eye(2), 0.25)
