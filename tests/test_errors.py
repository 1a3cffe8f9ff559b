"""One table of refusals: every public entry point that takes a count, seed or
size refuses the value just below its minimum, or an instance over the array
limit, with the one message form of ``supernorms.errors``; ``pnorm`` and
``holder_weights`` refuse a malformed spectrum or axis the same way."""

import math

import numpy as np
import pytest

from supernorms import optimize
from supernorms import (
    InvalidInputError,
    NormQuery,
    OptimizerConfig,
    UnsupportedInstanceError,
    block_norm_bounds,
    brute_force_oracle,
    build_example,
    claim_ids,
    claim_tolerance,
    explore_open_question,
    holder_weights,
    identity_superop,
    norm_q_to_p,
    pnorm,
    random_cp_channel,
    random_superop,
    random_unitary,
    schmidt,
    tensor_identity,
    verify,
)

QUBIT = np.array([1.0, 0.0])
GRID = (1.0, 1.5, 2.0, 3.0, float("inf"))

REFUSALS = [
    ("random_superop(0, 2, 2, 1)", lambda: random_superop(0, 2, 2, 1), "dim_in must be >= 1, got 0"),
    ("random_superop(2, 0, 2, 1)", lambda: random_superop(2, 0, 2, 1), "dim_out must be >= 1, got 0"),
    ("random_superop(2, 2, 0, 1)", lambda: random_superop(2, 2, 0, 1), "n_terms must be >= 1, got 0"),
    ("random_superop(2, 2, 2, -1)", lambda: random_superop(2, 2, 2, -1), "seed must be >= 0, got -1"),
    ("random_cp_channel(0, 2, 2, 1)", lambda: random_cp_channel(0, 2, 2, 1), "dim_in must be >= 1, got 0"),
    ("random_cp_channel(2, 0, 2, 1)", lambda: random_cp_channel(2, 0, 2, 1), "dim_out must be >= 1, got 0"),
    ("random_cp_channel(2, 2, 0, 1)", lambda: random_cp_channel(2, 2, 0, 1), "n_kraus must be >= 1, got 0"),
    ("random_cp_channel(2, 2, 2, -1)", lambda: random_cp_channel(2, 2, 2, -1), "seed must be >= 0, got -1"),
    ("random_unitary(0, 1)", lambda: random_unitary(0, 1), "dim must be >= 1, got 0"),
    ("random_unitary(2, -1)", lambda: random_unitary(2, -1), "seed must be >= 0, got -1"),
    ("transpose(0)", lambda: build_example("transpose(0)"), "transpose dimension must be >= 1, got 0"),
    ("identity_superop(0)", lambda: identity_superop(0), "dim must be >= 1, got 0"),
    ("tensor_identity(phi, 0)", lambda: tensor_identity(identity_superop(2), 0), "ancilla_dim must be >= 1, got 0"),
    ("schmidt(state, 0, 2)", lambda: schmidt(QUBIT, 0, 2), "dim_left must be >= 1, got 0"),
    ("schmidt(state, 2, 0)", lambda: schmidt(QUBIT, 2, 0), "dim_right must be >= 1, got 0"),
    ("block_norm_bounds(X, 0, 1, 2)", lambda: block_norm_bounds(np.eye(2), 0, 1, 2), "block_rows must be >= 1, got 0"),
    ("block_norm_bounds(X, 1, 0, 2)", lambda: block_norm_bounds(np.eye(2), 1, 0, 2), "block_cols must be >= 1, got 0"),
    ("NormQuery stabilize_dim", lambda: NormQuery(1.0, 1.0, False, -1), "stabilize_dim must be >= 0, got -1"),
    ("OptimizerConfig restarts", lambda: OptimizerConfig(restarts=0), "restarts must be >= 1, got 0"),
    ("OptimizerConfig max_iterations", lambda: OptimizerConfig(max_iterations=0), "max_iterations must be >= 1, got 0"),
    ("OptimizerConfig seed", lambda: OptimizerConfig(seed=-1), "seed must be >= 0, got -1"),
    (
        "brute_force_oracle resolution",
        lambda: brute_force_oracle(identity_superop(2), NormQuery(1.0, 1.0), 1),
        "resolution must be >= 2, got 1",
    ),
    (
        "explore_open_question samples",
        lambda: explore_open_question(identity_superop(2), 1, samples=0),
        "samples must be >= 1, got 0",
    ),
    ("verify trials", lambda: verify("duality", trials=0), "trials must be >= 1, got 0"),
    ("verify restarts", lambda: verify("duality", trials=2, restarts=0), "restarts must be >= 1, got 0"),
    ("pnorm(str)", lambda: pnorm("abc", 2), "pnorm entries must be real numbers: got dtype <U3"),
    ("pnorm(complex)", lambda: pnorm([[1 + 1j]], 2), "pnorm entries must be real numbers: got dtype complex128"),
    ("pnorm(0-d)", lambda: pnorm(3.0, 2), "pnorm needs an array of at least one axis, got a scalar"),
    ("pnorm(axis=1)", lambda: pnorm(np.ones(3), 2, axis=1), "pnorm axis must be an integer in [-1, 1), got 1"),
    ("pnorm(nan)", lambda: pnorm([1, math.nan], 2), "pnorm entries must be finite (no NaN or Inf)"),
    ("pnorm(inf)", lambda: pnorm([1, math.inf], 2), "pnorm entries must be finite (no NaN or Inf)"),
    (
        "holder_weights(0-d)",
        lambda: holder_weights(3.0, 1),
        "holder_weights needs an array of at least one axis, got a scalar",
    ),
    (
        "holder_weights(complex)",
        lambda: holder_weights([1j], 2),
        "holder_weights entries must be real numbers: got dtype complex128",
    ),
    ("holder_weights(nan)", lambda: holder_weights([1, math.nan], 3), "holder_weights entries must be finite (no NaN or Inf)"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_below_the_minimum_is_refused_with_one_message(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message


# a count too long to spell out is refused by its digits, before int() reads it
LONG = "1" + "0" * 5000
OVER_THE_LIMIT = [
    ("transpose(<5001 digits>)", lambda: build_example(f"transpose({LONG})"), "transpose dimension of 5001 digits"),
    ("transpose-<5001 digits>", lambda: build_example(f"transpose-{LONG}"), "transpose dimension of 5001 digits"),
    ("transpose(<9 digits>)", lambda: build_example("transpose(100000000)"), "transpose dimension of 9 digits"),
]


@pytest.mark.parametrize("call, what", [row[1:] for row in OVER_THE_LIMIT], ids=[row[0] for row in OVER_THE_LIMIT])
def test_over_the_limit_is_refused_with_one_message(call, what):
    with pytest.raises(UnsupportedInstanceError) as info:
        call()
    assert str(info.value) == f"{what} is over the limit of 67108864"


def test_leading_zeros_do_not_count_as_digits():
    assert build_example("transpose-" + "0" * 5000 + "2").dim_in == 2


def never(*args, **kwargs):
    raise AssertionError("the instance was built")


def test_oversized_query_is_refused_before_the_ascent(monkeypatch):
    phi = random_superop(2, 2, 2, 1)
    monkeypatch.setattr("supernorms.optimize._ascend", never)
    with pytest.raises(UnsupportedInstanceError) as info:
        norm_q_to_p(phi, NormQuery(1.0, 1.0), OptimizerConfig(restarts=10**8))
    assert str(info.value) == (
        "a 2->2 map with 100000000 restarts and 2 terms needs 800000000 entries, over the limit of 67108864"
    )


def test_oversized_stack_of_cells_is_refused_before_the_ascent(monkeypatch):
    # 200000 restarts of one cell fit; the 50 cells of one stacked ascent do not
    phi = random_superop(2, 2, 2, 1)
    cfg = OptimizerConfig(restarts=200_000)
    monkeypatch.setattr("supernorms.optimize._ascend", never)
    queries = [NormQuery(q, p, herm) for herm in (False, True) for q in GRID for p in GRID]
    with pytest.raises(UnsupportedInstanceError) as info:
        optimize._norms(phi, queries, cfg)
    assert str(info.value) == (
        "a 2->2 map with 50 cells x 200000 restarts and 2 terms needs 80000000 entries, over the limit of 67108864"
    )
    # the stabilized cells count the ancilla of their own ascent
    stacked = [NormQuery(1.0, p, False, 3) for p in GRID] + [NormQuery(2.0, 2.0)]
    with pytest.raises(UnsupportedInstanceError) as info:
        optimize._norms(phi, stacked, cfg, reduce=False)
    assert str(info.value) == (
        "stabilize_dim 3 on a 2->2 map with 5 cells x 200000 restarts and 2 terms needs 72000000 entries, "
        "over the limit of 67108864"
    )
    with pytest.raises(AssertionError, match="the instance was built"):
        optimize._norms(phi, queries[:1], cfg)


def test_oversized_tensor_identity_is_refused_before_it_is_built(monkeypatch):
    phi = random_superop(2, 2, 2, 1)
    monkeypatch.setattr(np, "eye", never)
    with pytest.raises(UnsupportedInstanceError) as info:
        tensor_identity(phi, 2897)
    assert str(info.value) == "ancilla_dim 2897 needs 67140872 entries, over the limit of 67108864"


def test_oversized_transpose_example_is_refused_before_it_is_built(monkeypatch):
    monkeypatch.setattr(np, "eye", never)
    with pytest.raises(UnsupportedInstanceError) as info:
        build_example("transpose(91)")
    assert str(info.value) == "transpose(91) needs 68574961 entries, over the limit of 67108864"


@pytest.mark.parametrize("flag", ["False", 0, 1, None, np.int64(1)])
def test_hermitian_flag_must_be_a_bool(flag):
    with pytest.raises(InvalidInputError) as info:
        NormQuery(1.0, 1.0, flag)
    assert str(info.value) == f"hermitian_restricted must be a bool, got {flag!r}"


def test_hermitian_flag_accepts_numpy_bools():
    assert NormQuery(1.0, 1.0, np.bool_(True)).hermitian_restricted is True
    assert NormQuery(1.0, 1.0, np.bool_(False)).hermitian_restricted is False


@pytest.mark.parametrize("lookup", [claim_tolerance, verify], ids=["claim_tolerance", "verify"])
def test_unknown_claim_id_has_one_message(lookup):
    with pytest.raises(InvalidInputError) as info:
        lookup("x")
    assert str(info.value) == f"unknown claim id 'x'; known: {', '.join(claim_ids())}"
