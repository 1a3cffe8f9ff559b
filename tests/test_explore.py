import pytest

from supernorms import (
    InvalidInputError,
    PreconditionError,
    UnsupportedInstanceError,
    build_example,
    explore_open_question,
    identity_superop,
    random_cp_channel,
    random_superop,
)


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
