import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supernorms import (
    InvalidInputError,
    apply,
    build_example,
    channel_from_json,
    channel_from_obj,
    channel_to_json,
    channel_to_obj,
    load_channel,
    load_matrix,
    matrix_from_json,
    matrix_from_obj,
    matrix_to_json,
    matrix_to_obj,
    random_superop,
)

from conftest import complex_matrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_matrix_obj_shape():
    obj = matrix_to_obj([[1, 2j], [3, 4]])
    assert obj == {
        "rows": 2,
        "cols": 2,
        "entries": [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]],
    }


@given(seeds, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_matrix_roundtrip(seed, rows, cols):
    rng = np.random.default_rng(seed)
    A = complex_matrix(rng, rows, cols)
    assert np.array_equal(matrix_from_json(matrix_to_json(A)), A)


def test_matrix_json_is_byte_deterministic():
    A = [[0.1, 0.2], [0.3, 0.4]]
    assert matrix_to_json(A) == matrix_to_json(A)
    assert " " not in matrix_to_json(A)


def test_matrix_to_obj_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        matrix_to_obj([[np.nan, 0], [0, 1]])


def test_matrix_from_json_rejects_nonfinite_token():
    text = '{"rows":1,"cols":1,"entries":[[NaN,0.0]]}'
    with pytest.raises(InvalidInputError):
        matrix_from_json(text)
    text = '{"rows":1,"cols":1,"entries":[[Infinity,0.0]]}'
    with pytest.raises(InvalidInputError):
        matrix_from_json(text)


def test_matrix_from_json_rejects_malformed_text():
    with pytest.raises(InvalidInputError):
        matrix_from_json("{not json")


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"rows": 2, "cols": 2},
        {"rows": 0, "cols": 2, "entries": []},
        {"rows": 2.0, "cols": 2, "entries": [[0, 0]] * 4},
        {"rows": 2, "cols": 2, "entries": [[0, 0]] * 3},
        {"rows": 1, "cols": 1, "entries": [[0.0]]},
        {"rows": 1, "cols": 1, "entries": [[0.0, "x"]]},
        {"rows": 1, "cols": 1, "entries": [[0.0, True]]},
        {"rows": 1, "cols": 1, "entries": [0.0]},
        {"rows": True, "cols": True, "entries": [[2.0, 0.0]]},
    ],
)
def test_matrix_from_obj_rejects_bad_objects(obj):
    with pytest.raises(InvalidInputError):
        matrix_from_obj(obj)


def test_channel_obj_omits_right_list_in_cp_form():
    phi = build_example("transpose(2)")
    obj = channel_to_obj(phi)
    assert "kraus_right" in obj
    ident = build_example("depolarizing_pair")[0]
    assert "kraus_right" not in channel_to_obj(ident)
    assert channel_from_obj(channel_to_obj(ident)).cp_form


@given(seeds)
def test_channel_roundtrip(seed):
    phi = random_superop(2, 3, 2, seed)
    back = channel_from_json(channel_to_json(phi))
    assert np.array_equal(back.kraus_left, phi.kraus_left)
    assert np.array_equal(back.kraus_right, phi.kraus_right)
    rng = np.random.default_rng(seed)
    X = complex_matrix(rng, 2, 2)
    assert np.allclose(apply(back, X), apply(phi, X))


def test_channel_json_is_byte_deterministic():
    phi = random_superop(2, 2, 2, 3)
    assert channel_to_json(phi) == channel_to_json(phi)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("dim_in"),
        lambda obj: obj.update(dim_in=0),
        lambda obj: obj.update(dim_in="2"),
        lambda obj: obj.update(kraus_left=[]),
        lambda obj: obj.update(kraus_right=obj["kraus_left"][:1] * 2),
        lambda obj: obj["kraus_left"][0].update(rows=3),
        lambda obj: obj.update(kraus_right=5),
        lambda obj: obj.update(kraus_right={"rows": 2}),
        lambda obj: obj.update(kraus_right=[]),
        lambda obj: obj["kraus_right"].append(matrix_to_obj(np.eye(2))),
        lambda obj: obj["kraus_left"].append(matrix_to_obj(np.ones((3, 2)))),
    ],
)
def test_channel_from_obj_rejects_bad_objects(mutate):
    obj = json.loads(channel_to_json(random_superop(2, 2, 1, 0)))
    mutate(obj)
    with pytest.raises(InvalidInputError):
        channel_from_obj(obj)


def test_channel_dimensions_must_not_be_booleans():
    # a 1 -> 1 map, so the Kraus shapes alone would accept true == 1
    obj = {"dim_in": 1, "dim_out": 1, "kraus_left": [matrix_to_obj(np.eye(1))]}
    assert channel_from_obj(obj).dim_in == 1
    for key in ("dim_in", "dim_out"):
        with pytest.raises(InvalidInputError):
            channel_from_obj(dict(obj, **{key: True}))


def test_deeply_nested_json_is_invalid_input():
    text = "[" * 200000
    with pytest.raises(InvalidInputError, match="nested too deeply"):
        matrix_from_json(text)
    with pytest.raises(InvalidInputError, match="nested too deeply"):
        channel_from_json(text)


def test_channel_right_list_length_must_match():
    obj = json.loads(channel_to_json(random_superop(2, 2, 2, 1)))
    obj["kraus_right"] = obj["kraus_right"][:1]
    with pytest.raises(InvalidInputError):
        channel_from_obj(obj)


def test_channel_dimensions_must_match_the_kraus_matrices():
    obj = json.loads(channel_to_json(random_superop(2, 3, 2, 1)))
    assert channel_from_obj(obj).dim_out == 3
    for key, value in (("dim_in", 3), ("dim_out", 2)):
        with pytest.raises(InvalidInputError, match="every Kraus matrix must be"):
            channel_from_obj(dict(obj, **{key: value}))
    # the right list alone has other shapes
    obj["kraus_right"] = [matrix_to_obj(np.ones((2, 2)))] * 2
    with pytest.raises(InvalidInputError, match="must match in length and shape"):
        channel_from_obj(obj)


def test_load_matrix_and_channel(tmp_path):
    A = np.array([[1.0, 2.0], [3.0, 4.0 + 1j]])
    mpath = tmp_path / "m.json"
    mpath.write_text(matrix_to_json(A), encoding="utf-8")
    assert np.array_equal(load_matrix(mpath), A)

    phi = random_superop(2, 2, 2, 9)
    cpath = tmp_path / "c.json"
    cpath.write_text(channel_to_json(phi), encoding="utf-8")
    assert np.array_equal(load_channel(cpath).kraus_left, phi.kraus_left)
