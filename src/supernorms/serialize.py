"""JSON formats for matrices and channels.

Matrix files::

    {"rows": 2, "cols": 2, "entries": [[re, im], [re, im], ...]}

with entries in row-major order.  Channel files::

    {"dim_in": 2, "dim_out": 2, "kraus_left": [<matrix>, ...], "kraus_right": [...]}

``kraus_right`` is optional; omitting it means the map is given in completely
positive form (right list equals the left list).  Non-finite numbers are
rejected on both read and write.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix
from .superop import SuperOp


def _loads(text: str):
    def bad_constant(token):
        raise InvalidInputError(f"non-finite number in input: {token}")

    try:
        return json.loads(text, parse_constant=bad_constant)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInputError("malformed JSON: nested too deeply") from exc


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def matrix_to_obj(X) -> dict:
    A = as_matrix(X)
    rows, cols = A.shape
    entries = [[float(z.real), float(z.imag)] for z in A.reshape(-1)]
    return {"rows": int(rows), "cols": int(cols), "entries": entries}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvalidInputError("matrix object must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise InvalidInputError(f"matrix object is missing {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_int(rows) and _is_int(cols)) or rows < 1 or cols < 1:
        raise InvalidInputError("rows and cols must be positive integers")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InvalidInputError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix"
        )
    flat = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise InvalidInputError(f"entry {i} must be a [re, im] pair of numbers")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise InvalidInputError(f"entry {i} must be finite")
        flat[i] = complex(re, im)
    return as_matrix(flat.reshape(rows, cols))


def matrix_to_json(X) -> str:
    return json.dumps(matrix_to_obj(X), separators=(",", ":"))


def matrix_from_json(text: str) -> np.ndarray:
    return matrix_from_obj(_loads(text))


def channel_to_obj(phi: SuperOp) -> dict:
    obj = {
        "dim_in": phi.dim_in,
        "dim_out": phi.dim_out,
        "kraus_left": [matrix_to_obj(m) for m in phi.kraus_left],
    }
    if not phi.cp_form:
        obj["kraus_right"] = [matrix_to_obj(m) for m in phi.kraus_right]
    return obj


def channel_from_obj(obj) -> SuperOp:
    if not isinstance(obj, dict):
        raise InvalidInputError("channel object must be a JSON object")
    for key in ("dim_in", "dim_out", "kraus_left"):
        if key not in obj:
            raise InvalidInputError(f"channel object is missing {key!r}")
    dim_in, dim_out = obj["dim_in"], obj["dim_out"]
    if not (_is_int(dim_in) and _is_int(dim_out)) or dim_in < 1 or dim_out < 1:
        raise InvalidInputError("dim_in and dim_out must be positive integers")
    for key in ("kraus_left", "kraus_right"):
        if not isinstance(obj.get(key, []), list):
            raise InvalidInputError(f"{key} must be a list of matrices")
    left = [matrix_from_obj(m) for m in obj["kraus_left"]]
    right = [matrix_from_obj(m) for m in obj["kraus_right"]] if "kraus_right" in obj else None
    phi = SuperOp.from_kraus(left, right)
    if (phi.dim_out, phi.dim_in) != (dim_out, dim_in):
        raise InvalidInputError(
            f"every Kraus matrix must be {dim_out}x{dim_in}, got {phi.dim_out}x{phi.dim_in}"
        )
    return phi


def channel_to_json(phi: SuperOp) -> str:
    return json.dumps(channel_to_obj(phi), separators=(",", ":"))


def channel_from_json(text: str) -> SuperOp:
    return channel_from_obj(_loads(text))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(fh.read())


def load_channel(path) -> SuperOp:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_json(fh.read())
