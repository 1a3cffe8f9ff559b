"""Golden CLI outputs as a gate: every roster case must reproduce its committed
output. Keys, booleans, integers and strings match exactly; floats match to
``REL_TOL`` relative, because BLAS kernels on other machines move last bits
(see ``tests/golden/regenerate.py`` for the roster and how to rewrite it)."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).with_name("golden")))

from regenerate import CASES, GOLDEN, run_case  # noqa: E402

# OpenBLAS's Haswell and Sandybridge kernels moved verify floats by up to
# 2.5e-11 against the default kernel, and roster values by 1.5e-15 relative
REL_TOL = 1e-9


def assert_close(got, want, where: str = "") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            # which case attains a residual at rounding level is itself rounding
            if key == "worst_case" and want.get("residual", math.inf) < REL_TOL:
                continue
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert got == want or abs(got - want) <= REL_TOL * max(1.0, abs(got), abs(want)), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_golden(case):
    want = (GOLDEN / f"{case}.out").read_text(encoding="utf-8").splitlines()
    got = run_case(case).splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert_close(json.loads(g), json.loads(w), f"{case} line {i}")


def test_golden_comparison_tolerates_only_rounding():
    record = {"value": 2.0, "converged": True, "seed": 3, "worst_case": "q=1.0,p=1.5"}
    assert_close(dict(record, value=2.0 + 1e-10), record)
    with pytest.raises(AssertionError):
        assert_close(dict(record, value=2.0 + 1e-8), record)
    with pytest.raises(AssertionError):
        assert_close(dict(record, converged=False), record)
    with pytest.raises(AssertionError):
        assert_close(dict(record, seed=3.0), record)
    with pytest.raises(AssertionError):
        assert_close({"converged": True, "value": 2.0, "seed": 3, "worst_case": "q=1.0,p=1.5"}, record)
    # a label is compared unless its residual is at rounding level
    with pytest.raises(AssertionError):
        assert_close(dict(record, worst_case="q=2.0,p=1.5"), record)
    tiny = dict(record, residual=1e-12)
    assert_close(dict(tiny, worst_case="q=2.0,p=1.5"), tiny)
    big = dict(record, residual=1e-3)
    with pytest.raises(AssertionError):
        assert_close(dict(big, worst_case="q=2.0,p=1.5"), big)
