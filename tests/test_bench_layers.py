"""The benchmark in ``bench/`` relies on library names and recorded values; they must still hold."""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from supernorms import NormQuery, brute_force_oracle, random_superop

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
ORACLE_REFS = BENCH / "oracle_refs.json"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for span, (module_name, funcs) in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in funcs:
            assert callable(getattr(module, name, None)), f"{span}: {module_name}.{name}"


def test_oracle_reproduces_the_recorded_references():
    # the oracle_grid workload's roster: map random_superop(2, 2, 2, 7000 + 13 j),
    # Hermitian-restricted, two instances per (q, p) pair and two extra at q = 1
    refs = json.loads(ORACLE_REFS.read_text(encoding="utf-8"))
    pairs = [(q, p) for q in (1.0, 2.0, math.inf) for p in (1.0, 2.0, math.inf)]
    roster = [(j, *pairs[j // 2]) for j in range(18)] + [(18, 1.0, 1.0), (19, 1.0, math.inf)]
    assert len(refs["values"]) == len(roster)
    for j, q, p in roster:
        phi = random_superop(2, 2, 2, 7000 + 13 * j)
        got = brute_force_oracle(phi, NormQuery(q, p, True), refs["resolution"])
        assert got == pytest.approx(refs["values"][str(j)], rel=0.0, abs=1e-12), j


@pytest.mark.parametrize(
    "claim, generator", [("ahw_fact", "random_cp_channel"), ("theorem3", "random_superop")]
)
def test_map_claims_call_the_rebound_map_generators(monkeypatch, claim, generator):
    # the tracer counts ``channels.random`` by rebinding these names in every module
    verify_module = importlib.import_module("supernorms.verify")
    calls = []
    original = getattr(verify_module, generator)
    monkeypatch.setattr(verify_module, generator, lambda *args: calls.append(args) or original(*args))
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 1)
    assert verify_module.verify(claim, trials=2, restarts=1).trials == 2
    assert [args[:3] for args in calls] == [(2, 2, 2), (2, 3, 3)]
