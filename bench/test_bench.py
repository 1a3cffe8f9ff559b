"""Tests of the benchmark itself: its output checks and its trace counts.

    python3 -m pytest bench/test_bench.py -q

Each test runs small slices of the real op cycles, so it takes seconds.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3
COUNT_SUFFIXES = (".calls", ".matrices", ".input_bytes", ".grid_points", ".trials", ".spans")


def _cycle(name, tmp_path):
    ops, _ = workloads.build(name, SEED, tmp_path)
    return ops


def _cli_slice(tmp_path):
    # the named maps (closed forms known) and one query of each kind on random maps
    ops = _cycle("cli_queries", tmp_path)
    named = [op for op in ops if not op.label.split()[1].startswith("random")]
    return named + ops[:4]


def _verify_slice():
    ops = workloads._verify_cycle(SEED)
    exact = [op for op in ops if "trials=16" in op.label]
    picked = {}
    for op in exact:
        picked.setdefault(op.label.split()[1], op)
    theorem1 = next(op for op in ops if op.label.startswith("verify theorem1"))
    return list(picked.values()) + [theorem1]


def _oracle_slice(tmp_path):
    # one op of each q kind
    ops = _cycle("oracle_grid", tmp_path)
    return [next(op for op in ops if f" q={q} " in op.label) for q in ("1.0", "2.0", "inf")]


def _failures(ops) -> int:
    latencies, failures, _ = run.run_cycles(ops, 1)
    assert len(latencies) == 1
    return failures


def test_unperturbed_outputs_pass(tmp_path):
    assert _failures(_cli_slice(tmp_path)) == 0
    assert _failures(_verify_slice()) == 0
    assert _failures(_oracle_slice(tmp_path)) == 0


@pytest.mark.parametrize("scale, shift", [(1e3, 0.0), (1.0, 1e-2), (math.nan, 0.0)])
def test_perturbed_cli_values_count_as_failures(tmp_path, monkeypatch, scale, shift):
    cli = workloads.cli
    for name in ("norm_q_to_p", "stabilized_norm"):
        real = getattr(cli, name)

        def perturbed(*args, real=real, **kwargs):
            est = real(*args, **kwargs)
            return dataclasses.replace(est, value=est.value * scale + shift)

        monkeypatch.setattr(cli, name, perturbed)
    ops = _cli_slice(tmp_path)
    if shift:
        # a small shift is caught where a closed form is known
        ops = [op for op in ops if op.label.startswith(("norm transpose-2", "norm dim4_pair --q 1.0 --p 1.0"))]
        assert ops
    assert _failures(ops) == len(ops)


def test_perturbed_oracle_and_verify_count_as_failures(tmp_path, monkeypatch):
    real_oracle = workloads.optimize.brute_force_oracle
    monkeypatch.setattr(
        workloads.optimize, "brute_force_oracle", lambda *a: real_oracle(*a) + 1e-9
    )
    ops = _oracle_slice(tmp_path)
    assert _failures(ops) == len(ops)

    real_verify = workloads.verify_mod.verify
    monkeypatch.setattr(
        workloads.verify_mod,
        "verify",
        lambda *a, **k: dataclasses.replace(real_verify(*a, **k), passed=False),
    )
    ops = _verify_slice()[:4]
    assert _failures(ops) == len(ops)


def test_raising_op_counts_as_failure(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(workloads.optimize, "brute_force_oracle", boom)
    ops = _oracle_slice(tmp_path)
    assert _failures(ops) == len(ops)


def _traced_metrics(ops, probe=None):
    tracer = Tracer()
    tracer.install()
    try:
        latencies, failures, _ = run.run_cycles(ops, 1, tracer, probe)
    finally:
        tracer.uninstall()
    assert failures == 0
    return tracer.layer_metrics(len(latencies))


def test_two_traced_runs_give_identical_counts(tmp_path):
    declared = {
        m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    for ops in (_cli_slice(tmp_path), _verify_slice(), _oracle_slice(tmp_path)):
        first = _traced_metrics(ops)
        second = _traced_metrics(ops)
        assert declared - {"trace.ops_per_s"} <= set(first)
        counts = [m for m in first if m.endswith(COUNT_SUFFIXES)]
        assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


def test_trace_sees_every_layer(tmp_path):
    cli = _traced_metrics(_cli_slice(tmp_path))
    for name in ("cli.main.calls", "serialize.load_channel.calls", "optimize.norm.calls",
                 "superop.tensor_identity.calls", "kernel.svd.calls", "kernel.eigh.calls"):
        assert cli[name] > 0, name
    assert cli["oracle.calls"] == 0 and cli["verify.calls"] == 0
    verify = _traced_metrics(_verify_slice())
    for name in ("verify.calls", "verify.trials", "channels.random.calls", "schatten.calls",
                 "optimize.norm.calls", "kernel.svd.calls"):
        assert verify[name] > 0, name
    assert verify["superop.tensor_identity.calls"] == 0
    oracle = _traced_metrics(_oracle_slice(tmp_path))
    assert oracle["oracle.calls"] == 3
    r = workloads.ORACLE_RESOLUTION
    assert oracle["oracle.grid_points"] == 2 * r**2 + r**3
    assert oracle["optimize.norm.calls"] == 0


def test_speed_probe_stays_out_of_the_trace(tmp_path):
    # the probe's own SVDs must not be counted as the library's kernel calls
    ops = _oracle_slice(tmp_path)[:1] + _verify_slice()[:1]
    without = _traced_metrics(ops)
    counts = [m for m in without if m.endswith(COUNT_SUFFIXES)]
    for kind in run.SpeedProbe.REFERENCE_SECONDS:
        probe = run.SpeedProbe(kind)
        with_probe = _traced_metrics(ops, probe)
        assert len(probe.samples) == len(ops) + 1
        assert len(probe.slowdowns_around_ops()) == len(ops)
        assert {m: with_probe[m] for m in counts} == {m: without[m] for m in counts}


def test_times_and_rates_scale_with_the_slowdown():
    units = {"t": "s", "lat": "ms", "rate": "1/s", "n": "count", "mem": "MB"}
    raw = {"t": 2.0, "lat": 10.0, "rate": 5.0, "n": 7.0, "mem": 40.0}
    scaled = run.at_reference_speed(raw, units, 2.0)
    assert scaled == {"t": 1.0, "lat": 5.0, "rate": 10.0, "n": 7.0, "mem": 40.0}
