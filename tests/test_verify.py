import concurrent.futures
import importlib
import json
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from supernorms import (
    InvalidInputError,
    NormQuery,
    OptimizerConfig,
    VerificationReport,
    claim_ids,
    claim_tolerance,
    explore_open_question,
    norm_q_to_p,
    random_cp_channel,
    verify,
)

ALL_CLAIMS = (
    "theorem1",
    "lemma1",
    "prop_counterexamples",
    "theorem2",
    "theorem3",
    "transpose_instability",
    "ahw_fact",
    "duality",
    "hoelder",
    "block_bounds",
    "monotone_p",
)

# claims whose residuals come from plain linear algebra run at full trial
# counts in the acceptance module; here every suite gets a smoke budget
FAST = dict(trials=2, restarts=16)

# the claims whose seeded trials may run in worker processes
TRIAL_CLAIMS = ("theorem1", "lemma1", "theorem2", "theorem3", "ahw_fact")

verify_module = importlib.import_module("supernorms.verify")
optimize = importlib.import_module("supernorms.optimize")


def test_claim_registry():
    assert claim_ids() == ALL_CLAIMS
    assert claim_tolerance("theorem1") == pytest.approx(2e-3)
    assert claim_tolerance("monotone_p") == pytest.approx(1e-10)
    with pytest.raises(InvalidInputError):
        claim_tolerance("theorem9")


def test_unknown_claim_rejected():
    with pytest.raises(InvalidInputError):
        verify("not_a_claim", **FAST)


def test_bad_budgets_rejected():
    with pytest.raises(InvalidInputError):
        verify("duality", trials=0)
    with pytest.raises(InvalidInputError):
        verify("duality", trials=5, restarts=0)
    for field, bad in (("trials", 2.9), ("restarts", 8.5), ("trials", True)):
        with pytest.raises(InvalidInputError, match=f"{field} must be a whole number"):
            verify("duality", **{field: bad})
    assert verify("duality", trials=np.int64(2), restarts=4.0).trials == 2


def test_seed_must_be_a_whole_number():
    for bad in (4.2, True, np.bool_(False), "4"):
        with pytest.raises(InvalidInputError, match="seed must be a whole number"):
            verify("duality", seed=bad, trials=2)
    assert verify("duality", seed=4.0, trials=2).to_json() == verify("duality", seed=4, trials=2).to_json()


def test_any_integer_seed_is_masked_to_64_bits():
    negative = verify("duality", seed=np.int64(-1), trials=2)
    assert negative.seed == -1
    assert negative.details == verify("duality", seed=2**64 - 1, trials=2).details


@pytest.mark.parametrize("claim", ALL_CLAIMS)
def test_each_suite_passes_at_smoke_budget(claim):
    report = verify(claim, seed=42, **FAST)
    assert isinstance(report, VerificationReport)
    assert report.passed, f"{claim}: worst={report.worst_residual}"
    assert report.worst_residual <= report.tolerance
    assert report.trials == len(report.details)
    assert report.seed == 42
    assert all(d["residual"] >= 0.0 for d in report.details)


def test_report_passed_tracks_tolerance():
    report = verify("monotone_p", trials=3)
    assert report.passed == (report.worst_residual <= report.tolerance)


def test_fixed_case_suites_ignore_trials():
    a = verify("transpose_instability", **FAST)
    b = verify("transpose_instability", trials=9, restarts=FAST["restarts"])
    assert a.trials == b.trials == 12
    cases = [d["case"] for d in a.details]
    assert "transpose(2) stabilized p=1.0" in cases
    assert "transpose(3) stabilized p=2.0" in cases


def test_counterexample_suite_cross_checks_oracle():
    report = verify("prop_counterexamples", trials=1, restarts=16)
    oracle_cases = [d for d in report.details if "oracle" in d["case"]]
    assert len(oracle_cases) == 1
    assert oracle_cases[0]["expected"] == pytest.approx(math.sqrt(2.0))
    assert oracle_cases[0]["residual"] <= 1e-3


def test_report_json_shape_and_key_order():
    report = verify("duality", trials=2)
    text = report.to_json()
    assert text == report.to_json()
    obj = json.loads(text)
    assert list(obj) == ["claim_id", "trials", "worst_residual", "tolerance", "passed", "seed", "details"]
    assert obj["claim_id"] == "duality"
    assert isinstance(obj["details"], list) and len(obj["details"]) == 2


def test_verify_is_deterministic_in_the_seed():
    a = verify("hoelder", seed=5, trials=3)
    b = verify("hoelder", seed=5, trials=3)
    c = verify("hoelder", seed=6, trials=3)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


# the exact claims' records at seed 42 and 3 trials, residuals left out: the
# fields that show each trial drew the same shape from the claim's stream
EXACT_RECORDS = {
    "duality": [
        {"trial": 0, "shape": [4, 6]},
        {"trial": 1, "shape": [2, 4]},
        {"trial": 2, "shape": [5, 2]},
    ],
    "hoelder": [
        {"trial": 0, "shape": [6, 4]},
        {"trial": 1, "shape": [4, 3]},
        {"trial": 2, "shape": [3, 4]},
    ],
    "block_bounds": [
        {"trial": 0, "blocks": [3, 2], "block_shape": [2, 3]},
        {"trial": 1, "blocks": [3, 1], "block_shape": [3, 3]},
        {"trial": 2, "blocks": [3, 3], "block_shape": [1, 2]},
    ],
    "monotone_p": [
        {"trial": 0, "shape": [4, 2]},
        {"trial": 1, "shape": [3, 6]},
        {"trial": 2, "shape": [6, 4]},
    ],
}


@pytest.mark.parametrize("claim", EXACT_RECORDS)
def test_exact_claim_records_are_pinned(claim):
    details = json.loads(verify(claim, seed=42, trials=3).to_json())["details"]
    for got, want in zip(details, EXACT_RECORDS[claim], strict=True):
        assert list(got) == [*want, "residual", "worst_case"]
        assert {k: got[k] for k in want} == want


@pytest.mark.parametrize("claim", TRIAL_CLAIMS)
def test_fan_out_matches_the_in_process_run(claim, monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    reports = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(verify_module, "_usable_cpus", lambda: cpus)
        reports[cpus] = verify(claim, seed=7, trials=3, restarts=8).to_json()
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1
    # the calling process runs trials too, so n usable CPUs take n - 1 workers
    assert pools == [1, 2]
    assert reports[1] == reports[2] == reports[3]
    assert [d["trial"] for d in json.loads(reports[2])["details"]] == [0, 1, 2]


def _pid_trial(i, seed, restarts):
    return {"trial": i, "seed": seed, "pid": os.getpid()}


@pytest.mark.parametrize("cpus, here", [(2, [3, 4]), (3, [4])])
def test_the_calling_process_runs_the_last_trials(cpus, here, monkeypatch):
    # trials // min(trials, cpus) of them, while cpus - 1 workers share the rest
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: cpus)
    details = verify_module._run_trials(1, _pid_trial, 9, 5, 4)
    assert [d["trial"] for d in details] == list(range(5))
    assert [d["seed"] for d in details] == verify_module._trial_seeds(9, 1, 5)
    assert [d["trial"] for d in details if d["pid"] == os.getpid()] == here
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "method, threads",
    [("spawn", 1), ("forkserver", 1), (None, 1), ("fork", 2)],
    ids=["spawn", "forkserver", "default-spawn", "fork-with-a-thread"],
)
def test_no_pool_unless_fork_is_safe(method, threads, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was constructed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: method)
    # None: no method was set, so the first listed (the platform default) applies
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "fork"])
    monkeypatch.setattr(threading, "active_count", lambda: threads)
    assert verify("ahw_fact", seed=4, trials=2, restarts=8).passed


@pytest.mark.parametrize("claim", [c for c in ALL_CLAIMS if c not in TRIAL_CLAIMS])
def test_exact_and_fixed_case_claims_start_no_pool(claim, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was constructed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    assert verify(claim, seed=3, trials=3, restarts=8).passed


@pytest.mark.parametrize("fails_at", ["construction", "map"])
def test_pool_start_failure_runs_in_process(fails_at, monkeypatch):
    class NoWorkers:
        def __init__(self, max_workers, mp_context):
            if fails_at == "construction":
                raise OSError(11, "Resource temporarily unavailable")

        def map(self, *args):
            raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 1)
    serial = verify("ahw_fact", seed=4, trials=2, restarts=8).to_json()
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoWorkers)
    assert verify("ahw_fact", seed=4, trials=2, restarts=8).to_json() == serial


def test_partly_started_pool_leaves_no_worker(monkeypatch):
    # the real executor forks its first worker, then the second fork fails
    spawn = concurrent.futures.ProcessPoolExecutor._spawn_process
    spawned = []

    def second_fork_fails(pool):
        spawned.append(pool)
        if len(spawned) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        spawn(pool)

    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 1)
    serial = verify("ahw_fact", seed=4, trials=3, restarts=8).to_json()
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "_spawn_process", second_fork_fails)
    assert verify("ahw_fact", seed=4, trials=3, restarts=8).to_json() == serial
    assert len(spawned) == 2
    assert multiprocessing.active_children() == []


def test_ancilla_checks_run_the_unreduced_ascent(monkeypatch):
    # the claims and surveys that compare ancilla sizes must run each query on
    # its own ancilla: norm_q_to_p answers some on a smaller space (Theorems 2
    # and 3), which would make those checks compare a number with itself
    runs = []  # [map, query, ancilla the ascent received]
    estimate, ascend = optimize._estimate, optimize._ascend

    def spy_estimate(phi, query, *args):
        runs.append([phi, query, None])
        return estimate(phi, query, *args)

    def spy_ascend(phi, k, *args):
        runs[-1][2] = k
        return ascend(phi, k, *args)

    monkeypatch.setattr(optimize, "_estimate", spy_estimate)
    monkeypatch.setattr(optimize, "_ascend", spy_ascend)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 1)
    cfg = OptimizerConfig(restarts=2, seed=3)
    reducible = {}
    for claim in ("theorem2", "theorem3", "transpose_instability", "ahw_fact"):
        runs.clear()
        verify(claim, trials=2, restarts=2)
        assert runs and all(k == max(query.stabilize_dim, 1) for _, query, k in runs), claim
        reducible[claim] = sum(
            optimize._reduced_ancilla(phi, query) != query.stabilize_dim for phi, query, _ in runs
        )
    for question in (2, 3):
        runs.clear()
        explore_open_question(random_cp_channel(2, 2, 2, 5), question, q=1.0, p=2.0, config=cfg)
        assert [k for _, _, k in runs] == [k for k in (1, 2, 3, 4) for _ in range(question - 1)]
        reducible[f"explore {question}"] = sum(
            optimize._reduced_ancilla(phi, query) != query.stabilize_dim for phi, query, _ in runs
        )
    # every check but ahw_fact holds queries that norm_q_to_p would reduce
    assert reducible["ahw_fact"] == 0 and all(reducible[c] for c in reducible if c != "ahw_fact")
    # Theorem 2 is proven for unrestricted norms only: a Hermitian query with
    # q <= 2 <= p keeps its ancilla
    runs.clear()
    phi = random_cp_channel(3, 2, 2, 6)
    for q, p in ((1.5, 3.0), (2.0, 2.0), (1.0, math.inf)):
        norm_q_to_p(phi, NormQuery(q, p, True, 2), cfg)
        norm_q_to_p(phi, NormQuery(q, p, True, 3), cfg)
    assert [k for _, _, k in runs] == [2, 3] * 3


def test_start_stack_memo_leaves_the_reports_unchanged(monkeypatch):
    # a trial's ascents share start stacks through the memo; bypassing it must
    # give the same reports, in process and with forked workers, which inherit
    # the calling process's memo
    for claim in ("theorem1", "lemma1", "theorem2", "theorem3"):
        for cpus in (1, 2):
            monkeypatch.setattr(verify_module, "_usable_cpus", lambda: cpus)
            shipped = verify(claim, seed=5, trials=2, restarts=4).to_json()
            with monkeypatch.context() as bypass:
                bypass.setattr(optimize, "_memo_start_stack", optimize._build_start_stack)
                assert verify(claim, seed=5, trials=2, restarts=4).to_json() == shipped, (claim, cpus)
            assert multiprocessing.active_children() == []
