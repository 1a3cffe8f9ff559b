import collections
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
    block_norm_bounds,
    claim_ids,
    claim_tolerance,
    dual_exponent,
    duality_witness,
    explore_open_question,
    format_exponent,
    hoelder_gap,
    inner,
    norm_q_to_p,
    random_cp_channel,
    schatten_norm,
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
schatten_module = importlib.import_module("supernorms.schatten")
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


@pytest.mark.parametrize(
    "cases, residual, label",
    [
        ([(5e-11, "a"), (1e-11, "b")], 5e-11, ""),
        ([(1e-10, "a")], 1e-10, ""),
        ([(1e-12, "a"), (1e-6, "b"), (1e-6, "c")], 1e-6, "b"),
        ([(1e-6, "a"), (5e-11, "b")], 1e-6, "a"),
        ([(0.0, "a")], 0.0, ""),
    ],
)
def test_record_labels_only_residuals_above_rounding(cases, residual, label):
    # which case attains a residual of at most 1e-10 is set by rounding
    record = verify_module._record(0, {"seed": 1}, cases)
    assert record == {"trial": 0, "seed": 1, "residual": residual, "worst_case": label}


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


# exact claim -> the salt of its seeded stream
EXACT_SALTS = {"duality": 8, "hoelder": 9, "block_bounds": 10, "monotone_p": 11}


def _blocks(X, block_rows, block_cols):
    h, w = X.shape[0] // block_rows, X.shape[1] // block_cols
    return [X[i * h : (i + 1) * h, j * w : (j + 1) * w] for i in range(block_rows) for j in range(block_cols)]


def _key(M):
    return M.shape, M.tobytes()


@pytest.mark.parametrize("claim", EXACT_SALTS)
def test_exact_trials_decompose_each_matrix_once(claim, monkeypatch):
    # in each chunk of trials, every matrix is decomposed once, in one
    # np.linalg.svd call per matrix shape, and its singular values give its
    # norm at every grid exponent (block_bounds: the matrix and each block).
    # duality also decomposes each X once with vectors, in one call per shape,
    # to build its five witnesses, which are decomposed with the X of their
    # shape, in one schatten_norm call on a stack of (X, its witnesses)
    per = 2 if claim == "hoelder" else 1
    drawn, calls = [], []
    real_draw, real_svd = verify_module._complex_gaussian, np.linalg.svd

    def draw(rng, shape):
        drawn.append(real_draw(rng, shape))
        return drawn[-1]

    def spy(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((len(drawn), compute_uv, a.copy()))
        return real_svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(verify_module, "_complex_gaussian", draw)
    monkeypatch.setattr(np.linalg, "svd", spy)
    chunk = verify_module._EXACT_CHUNK
    trials = chunk + 9
    fields, _ = verify_module._exact_table(claim, verify_module._rng(42, EXACT_SALTS[claim]), trials)
    made = list(calls)
    assert len(fields) == trials and len(drawn) == trials * per
    for start in (0, chunk):
        stop = min(start + chunk, trials)
        here = drawn[start * per : stop * per]
        matrices = list(here)
        if claim == "block_bounds":
            for X, f in zip(here, fields[start:stop]):
                matrices += _blocks(X, *f["blocks"])
        with_vectors = here if claim == "duality" else []
        if claim == "duality":
            matrices += [duality_witness(X, p) for X in here for p in EXPONENTS]
        mine = [(uv, a) for n, uv, a in made if n == stop * per]
        assert all(a.ndim >= 3 for _, a in mine)
        mine = [(uv, a.reshape(-1, *a.shape[-2:])) for uv, a in mine]
        for uv, want in ((False, matrices), (True, with_vectors)):
            stacks = [a for used_uv, a in mine if used_uv == uv]
            assert collections.Counter(_key(M) for a in stacks for M in a) == collections.Counter(map(_key, want))
            assert len(stacks) == len({M.shape for M in want})


def _one_exponent_cases(claim, fields, matrices):
    """A trial's cases rebuilt from the public one-exponent functions."""
    if claim == "duality":
        (X,) = matrices
        for p in EXPONENTS:
            Y = duality_witness(X, p)
            attained = abs(inner(Y, X) - schatten_norm(X, p))
            unit = abs(schatten_norm(Y, dual_exponent(p)) - 1.0)
            yield max(attained, unit), f"p={format_exponent(p)}"
    elif claim == "hoelder":
        X, Y = matrices
        for p in EXPONENTS:
            yield max(0.0, -hoelder_gap(X, Y, p)), f"p={format_exponent(p)}"
    elif claim == "block_bounds":
        (X,) = matrices
        for p in EXPONENTS:
            lhs, rhs = block_norm_bounds(X, *fields["blocks"], p)
            slack = lhs - rhs if p <= 2.0 else rhs - lhs
            yield (abs(slack) if p == 2.0 else max(0.0, slack)), f"p={format_exponent(p)}"
    else:
        (A,) = matrices
        for qi, q in enumerate(EXPONENTS):
            for p in EXPONENTS[qi:]:
                yield (
                    max(0.0, schatten_norm(A, p) - schatten_norm(A, q)),
                    f"q={format_exponent(q)},p={format_exponent(p)}",
                )


@pytest.mark.parametrize("rank_one", [False, True])
@pytest.mark.parametrize("claim", EXACT_SALTS)
def test_exact_trials_check_the_library_definitions(claim, rank_one, monkeypatch):
    # every cell of the claim's residual table equals, bit for bit, the case
    # built from the public functions that each take one exponent (duality's
    # dual norms: schatten_norm of each duality_witness).  Rank-one draws
    # u v^T (one u and v for every draw, so hoelder's Y is its X) meet the
    # hoelder and block bounds with equality, so their residuals are
    # roundoff, not clipped to zero; monotone_p is never tight for p > q.
    # 50 trials read several spectra of each length in one pass
    per = 2 if claim == "hoelder" else 1
    u, v = np.random.default_rng(3).standard_normal((2, 9)) + 1j
    drawn, reads = [], []
    real_draw, real_read = verify_module._complex_gaussian, verify_module._spectrum_pnorms

    def keep(rng, shape):
        rows, cols = shape
        drawn.append(np.outer(u[:rows], v[:cols]) if rank_one else real_draw(rng, shape))
        return drawn[-1]

    def read(spectra, exponents):
        reads.append(spectra.shape)
        return real_read(spectra, exponents)

    monkeypatch.setattr(verify_module, "_complex_gaussian", keep)
    monkeypatch.setattr(verify_module, "_spectrum_pnorms", read)
    monkeypatch.setattr(schatten_module, "_spectrum_pnorms", read)
    labels = verify_module._EXACT[claim][1]
    nonzero = 0
    for seed in (42, 7):
        for trials in (1, 10, 50):
            drawn.clear()
            fields, table = verify_module._exact_table(claim, verify_module._rng(seed, EXACT_SALTS[claim]), trials)
            assert table.shape == (trials, len(labels)) and len(drawn) == trials * per
            for t, (f, row) in enumerate(zip(fields, table.tolist())):
                want = list(_one_exponent_cases(claim, f, drawn[t * per : (t + 1) * per]))
                assert [(r.hex(), at) for r, at in zip(row, labels)] == [(float(r).hex(), at) for r, at in want]
                nonzero += sum(r > 0.0 for r in row)
    assert nonzero > 0 or not rank_one or claim == "monotone_p"
    lengths = {1, 2, 3} if claim == "block_bounds" else {2, 3, 4, 5, 6}
    assert lengths <= {length for rows, length in reads if rows > 1}


@pytest.mark.parametrize("claim", EXACT_SALTS)
def test_exact_trials_do_not_depend_on_the_trial_count(claim, monkeypatch):
    # a trial's record is the same at any trial count and in any chunk
    trials = verify_module._EXACT_CHUNK + 11
    details = json.dumps(verify(claim, seed=5, trials=trials).details)
    for k in (1, 7):
        assert json.dumps(verify(claim, seed=5, trials=k).details) == json.dumps(json.loads(details)[:k])
    monkeypatch.setattr(verify_module, "_EXACT_CHUNK", trials)
    assert json.dumps(verify(claim, seed=5, trials=trials).details) == details


def test_table_records_reduce_each_row_as_record_does():
    floor = verify_module._LABEL_FLOOR
    above = math.nextafter(floor, math.inf)
    rows = [
        [1e-6, 3e-6, 3e-6, 0.0],  # tied maxima: the first
        [0.0, 0.0, 0.0, 0.0],
        [floor, 0.0, floor, 1e-12],  # at the floor: no label
        [1e-12, above, above, floor],  # just above it: the first
        [5e-11, 1e-11, 0.0, 5e-11],
        [2.0, 2.0, 2.0, 2.0],
    ]
    labels = ["a", "b", "c", "d"]
    fields = [{"shape": [i, i + 1]} for i in range(len(rows))]
    got = verify_module._table_records(fields, np.array(rows), labels)
    want = [verify_module._record(i, f, zip(row, labels)) for i, (f, row) in enumerate(zip(fields, rows))]
    assert json.dumps(got) == json.dumps(want)
    assert [r["worst_case"] for r in got] == ["b", "", "", "b", "", "a"]


def _nan_cases(phi, cfg):
    """A map claim's cases, with a NaN residual on maps of input dimension 3."""
    yield 1e-12, "a"
    yield math.nan if phi.dim_in == 3 else 1e-6, "b"
    yield 5e-4, "c"


def test_a_nan_residual_fails_a_map_claim(monkeypatch):
    # a NaN case residual is its trial's worst one, with a smaller case before
    # it and a larger finite one after it, keeps its label, and is the
    # report's worst residual, which fails the claim, though the trials before
    # it have finite worst residuals within the tolerance.  The trials may
    # run in forked workers, so the cases are a module-level function
    claim = verify_module._map_claim(1, _nan_cases, cp=True)
    monkeypatch.setitem(verify_module._REGISTRY, "theorem1", (2e-3, claim))
    report = verify("theorem1", trials=3, restarts=2)
    # trial 2 is the first on a map with input dimension 3
    assert [(d["residual"], d["worst_case"]) for d in report.details[:2]] == [(5e-4, "c")] * 2
    assert math.isnan(report.details[2]["residual"]) and report.details[2]["worst_case"] == "b"
    assert math.isnan(report.worst_residual) and not report.passed


def test_a_nan_table_cell_fails_an_exact_claim(monkeypatch):
    # one NaN cell of an exact claim's residual table is its trial's worst
    # residual, labelled by its case, and fails the report; the other trials
    # keep their records
    clean = verify("hoelder", trials=3)
    table_of, labels = verify_module._EXACT["hoelder"]

    def with_nan(rng, count):
        fields, table = table_of(rng, count)
        table[1, 2] = math.nan
        return fields, table

    monkeypatch.setitem(verify_module._EXACT, "hoelder", (with_nan, labels))
    report = verify("hoelder", trials=3)
    assert math.isnan(report.details[1]["residual"]) and report.details[1]["worst_case"] == labels[2]
    assert [report.details[i] for i in (0, 2)] == [clean.details[i] for i in (0, 2)]
    assert math.isnan(report.worst_residual) and not report.passed


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


def spy_on_the_ascents(monkeypatch):
    """Record every ascent as [map, its jobs (query, constraint, run ancilla),
    the ancilla it ran on, its cells (q, p, constraint)]."""
    runs = []
    estimate, ascend = optimize._estimate, optimize._ascend

    def spy_estimate(phi, jobs, cfg):
        start = len(runs)
        out = estimate(phi, jobs, cfg)
        for run in runs[start:]:
            run.insert(1, [job for job in jobs if max(job[2], 1) == run[1]])
        return out

    def spy_ascend(phi, k, cells, cfg):
        runs.append([phi, k, list(cells)])
        return ascend(phi, k, cells, cfg)

    monkeypatch.setattr(optimize, "_estimate", spy_estimate)
    monkeypatch.setattr(optimize, "_ascend", spy_ascend)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 1)
    return runs


def test_ancilla_checks_run_the_unreduced_ascent(monkeypatch):
    # the claims and surveys that compare ancilla sizes must run each query on
    # its own ancilla: norm_q_to_p answers some on a smaller space (Theorems 2
    # and 3), which would make those checks compare a number with itself
    runs = spy_on_the_ascents(monkeypatch)
    cfg = OptimizerConfig(restarts=2, seed=3)
    reducible = {}
    for claim in ("theorem2", "theorem3", "transpose_instability", "ahw_fact"):
        runs.clear()
        verify(claim, trials=2, restarts=2)
        jobs = [job for _, run_jobs, _, _ in runs for job in run_jobs]
        assert jobs and all(run_k == query.stabilize_dim for query, _, run_k in jobs), claim
        assert all(k == max(run_k, 1) for _, run_jobs, k, _ in runs for _, _, run_k in run_jobs), claim
        reducible[claim] = sum(
            optimize._reduced_ancilla(phi, query) != query.stabilize_dim
            for phi, run_jobs, _, _ in runs
            for query, _, _ in run_jobs
        )
    for question in (2, 3):
        runs.clear()
        explore_open_question(random_cp_channel(2, 2, 2, 5), question, q=1.0, p=2.0, config=cfg)
        # one single-cell ascent per query: question 3 asks the Hermitian column apart
        ascents = [(k, len(cells)) for _, _, k, cells in runs]
        assert ascents == [(k, 1) for k in (1, 2, 3, 4) for _ in range(question - 1)]
        reducible[f"explore {question}"] = sum(
            optimize._reduced_ancilla(phi, query) != query.stabilize_dim
            for phi, run_jobs, _, _ in runs
            for query, _, _ in run_jobs
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
    assert [k for _, _, k, _ in runs] == [2, 3] * 3


EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
GRID = [(q, p) for q in EXPONENTS for p in EXPONENTS]


@pytest.mark.parametrize(
    "claim, ascents",
    [
        # per trial: (ancilla the ascent runs on, its cells as (q, p, constraint))
        ("theorem1", [(1, [(q, p, c) for c in ("full", "hermitian") for q, p in GRID])]),
        # the map, then its two CP sides on the PSD route (Theorem 1)
        ("lemma1", [(1, [(q, p, c) for q, p in GRID]) for c in ("full", "psd", "psd")]),
        ("theorem2", [(k, [(q, p, "full") for q in (1.0, 1.5, 2.0) for p in EXPONENTS[2:]]) for k in (1, 2, 3)]),
        # both trials' maps have dim_in 2
        ("theorem3", [(k, [(1.0, p, c) for c in ("full", "hermitian") for p in EXPONENTS]) for k in (2, 3)]),
        ("ahw_fact", [(k, [(1.0, p, "hermitian") for p in (1.0, 2.0, math.inf)]) for k in (1, 2)]),
    ],
)
def test_map_claims_run_one_ascent_per_map_and_ancilla(monkeypatch, claim, ascents):
    # each trial stacks all its queries on one map and ancilla into one ascent;
    # theorem1 checks that CP maps lose nothing to the Hermitian restriction,
    # so both columns run as asked, on no ancilla, and never on the PSD route
    runs = spy_on_the_ascents(monkeypatch)
    verify(claim, seed=8, trials=2, restarts=2)
    assert [(k, cells) for _, _, k, cells in runs] == ascents * 2
    if claim == "theorem1":
        for phi, jobs, _, _ in runs:
            assert [query.stabilize_dim for query, _, _ in jobs] == [0] * 50
            assert [c for _, c, _ in jobs] == ["full"] * 25 + ["hermitian"] * 25


def test_stacked_claims_ask_through_norm_q_to_p(monkeypatch):
    # theorem1 and lemma1 hand each map's queries to the public norm_q_to_p
    # (and lemma1 its CP sides' to cp_norm) as one list, so a wrapper around
    # them sees every stacked ascent they run
    lists = []
    for name in ("norm_q_to_p", "cp_norm"):
        real = getattr(optimize, name)

        def spy(phi, query, config=None, real=real, name=name):
            lists.append((name, len(query)))
            return real(phi, query, config)

        monkeypatch.setattr(optimize, name, spy)
        if hasattr(verify_module, name):
            monkeypatch.setattr(verify_module, name, spy)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 1)
    verify("theorem1", seed=8, trials=2, restarts=2)
    assert lists == [("norm_q_to_p", 50)] * 2
    lists.clear()
    verify("lemma1", seed=8, trials=2, restarts=2)
    assert lists == [("norm_q_to_p", 25), ("cp_norm", 25), ("cp_norm", 25)] * 2
