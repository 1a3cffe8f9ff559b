"""Acceptance gate: every advertised guarantee at its stated budget.

Each criterion prints one PASS/FAIL line (visible in the live test output)
and then asserts, so a red run pinpoints the violated guarantee directly.
Budgets: seed 42, 50 trials, 32 restarts unless a criterion states otherwise.
"""

import math
import time

import numpy as np
import pytest

from supernorms import (
    NormQuery,
    OptimizerConfig,
    apply,
    brute_force_oracle,
    norm_q_to_p,
    random_cp_channel,
    random_superop,
    schmidt,
    svd,
    verify,
)

from conftest import complex_matrix, random_psd

SEED = 42
TRIALS = 50
RESTARTS = 32


@pytest.fixture
def announce(capsys):
    """Prints a criterion's ACCEPTANCE line, ending with its wall time so far."""
    start = time.perf_counter()

    def line(idx, label, passed, detail):
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            status = "PASS" if passed else "FAIL"
            print(f"\nACCEPTANCE {idx} {label}: {status} ({detail}, {elapsed:.1f} s)", flush=True)

    return line


def run_claim(announce, idx, label, claim, trials=TRIALS):
    report = verify(claim, seed=SEED, trials=trials, restarts=RESTARTS)
    announce(
        idx,
        label,
        report.passed,
        f"worst residual {report.worst_residual:.3e}, tolerance {report.tolerance:g}, "
        f"{report.trials} checks",
    )
    assert report.passed, f"{claim}: worst residual {report.worst_residual}"
    return report


def test_criterion_1_transpose_instability(announce):
    run_claim(announce, 1, "transpose plain=1, stabilized=n^(2/p)/n", "transpose_instability")


def test_criterion_2_cp_norms_unchanged_by_hermitian_restriction(announce):
    run_claim(announce, 2, "CP maps: plain equals Hermitian-restricted on the full grid", "theorem1")


def test_criterion_3_factorization_bound(announce):
    run_claim(announce, 3, "norm bounded by sqrt of CP factor norms", "lemma1")


def test_criterion_4_counterexample_values(announce):
    report = run_claim(
        announce, 4, "non-Hermitian gap examples hit their closed forms", "prop_counterexamples"
    )
    oracle_cases = [d for d in report.details if "oracle" in d["case"]]
    assert len(oracle_cases) == 1
    assert oracle_cases[0]["residual"] <= 1e-3, oracle_cases[0]


def test_criterion_5_stability_region(announce):
    run_claim(announce, 5, "ancillas are free once p >= 2 >= q", "theorem2")


def test_criterion_6_ancilla_cap(announce):
    run_claim(announce, 6, "ancilla of the input dimension saturates", "theorem3")


def test_criterion_7_cp_hermitian_stability(announce):
    run_claim(announce, 7, "CP Hermitian 1->p norms ignore added identities", "ahw_fact")


def test_criterion_8_exact_identities(announce):
    reports = [
        verify(claim, seed=SEED, trials=200, restarts=RESTARTS)
        for claim in ("duality", "hoelder", "block_bounds", "monotone_p")
    ]

    rng = np.random.default_rng(SEED)
    worst_svd = 0.0
    for _ in range(200):
        A = complex_matrix(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        worst_svd = max(worst_svd, float(np.abs(svd(A).reconstruct() - A).max()))

    worst_schmidt = 0.0
    for _ in range(200):
        dl, dr = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        vec = rng.standard_normal(dl * dr) + 1j * rng.standard_normal(dl * dr)
        vec /= np.linalg.norm(vec)
        data = schmidt(vec, dl, dr)
        rebuilt = sum(
            s * np.kron(data.left_vectors[:, i], data.right_vectors[:, i])
            for i, s in enumerate(data.singular_values)
        )
        worst_schmidt = max(worst_schmidt, float(np.abs(rebuilt - vec).max()))

    worst_psd = 0.0
    for i in range(200):
        din, dout = 2 + i % 2, 2 + (i // 2) % 2
        phi = random_cp_channel(din, dout, 2 + i % 2, int(rng.integers(0, 2**32)))
        rho = random_psd(rng, din)
        rho /= np.trace(rho).real
        lam = np.linalg.eigvalsh(apply(phi, rho))
        worst_psd = max(worst_psd, float(max(0.0, -lam.min())))

    direct_ok = worst_svd <= 1e-9 and worst_schmidt <= 1e-9 and worst_psd <= 1e-10
    suites_ok = all(r.passed for r in reports)
    n_checks = sum(r.trials for r in reports) + 600
    detail = (
        f"suite residuals {'/'.join(f'{r.worst_residual:.1e}' for r in reports)}, "
        f"svd {worst_svd:.1e}, schmidt {worst_schmidt:.1e}, psd {worst_psd:.1e}, "
        f"{n_checks} checks"
    )
    announce(8, "exact identities at 1e-9 scale", direct_ok and suites_ok, detail)
    for r in reports:
        assert r.passed, f"{r.claim_id}: worst residual {r.worst_residual}"
    assert direct_ok, detail


def test_criterion_9_optimizer_vs_dense_oracle(announce):
    pairs = [(q, p) for q in (1.0, 2.0, math.inf) for p in (1.0, 2.0, math.inf)]
    roster = []
    for j, (q, p) in enumerate(pairs):
        roster.append((q, p, 7000 + 13 * (2 * j)))
        roster.append((q, p, 7000 + 13 * (2 * j + 1)))
    roster.append((1.0, 1.0, 7000 + 13 * 18))
    roster.append((1.0, math.inf, 7000 + 13 * 19))
    assert len(roster) == 20
    assert {(q, p) for q, p, _ in roster} == set(pairs)

    cfg = OptimizerConfig(restarts=RESTARTS, seed=SEED)
    worst_below, worst_above = 0.0, 0.0
    for q, p, seed in roster:
        phi = random_superop(2, 2, 2, seed)
        query = NormQuery(q, p, hermitian_restricted=True)
        oracle = brute_force_oracle(phi, query, 400)
        value = norm_q_to_p(phi, query, cfg).value
        worst_below = max(worst_below, oracle - value)
        worst_above = max(worst_above, value - oracle)
    passed = worst_below <= 1e-3 and worst_above <= 5e-3
    announce(
        9,
        "optimizer within the dense-grid oracle window on 20 qubit instances",
        passed,
        f"max oracle-optimizer {worst_below:.3e} (<= 1e-3), "
        f"max optimizer-oracle {worst_above:.3e} (<= 5e-3)",
    )
    assert worst_below <= 1e-3
    assert worst_above <= 5e-3


def test_unrestricted_qubit_norms_against_the_rank_one_and_unitary_grids():
    # criterion 9's maps and window without the Hermitian restriction, on the
    # two unrestricted grids that reach that window in seconds: rank-one
    # inputs u v* at q = 1 (three of its six maps, one per p) and unitaries at
    # q = inf (all six); map j of criterion 9 answers the pair j // 2
    pairs = [(q, p) for q in (1.0, 2.0, math.inf) for p in (1.0, 2.0, math.inf)]
    cfg = OptimizerConfig(restarts=RESTARTS, seed=SEED)
    for j in (0, 2, 4, 12, 13, 14, 15, 16, 17):
        q, p = pairs[j // 2]
        phi = random_superop(2, 2, 2, 7000 + 13 * j)
        query = NormQuery(q, p)
        oracle = brute_force_oracle(phi, query, 60 if q == 1.0 else 100)
        value = norm_q_to_p(phi, query, cfg).value
        assert oracle - value <= 1e-3, (j, oracle, value)
        assert value - oracle <= 5e-3, (j, oracle, value)
