"""Benchmark workloads: seeded inputs, one fixed op cycle each, output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  ``build`` turns a workload name and seed into the
op cycle; the library only ever sees the generated inputs (channel files,
maps, claim seeds).  Each op carries its own check, so a wrong, non-finite or
out-of-bound value counts as a failed op.

Why these three workloads (each stresses different layers):

- ``cli_queries``: the user-facing ``cli -> serialize -> optimize`` path and
  the only ancilla queries, where the nk x nk SVDs dominate.
- ``verify_suites``: many ascents on 2x2..3x3 maps with no ancilla, where
  Python work per iteration dominates, plus the verify runner and the exact
  Schatten identities.  It is the only workload a trial fan-out would touch.
- ``oracle_grid``: the dense qubit grid oracle on the criterion-9 roster; no
  ascent runs, so optimizer changes predict no change here.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from supernorms import NormQuery, build_example, channel_to_json, difference, random_superop
from tracer import oracle_grid_points

cli = importlib.import_module("supernorms.cli")
optimize = importlib.import_module("supernorms.optimize")
verify_mod = importlib.import_module("supernorms.verify")

WORKLOADS = ("cli_queries", "verify_suites", "oracle_grid")

# seconds one op cycle takes on a 2-vCPU Intel Xeon KVM guest; a run of
# S seconds repeats its cycle round(S / this) times, so every run of a
# workload does the same work whatever the machine's speed at the moment
CYCLE_SECONDS = {"cli_queries": 30.0, "verify_suites": 28.0, "oracle_grid": 2.0}

# the speed probe of each workload (see ``run.SpeedProbe``): the ascents make
# small LAPACK calls from Python, the oracle streams through large arrays
PROBE_KIND = {"cli_queries": "small", "verify_suites": "small", "oracle_grid": "stream"}

# oracle grid resolution and the claim trial counts used by the op cycles
ORACLE_RESOLUTION = 100
HEAVY_TRIALS = 2  # >= the 2 cores of the reference machine, so trials can fan out
EXACT_TRIALS = 16
ORACLE_REFS = Path(__file__).with_name("oracle_refs.json")

CLOSED_FORM_TOL = 2e-3
ORACLE_TOL = 1e-12


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    grid_points: int = 0  # nominal oracle grid points the op evaluates


def derive_seed(seed: int, *salt: int) -> int:
    """A sub-seed for one generated input, a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0] % (2**31))


# ---------------------------------------------------------------- bounds


def _exponent_inv(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


def upper_bound(phi, q: float, p: float, ancilla: int) -> float:
    """A certified upper bound on ``||Phi (x) I_k||_{q->p}`` (k = ancilla, 0 = none).

    The minimum of ``n^max(0,1/2-1/q) m^max(0,1/p-1/2) ||T||_op`` and
    ``sum_i ||A_i||_inf ||B_i||_inf n^max(0,1/p-1/q)``, with n, m the
    ancilla-enlarged input and output dimensions and T the transfer matrix;
    tensoring with an identity leaves ``||T||_op`` and the Kraus norms as
    they are.
    """
    k = max(1, ancilla)
    n, m = phi.dim_in * k, phi.dim_out * k
    left, right = phi.kraus_left, phi.kraus_right
    transfer = sum(np.kron(left[i], right[i].conj()) for i in range(left.shape[0]))
    t_op = np.linalg.svd(transfer, compute_uv=False)[0]
    iq, ip = _exponent_inv(q), _exponent_inv(p)
    via_2 = n ** max(0.0, 0.5 - iq) * m ** max(0.0, ip - 0.5) * t_op
    kraus = sum(
        np.linalg.norm(left[i], 2) * np.linalg.norm(right[i], 2) for i in range(left.shape[0])
    )
    via_kraus = kraus * n ** max(0.0, ip - iq)
    return float(min(via_2, via_kraus))


def closed_form(name: str, q: float, p: float, hermitian: bool, ancilla: int):
    """The exact value of a query on a named map, or None where none is known."""
    ip, iq = _exponent_inv(p), _exponent_inv(q)
    if name.startswith("transpose-"):
        n = int(name.split("-")[1])
        if ancilla == 0:
            return n ** max(0.0, ip - iq)
        if q == 1.0:
            return max(1.0, min(ancilla, n) ** (2.0 * ip - 1.0))
        return None
    if q != 1.0:
        return None
    if name == "dim4_pair":
        if ancilla == 0 and p == 1.0:
            return math.sqrt(2.0) if hermitian else 2.0
        if ancilla >= 2 and p == 1.0:
            return 2.0
        return None
    if name == "depolarizing_pair":
        if ancilla == 0 and p in (1.5, 2.0, math.inf):
            return 2.0**ip / 2.0 if hermitian else 1.0
        if ancilla >= 2 and p == 1.0:
            return 1.5
        return None
    return None


def value_ok(value, upper: float, exact) -> bool:
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    if value > upper * (1.0 + 1e-9) + 1e-12:
        return False
    return exact is None or abs(value - exact) <= CLOSED_FORM_TOL


# ---------------------------------------------------------------- cli_queries

# random maps (dim_in, dim_out, terms), 144 seeds each, then the named maps.
# Each random map gets one query and each named map all four kinds: the cost
# of an ascent depends on the map, and one query on each of many maps keeps
# the cycle's total work steadier across seeds than four on a quarter as many.
_RANDOM_SHAPES = ((2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 2))
_RANDOM_COPIES = 144
_NAMED = ("transpose-2", "transpose-3", "dim4_pair", "depolarizing_pair")
_KINDS = 4  # plain, Hermitian, stabilized-by-k, stabilized

# query templates, chosen by the map's template index: plain (q, p),
# Hermitian (q, p), stabilized-by-k (q, p, k) and stabilized (p, hermitian)
_PLAIN = ((1.0, 1.0), (2.0, math.inf), (1.5, 3.0), (math.inf, 2.0))
_HERM = ((1.0, 2.0), (1.5, 1.0), (2.0, 2.0), (1.0, math.inf))
_STAB = ((1.0, 1.0, 2), (1.5, 2.0, 3), (2.0, 1.0, 4), (1.0, 2.0, 4), (1.5, 3.0, 2), (2.0, 1.5, 3))
_STABILIZED = ((1.0, False), (2.0, True), (1.5, False), (1.0, True))


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else repr(x)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``supernorms`` invocation; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_check(upper: float, exact) -> Callable[[Any], bool]:
    def check(result) -> bool:
        code, stdout = result
        if code != 0:
            return False
        try:
            value = json.loads(stdout)["value"]
        except (ValueError, KeyError, TypeError):
            return False
        return value_ok(value, upper, exact)

    return check


def _cli_maps(seed: int):
    """(name, map, template index, query kinds).

    Map c of shape j gets kind (c + j) % 4 and template index c // 4 + j, so
    every shape meets every kind 36 times and every template of that kind
    equally often.
    """
    maps = []
    for c in range(_RANDOM_COPIES):
        for j, (din, dout, terms) in enumerate(_RANDOM_SHAPES):
            phi = random_superop(din, dout, terms, derive_seed(seed, 1, c, j))
            maps.append((f"random{din}{dout}{terms}.{c}", phi, c // _KINDS + j, ((c + j) % _KINDS,)))
    for i, name in enumerate(_NAMED):
        built = build_example(name)
        phi = difference(*built) if isinstance(built, tuple) else built
        maps.append((name, phi, i, tuple(range(_KINDS))))
    return maps


def _query(kind: int, t: int, phi):
    """(subcommand, q, p, hermitian, ancilla) of one query kind at template index t."""
    if kind == 0:
        q, p = _PLAIN[t % len(_PLAIN)]
        return "norm", q, p, False, 0
    if kind == 1:
        q, p = _HERM[t % len(_HERM)]
        return "norm", q, p, True, 0
    if kind == 2:
        q, p, k = _STAB[t % len(_STAB)]
        return "norm", q, p, False, k
    p, herm = _STABILIZED[t % len(_STABILIZED)]
    return "stabilized", 1.0, p, herm, phi.dim_in


def _cli_cycle(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for i, (name, phi, t, kinds) in enumerate(_cli_maps(seed)):
        path = workdir / f"{name}.json"
        path.write_text(channel_to_json(phi), encoding="utf-8")
        cli_seed = str(derive_seed(seed, 2, i))
        for sub, q, p, herm, k in (_query(kind, t, phi) for kind in kinds):
            argv = [sub, str(path)]
            if sub == "norm":
                argv += ["--q", _fmt(q)]
            argv += ["--p", _fmt(p), "--seed", cli_seed]
            if herm:
                argv.append("--hermitian")
            if sub == "norm" and k:
                argv += ["--stabilize", str(k)]
            check = _cli_check(upper_bound(phi, q, p, k), closed_form(name, q, p, herm, k))
            ops.append(Op(" ".join([sub, name] + argv[2:]), lambda a=argv: run_cli(a), check))
    return ops


# ---------------------------------------------------------------- verify_suites

# heavy claims run ascents; the exact ones are plain linear algebra
# (claim, calls per cycle).  Each call gets its own seed, so a cycle averages
# over many maps; the exact calls keep the heavy ones under 10% of the ops,
# so the latency percentiles sit inside one group of ops.
_HEAVY = (("theorem1", 6), ("lemma1", 5), ("prop_counterexamples", 3))
_EXACT = (("duality", 45), ("hoelder", 45), ("block_bounds", 45), ("monotone_p", 45))


def _verify_check(report) -> bool:
    return bool(report.passed)


def _verify_op(claim: str, seed: int, trials: int) -> Op:
    return Op(
        f"verify {claim} seed={seed} trials={trials}",
        lambda: verify_mod.verify(claim, seed, trials=trials),
        _verify_check,
    )


def _verify_cycle(seed: int) -> list[Op]:
    heavy = [
        _verify_op(claim, derive_seed(seed, 3, j, c), HEAVY_TRIALS)
        for j, (claim, copies) in enumerate(_HEAVY)
        for c in range(copies)
    ]
    exact = [
        _verify_op(claim, derive_seed(seed, 4, j, c), EXACT_TRIALS)
        for j, (claim, copies) in enumerate(_EXACT)
        for c in range(copies)
    ]
    # interleave so the slow ops spread over the cycle
    stride = max(1, len(exact) // len(heavy))
    ops = []
    for h, op in enumerate(heavy):
        ops.append(op)
        ops.extend(exact[h * stride : (h + 1) * stride])
    ops.extend(exact[len(heavy) * stride :])
    return ops


# ---------------------------------------------------------------- oracle_grid


def oracle_roster():
    """The criterion-9 roster: (index, q, p) with the map random_superop(2, 2, 2, 7000 + 13 j)."""
    pairs = [(q, p) for q in (1.0, 2.0, math.inf) for p in (1.0, 2.0, math.inf)]
    roster = [(j, *pairs[j // 2]) for j in range(18)]
    roster += [(18, 1.0, 1.0), (19, 1.0, math.inf)]
    return roster


def load_oracle_refs() -> dict[str, float]:
    return json.loads(ORACLE_REFS.read_text(encoding="utf-8"))["values"]


def _oracle_cycle() -> list[Op]:
    """The roster in a fixed order.

    The references pin every input, so the seed changes nothing here; the order
    is fixed too, because a small grid right after a large one runs slower
    (its buffers must be allocated afresh), and a seeded order would move the
    median latency between runs.
    """
    refs = load_oracle_refs()
    ops = []
    for j, q, p in oracle_roster():
        phi = random_superop(2, 2, 2, 7000 + 13 * j)
        query = NormQuery(q, p, True)
        ref = refs[str(j)]

        def check(value, ref=ref) -> bool:
            return isinstance(value, float) and abs(value - ref) <= ORACLE_TOL

        ops.append(
            Op(
                f"oracle j={j} q={_fmt(q)} p={_fmt(p)} R={ORACLE_RESOLUTION}",
                lambda phi=phi, query=query: optimize.brute_force_oracle(phi, query, ORACLE_RESOLUTION),
                check,
                oracle_grid_points(phi, query, ORACLE_RESOLUTION),
            )
        )
    return ops


# ---------------------------------------------------------------- entry


def build(name: str, seed: int, workdir: Path) -> tuple[list[Op], Op]:
    """The op cycle of a workload and its untimed warm-up op."""
    # warm-ups do the same amount of work for every seed
    if name == "cli_queries":
        ops = _cli_cycle(seed, workdir)
        return ops, next(op for op in ops if op.label.startswith("norm transpose-2"))
    if name == "verify_suites":
        return _verify_cycle(seed), _verify_op("duality", 0, EXACT_TRIALS)
    if name == "oracle_grid":
        ops = _oracle_cycle()
        return ops, next(op for op in ops if op.label.startswith("oracle j=0 "))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
