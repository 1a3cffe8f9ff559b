"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --workloads cli_queries verify_suites oracle_grid \
        --seeds 10 [--traced-seeds 2] [--first-seed 1] [--out bench/baseline.json]

For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median), the figures the benchmark's
bounds are judged by, next to the same figures for the raw times (before
they are scaled to the reference machine's speed) and the runs' slowdowns.
With ``--traced-seeds`` it also makes that many traced runs and reports the
tracing overhead: the traced ``trace.ops_per_s`` over the untraced
``ops_per_s``, both as medians.  Runs are sequential, one process at
a time, for ``run_seconds`` from BENCHMARK.json each.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def sweep(workload: str, seeds: list[int], seconds: int, trace: int) -> dict:
    runs = [run_once(workload, s, seconds, trace) for s in seeds]
    names = runs[0]["result"]["metrics"]
    return {
        "environment": runs[0]["info"]["environment"],
        "seeds": seeds,
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "cycles": [r["info"]["cycles"] for r in runs],
        "wall_s": [r["info"]["wall_s"] for r in runs],
        "grid_points_per_s": summarize([r["info"]["grid_points_per_s"] for r in runs]),
        "slowdown": summarize([r["info"]["slowdown"] for r in runs]),
        "raw_metrics": {m: summarize([r["info"]["raw_metrics"][m] for r in runs]) for m in names},
        "metrics": {m: summarize([r["result"]["metrics"][m]["value"] for r in runs])
                    for m in names},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced-seeds", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        entry = {"untraced": sweep(workload, seeds, seconds, 0)}
        print(f"{workload}: failed {entry['untraced']['failed']} of "
              f"{entry['untraced']['attempted']}")
        untraced = entry["untraced"]
        for m, s in untraced["metrics"].items():
            raw = untraced["raw_metrics"][m]
            print(f"  {m:34s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  (raw median {raw['median']:.6g}  spread {raw['spread']:.4f})")
        print(f"  slowdown median {untraced['slowdown']['median']:.4f}"
              f"  spread {untraced['slowdown']['spread']:.4f}")
        if args.traced_seeds:
            traced = sweep(workload, seeds[: args.traced_seeds], seconds, 1)
            entry["traced"] = traced
            entry["trace_overhead"] = (
                traced["metrics"]["trace.ops_per_s"]["median"]
                / entry["untraced"]["metrics"]["ops_per_s"]["median"]
            )
            print(f"  traced/untraced ops_per_s {entry['trace_overhead']:.4f}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
