"""supernorms benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's op cycle (see ``workloads.py``)
is built from ``--seed`` and repeated, one op at a time, as many times as
fit in ``--seconds`` at the workload's nominal cycle time; every run of a
workload therefore does the same work and measures the same op mix.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine, the thread settings and the run's extra figures.

Every time is reported at the speed of the reference machine: before the
first op and after each op the run times a fixed slice of numpy work
(``SpeedProbe``) of the kind the workload's ops do.  Each op's latency is divided by how much slower than on
the reference machine the slices around that op ran; set-up and per-layer
times by the same ratio averaged over the run.  On a shared host the
machine's speed can swing by tens of percent from one second to the next,
and the probe, which calls no supernorms code, swings with it; the raw
figures are in the info line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the calls
into each library layer (see ``tracer.py``), reports the per-layer metrics
per op cycle, and writes the spans to ``.bench_out/spans-<workload>.npz``.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, supernorms; "
    "print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Import time of numpy and supernorms in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(done.stdout.strip())


class SpeedProbe:
    """Times a fixed slice of numpy work that calls no supernorms code.

    Sampled between ops, it measures how fast the machine runs at that
    moment, so a library change cannot move it.  Each sample runs the slice
    once untimed first, so it is not slowed by caches the op before evicted.
    The slice does the kind of work the workload does, because a shared
    host slows each kind by its own amount: ``"small"`` makes small LAPACK
    calls from Python, as an ascent does; ``"stream"`` streams through arrays
    larger than the caches, as the grid oracle does.
    """

    # an op's slowdown is the mean over the samples at most this many ops away
    WINDOW = 10

    # typical time of one slice on the reference machine (2-vCPU Intel Xeon
    # KVM guest, Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31); fixed,
    # so that figures from different commits and machines compare
    REFERENCE_SECONDS = {"small": 2.4e-4, "stream": 2.0e-3}

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.reference = self.REFERENCE_SECONDS[kind]
        if kind == "small":
            self._data = rng.standard_normal((8, 6, 6)) + 1j * rng.standard_normal((8, 6, 6))
            self._slice = self._small
        else:
            self._data = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
            self._slice = self._stream
        self._svd = np.linalg.svd  # bound here, so a tracer's wrapper never sees the probe
        self.samples: list[float] = []

    def _small(self) -> None:
        for a in self._data:
            self._svd(a, compute_uv=False)
            a @ a.conj().T

    def _stream(self) -> None:
        f = np.abs(self._data) ** 2
        np.sqrt(f * f + 1.0).max()

    def sample(self) -> None:
        self._slice()
        t0 = time.perf_counter()
        self._slice()
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """How many times slower than the reference machine the run went."""
        return statistics.fmean(self.samples) / self.reference

    def slowdowns_around_ops(self) -> list[float]:
        """The slowdown around op k, sampled after ops k-WINDOW..k+WINDOW-1.

        Sample 0 is taken before the first op and sample k + 1 right after op k.
        """
        n, w = len(self.samples), self.WINDOW
        prefix = [0.0, *itertools.accumulate(self.samples)]
        return [
            (prefix[min(n, k + 1 + w)] - prefix[max(0, k + 1 - w)])
            / (min(n, k + 1 + w) - max(0, k + 1 - w)) / self.reference
            for k in range(n - 1)
        ]


def at_reference_speed(metrics: dict, units: dict, slowdown: float) -> dict:
    """Scale every time (unit s or ms) and rate (unit 1/s) in ``metrics`` by the slowdown."""
    scale = {"s": 1.0 / slowdown, "ms": 1.0 / slowdown, "1/s": slowdown}
    return {name: value * scale.get(units.get(name), 1.0) for name, value in metrics.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import supernorms

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "supernorms": supernorms.__version__,
        "blas": blas_desc,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _run_op(op, tracer=None, op_id: int = -1) -> tuple[float, bool]:
    """Time one op and check its output; returns (seconds, ok)."""
    if tracer is not None:
        tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising op is a failed op, not a benchmark crash
        elapsed = time.perf_counter() - t0
        print(f"op failed: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, False
    finally:
        if tracer is not None:
            tracer.op_id = -1
    elapsed = time.perf_counter() - t0
    ok = op.check(result)
    if not ok:
        print(f"op output rejected: {op.label}: {result!r}"[:400], file=sys.stderr)
    return elapsed, ok


def run_cycles(cycle, cycles: int, tracer=None, probe=None):
    """Run the op cycle ``cycles`` times in a closed loop.

    ``probe``, if given, is sampled once before the first op and after each op.

    Returns (latencies[cycle][op], failures, wall seconds).
    """
    latencies, failures = [], 0
    if probe is not None:
        probe.sample()
    start = time.perf_counter()
    for _ in range(cycles):
        times = []
        for op in cycle:
            dt, ok = _run_op(op, tracer, len(latencies) * len(cycle) + len(times))
            times.append(dt)
            failures += not ok
            if probe is not None:
                probe.sample()
        latencies.append(times)
    return latencies, failures, time.perf_counter() - start


def op_latencies(latencies) -> list[float]:
    """Each op's latency as its median over the run's cycles.

    The cycles repeat the same inputs, so repeats of one op differ only by
    machine noise; the median drops a cycle slowed by a burst of it.
    """
    return [statistics.median(column) for column in zip(*latencies)]


def op_metrics(per_op: list[float]) -> tuple[float, float, float]:
    """(ops per second, p50 ms, p90 ms) of the ops' latencies in seconds."""
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    return len(per_op) / sum(per_op), 1e3 * deciles[4], 1e3 * deciles[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "supernorms" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cycles = max(1, round(args.seconds / workloads.CYCLE_SECONDS[args.workload]))
    OUT.mkdir(exist_ok=True)
    setups, attempted, failed = [], 0, 0
    for _ in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
        t0 = time.perf_counter()
        cycle, warmup = workloads.build(args.workload, args.seed, workdir)
        _, ok = _run_op(warmup)
        setups.append(_import_seconds() + time.perf_counter() - t0)
        attempted += 1
        failed += not ok
        if len(setups) < SETUP_REPEATS:
            shutil.rmtree(workdir)

    probe = SpeedProbe(workloads.PROBE_KIND[args.workload])
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        latencies, failures, wall = run_cycles(cycle, cycles, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir)
    attempted += cycles * len(cycle)
    failed += failures
    slowdown = probe.slowdown()
    around = iter(probe.slowdowns_around_ops())
    scaled = [[dt / next(around) for dt in times] for times in latencies]
    raw_per_op, per_op = op_latencies(latencies), op_latencies(scaled)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_cycle": len(cycle),
        "cycles": cycles,
        "wall_s": wall,
        "wall_ops_per_s": cycles * len(cycle) / wall,
        "error_rate": failed / attempted,
        "slowdown": slowdown,
        "probe_samples": len(probe.samples),
        "grid_points_per_s": sum(op.grid_points for op in cycle) / sum(raw_per_op),
        "environment": environment(),
    }
    if args.trace:
        raw = tracer.layer_metrics(cycles)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        metrics = at_reference_speed(raw, units, slowdown)
        raw["trace.ops_per_s"] = op_metrics(raw_per_op)[0]
        metrics["trace.ops_per_s"] = op_metrics(per_op)[0]
    else:
        raw = {"setup_s": statistics.median(setups),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
        metrics = at_reference_speed(raw, units, slowdown)
        for values, per in ((raw, raw_per_op), (metrics, per_op)):
            values["ops_per_s"], values["latency_p50_ms"], values["latency_p90_ms"] = op_metrics(per)
    info["raw_metrics"] = {name: raw[name] for name in units}
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


if __name__ == "__main__":
    sys.exit(main())
