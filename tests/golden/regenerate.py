"""Golden CLI outputs: the roster, and the script that rewrites them.

``tests/test_golden.py`` runs every case below through ``supernorms.cli.main``
in-process and compares its output with ``<case>.out`` in this directory. A
change that moves values on purpose rewrites the files from the repository
root with

    PYTHONPATH=src python tests/golden/regenerate.py

and says in CHANGES.md why the values moved. The script also rewrites the
random maps' channel files, so the queries read committed inputs.

    PYTHONPATH=src python tests/golden/regenerate.py --check

writes nothing: it lists each channel file and each case whose output
differs byte for byte from the committed file, and exits 1 if any does.
Other BLAS kernels move last bits, so this byte check is for local use; the
test gate compares floats to a tolerance.

The committed files were written with numpy 2.4.6 on its bundled
scipy-openblas 0.3.31 at that library's default kernel on the machine,
OpenBLAS core ``SkylakeX`` (as ``scipy_openblas_get_corename64_`` in numpy's
bundled library reports it), so ``--check`` passes byte for byte only on that
kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

from supernorms import channel_to_json, random_superop
from supernorms.cli import main

GOLDEN = Path(__file__).resolve().parent

# channel file -> random_superop(dim_in, dim_out, n_terms, seed), the shapes
# of the benchmark's cli_queries roster
RANDOM_MAPS = {
    "random222.json": (2, 2, 2, 101),
    "random233.json": (2, 3, 3, 102),
    "random323.json": (3, 2, 3, 103),
    "random332.json": (3, 3, 2, 104),
}

EXAMPLES = (
    "simple_nonhermitian", "qinf_nonhermitian", "depolarizing_pair", "dim4_pair",
    "transpose-2", "transpose-3",
)

# case -> argv; an argument ending in ".json" or ".out" names a file in this
# directory, and the named maps are read from the example outputs
CASES = {
    "verify_all": ["verify", "--suite", "all", "--trials", "3", "--seed", "42"],
    **{f"example_{name}": ["example", name] for name in EXAMPLES},
    "norm_random222_q1_p1": ["norm", "random222.json", "--q", "1", "--p", "1", "--seed", "11"],
    "norm_random233_q2_pinf": ["norm", "random233.json", "--q", "2", "--p", "inf", "--seed", "12"],
    "norm_random323_q1.5_p3": ["norm", "random323.json", "--q", "1.5", "--p", "3", "--seed", "13"],
    "norm_random332_qinf_p2": ["norm", "random332.json", "--q", "inf", "--p", "2", "--seed", "14"],
    "norm_random222_q1_p2_herm": [
        "norm", "random222.json", "--q", "1", "--p", "2", "--hermitian", "--seed", "15",
    ],
    "norm_random233_q1.5_p1_herm": [
        "norm", "random233.json", "--q", "1.5", "--p", "1", "--hermitian", "--seed", "16",
    ],
    "norm_random323_q1_p1_k2": [
        "norm", "random323.json", "--q", "1", "--p", "1", "--stabilize", "2", "--seed", "17",
    ],
    "norm_random332_q1.5_p2_k3": [
        "norm", "random332.json", "--q", "1.5", "--p", "2", "--stabilize", "3", "--seed", "18",
    ],
    "stabilized_random222_p1": ["stabilized", "random222.json", "--p", "1", "--seed", "19"],
    "stabilized_random332_p2_herm": [
        "stabilized", "random332.json", "--p", "2", "--hermitian", "--seed", "20",
    ],
    "norm_transpose-3_q2_p1_k4": [
        "norm", "example_transpose-3.out", "--q", "2", "--p", "1", "--stabilize", "4",
        "--seed", "21",
    ],
    "stabilized_transpose-2_p1.5": [
        "stabilized", "example_transpose-2.out", "--p", "1.5", "--seed", "22",
    ],
    "norm_dim4_pair_q1_p1_herm": [
        "norm", "example_dim4_pair.out", "--q", "1", "--p", "1", "--hermitian", "--seed", "23",
    ],
    "stabilized_depolarizing_pair_p1": [
        "stabilized", "example_depolarizing_pair.out", "--p", "1", "--seed", "24",
    ],
    # answered on a smaller ancilla: Theorem 3 (q = 1, k > dim_in), then Theorem 2
    "norm_random222_q1_p1_k4": [
        "norm", "random222.json", "--q", "1", "--p", "1", "--stabilize", "4", "--seed", "25",
    ],
    "norm_random222_q1_p1_k4_herm": [
        "norm", "random222.json", "--q", "1", "--p", "1", "--stabilize", "4", "--hermitian",
        "--seed", "26",
    ],
    "stabilized_random233_p3": ["stabilized", "random233.json", "--p", "3", "--seed", "27"],
}


def run_case(case: str) -> str:
    """The stdout of one case; a nonzero exit raises ``AssertionError``."""
    argv = [str(GOLDEN / a) if a.endswith((".json", ".out")) else a for a in CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, f"{case} exited {code}: {err.getvalue()}"
    return out.getvalue()


def outputs():
    """Each golden file's name and fresh contents, channel files first, then
    the cases in roster order (examples before the queries that read them)."""
    for name, args in RANDOM_MAPS.items():
        yield name, channel_to_json(random_superop(*args)) + "\n"
    for case in CASES:
        yield f"{case}.out", run_case(case)


def regenerate() -> None:
    for name, text in outputs():
        (GOLDEN / name).write_text(text, encoding="utf-8")


def check() -> int:
    """List the golden files whose fresh contents differ byte for byte from
    the committed ones; 1 if any does, else 0."""
    differ = [name for name, text in outputs() if (GOLDEN / name).read_bytes() != text.encode("utf-8")]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(RANDOM_MAPS) + len(CASES)} golden files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden files, or with --check compare them.")
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if any file would change")
    if parser.parse_args().check:
        sys.exit(check())
    regenerate()
