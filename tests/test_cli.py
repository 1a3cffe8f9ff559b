import json
import math
import subprocess
import sys

import numpy as np
import pytest

from supernorms import (
    apply,
    channel_from_json,
    channel_to_json,
    matrix_to_json,
    random_superop,
)
from supernorms import cli
from supernorms.cli import main


def write_matrix(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(matrix_to_json(np.array(data, dtype=complex)), encoding="utf-8")
    return str(path)


def write_channel(tmp_path, name, phi):
    path = tmp_path / name
    path.write_text(channel_to_json(phi), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schatten_identity(tmp_path, capsys):
    path = write_matrix(tmp_path, "eye.json", np.eye(2))
    code, out, err = run_cli(capsys, "schatten", path, "--p", "1")
    assert (code, err) == (0, "")
    assert out == "2.000000000000\n"
    code, out, _ = run_cli(capsys, "schatten", path, "--p", "inf")
    assert code == 0
    assert out == "1.000000000000\n"


def test_schatten_signed_spectrum(tmp_path, capsys):
    path = write_matrix(tmp_path, "u.json", np.diag([0.5, 0.5j, -0.5, -0.5j]))
    code, out, _ = run_cli(capsys, "schatten", path, "--p", "1")
    assert code == 0
    assert out == "2.000000000000\n"


def test_schatten_bad_exponent_exits_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "eye.json", np.eye(2))
    code, out, err = run_cli(capsys, "schatten", path, "--p", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_schatten_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "schatten", str(tmp_path / "absent.json"), "--p", "2")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command, text",
    [
        ("schatten", "[" * 200000),
        ("norm", "[" * 200000),
        ("schatten", '{"rows": true, "cols": true, "entries": [[2.0, 0.0]]}'),
        (
            "norm",
            '{"dim_in": true, "dim_out": true,'
            ' "kraus_left": [{"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}]}',
        ),
    ],
    ids=["deeply-nested-matrix", "deeply-nested-channel", "boolean-rows-cols", "boolean-dims"],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    flags = ("--p", "2") if command == "schatten" else ("--q", "1", "--p", "1")
    code, out, err = run_cli(capsys, command, str(path), *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_norm_output_contract(tmp_path, capsys):
    path = write_channel(tmp_path, "phi.json", random_superop(2, 2, 2, 6))
    args = ("norm", path, "--q", "1", "--p", "2", "--seed", "3", "--restarts", "8")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    obj = json.loads(out1)
    assert list(obj) == ["value", "converged", "seed"]
    assert obj["seed"] == 3
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_parser_is_built_once_per_process(tmp_path, capsys):
    path = write_channel(tmp_path, "phi.json", random_superop(2, 2, 2, 6))
    args = ("norm", path, "--q", "1", "--p", "inf", "--seed", "3", "--restarts", "8")
    cli._build_parser.cache_clear()
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    # other flags in between must not carry over into the next parse
    code, _, _ = run_cli(capsys, "stabilized", path, "--p", "2", "--hermitian", "--restarts", "4")
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("message", ["Unable to allocate 64.0 TiB", ""])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("supernorms.cli.norm_q_to_p", exhausted)
    path = write_channel(tmp_path, "phi.json", random_superop(2, 2, 2, 6))
    code, out, err = run_cli(capsys, "norm", path, "--q", "1", "--p", "1", "--stabilize", "9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")
    assert message in err
    assert err.count("\n") == 1


def test_linalg_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("supernorms.cli.norm_q_to_p", diverged)
    path = write_channel(tmp_path, "phi.json", random_superop(2, 2, 2, 6))
    code, out, err = run_cli(capsys, "norm", path, "--q", "1", "--p", "1")
    assert (code, out) == (2, "")
    assert err == "error: numerical failure: SVD did not converge\n"


def test_oversized_ancilla_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the ascent started")

    monkeypatch.setattr("supernorms.optimize._ascend", never)
    path = write_channel(tmp_path, "phi.json", random_superop(2, 2, 2, 6))
    code, out, err = run_cli(capsys, "norm", path, "--q", "1", "--p", "1", "--stabilize", "100000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: stabilize_dim 100000 on a 2->2 map with 32 restarts")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_oversized_query_without_ancilla_does_not_name_stabilize_dim(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the ascent started")

    monkeypatch.setattr("supernorms.optimize._ascend", never)
    path = write_channel(tmp_path, "phi.json", random_superop(2, 2, 2, 6))
    code, out, err = run_cli(capsys, "norm", path, "--q", "1", "--p", "1", "--restarts", "100000000")
    assert (code, out) == (2, "")
    assert err == (
        "error: a 2->2 map with 100000000 restarts and 2 terms needs 800000000 entries, "
        "over the limit of 67108864\n"
    )


def test_oversized_transpose_example_exits_2_with_one_line(capsys):
    code, out, err = run_cli(capsys, "example", "transpose(100)")
    assert code == 2
    assert out == ""
    assert err == "error: transpose(100) needs 100000000 entries, over the limit of 67108864\n"


def test_transpose_dimension_past_the_digit_limit_exits_2_with_one_line(capsys):
    # more digits than int() reads (4300): refused by its length, and not spelled out
    code, out, err = run_cli(capsys, "example", "transpose-1" + "0" * 5000)
    assert (code, out) == (2, "")
    assert err == "error: transpose dimension of 5001 digits is over the limit of 67108864\n"


def test_norm_hermitian_flag_lowers_simple_example(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "example", "simple_nonhermitian")
    path = tmp_path / "simple.json"
    path.write_text(out.strip(), encoding="utf-8")
    code, plain, _ = run_cli(capsys, "norm", str(path), "--q", "2", "--p", "1")
    code, herm, _ = run_cli(capsys, "norm", str(path), "--q", "2", "--p", "1", "--hermitian")
    assert json.loads(plain)["value"] == pytest.approx(1.0, abs=1e-6)
    assert json.loads(herm)["value"] == pytest.approx(2 ** -0.5, abs=1e-6)


def test_stabilize_flag_matches_stabilized_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "example", "transpose-2")
    path = tmp_path / "t2.json"
    path.write_text(out.strip(), encoding="utf-8")
    code, via_norm, _ = run_cli(
        capsys, "norm", str(path), "--q", "1", "--p", "1", "--stabilize", "2", "--restarts", "12"
    )
    assert code == 0
    code, via_stab, _ = run_cli(capsys, "stabilized", str(path), "--p", "1", "--restarts", "12")
    assert code == 0
    assert json.loads(via_norm)["value"] == pytest.approx(2.0, abs=1e-5)
    assert json.loads(via_norm)["value"] == json.loads(via_stab)["value"]


def test_example_pair_parts(tmp_path, capsys):
    code, diff_text, _ = run_cli(capsys, "example", "dim4_pair")
    assert code == 0
    code, first_text, _ = run_cli(capsys, "example", "dim4_pair", "--part", "0")
    assert code == 0
    d4 = channel_from_json(diff_text.strip())
    phi0 = channel_from_json(first_text.strip())
    assert d4.n_terms == 8
    assert phi0.n_terms == 4
    X = np.eye(2, dtype=complex) / 2.0
    code, second_text, _ = run_cli(capsys, "example", "dim4_pair", "--part", "1")
    phi1 = channel_from_json(second_text.strip())
    assert np.allclose(apply(d4, X), apply(phi0, X) - apply(phi1, X), atol=1e-12)


def test_example_part_rejected_for_single_maps(capsys):
    code, out, err = run_cli(capsys, "example", "transpose(2)", "--part", "0")
    assert code == 2
    assert err.startswith("error:")


def test_example_unknown_name(capsys):
    code, _, err = run_cli(capsys, "example", "bogus")
    assert code == 2
    assert "unknown example" in err


def test_verify_single_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "monotone_p", "--trials", "3")
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["claim_id"] == "monotone_p"
    assert obj["passed"] is True


def test_broken_worker_pool_exits_2_with_one_line(capsys, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    def died(*args, **kwargs):
        raise BrokenProcessPool("a worker was killed")

    monkeypatch.setattr("supernorms.cli.verify", died)
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem1", "--trials", "2")
    assert (code, out) == (2, "")
    assert err == "error: worker process failed: a worker was killed\n"


def test_other_runtime_errors_still_raise(capsys, monkeypatch):
    def bug(*args, **kwargs):
        raise RuntimeError("not a worker failure")

    monkeypatch.setattr("supernorms.cli.verify", bug)
    with pytest.raises(RuntimeError, match="not a worker failure"):
        main(["verify", "--suite", "theorem1"])


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert err.startswith("error:")


def test_explore_question_two(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "example", "transpose-2")
    path = tmp_path / "t2.json"
    path.write_text(out.strip(), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "explore", str(path), "--question", "2", "--restarts", "12"
    )
    assert (code, err) == (0, "")
    obj = json.loads(out)
    values = [row["value"] for row in obj["profile"]]
    assert values[0] == pytest.approx(1.0, abs=2e-3)
    assert values[1] == pytest.approx(2.0, abs=2e-3)


@pytest.mark.parametrize("command", ["norm", "stabilized", "explore"])
def test_negative_seed_exits_2_with_one_line(tmp_path, capsys, command):
    path = write_channel(tmp_path, "phi.json", random_superop(2, 2, 2, 6))
    flags = {
        "norm": ("--q", "1", "--p", "2"),
        "stabilized": ("--p", "1"),
        "explore": ("--question", "2"),
    }
    code, out, err = run_cli(capsys, command, path, *flags[command], "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be >= 0, got -1\n"


def test_verify_accepts_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "duality", "--trials", "2", "--seed", "-3")
    assert (code, err) == (0, "")
    assert json.loads(out)["seed"] == -3


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_explore_samples_below_one_exit_2(tmp_path, capsys, samples):
    path = write_channel(tmp_path, "phi.json", random_superop(2, 2, 2, 6))
    code, out, err = run_cli(capsys, "explore", path, "--question", "1", "--samples", samples)
    assert (code, out) == (2, "")
    assert err == f"error: samples must be >= 1, got {samples}\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["norm"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "supernorms.cli", "verify", "--suite", "monotone_p", "--trials", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["passed"] is True


def test_import_loads_no_process_pool_modules():
    # the verify fan-out and the BrokenProcessPool exit path import these lazily
    code = (
        "import sys, supernorms, supernorms.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
