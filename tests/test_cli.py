import json
import os
import subprocess
import sys
from pathlib import Path

from simplexalg import cli, verify
from simplexalg.cli import (
    EXIT_DEGENERATE,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_PASS,
    EXIT_USAGE,
    _exit_code,
    main,
)
from simplexalg.verify import CheckResult, VerificationReport
from simplexalg.params import ParamVector


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv, python_flags=()):
    """``python -m simplexalg.cli`` in a child that imports the checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "simplexalg.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_matrix_pinned_case(capsys):
    code = run_cli("matrix", "--op", "L:1,2", "--d", "2", "--n", "1", "--gamma", "0,0,0")
    assert code == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"] == [["-3/2", "1/2"], ["3/2", "-1/2"]]
    assert payload["basis"] == [[1, 0], [0, 1]]


def test_matrix_racah_side_matches(capsys):
    run_cli("matrix", "--op", "B12", "--d", "2", "--n", "1", "--gamma", "0,0,0")
    b12 = json.loads(capsys.readouterr().out)["matrix"]
    run_cli("matrix", "--op", "R-:2", "--d", "2", "--n", "1", "--gamma", "0,0,0")
    general = json.loads(capsys.readouterr().out)["matrix"]
    assert b12 == general == [["-3/2", "1/2"], ["3/2", "-1/2"]]


def test_matrix_jm_diagonal(capsys):
    code = run_cli("matrix", "--op", "M:2", "--d", "3", "--n", "1", "--gamma", "0,0,0,0")
    assert code == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"] == [["0", "0", "0"], ["0", "-3", "0"], ["0", "0", "-3"]]


def test_unknown_operator_is_usage_error(capsys):
    assert run_cli("matrix", "--op", "Q:1", "--d", "2", "--n", "1", "--gamma", "0,0,0") == EXIT_USAGE


def test_wrong_dimension_for_explicit_operator():
    assert run_cli("matrix", "--op", "B12", "--d", "3", "--n", "1", "--gamma", "0,0,0,0") == EXIT_USAGE


def test_invalid_gamma_exit_code(capsys):
    assert run_cli("verify", "--gamma", "-1,0,0", "--n", "1", "--suite", "spectral") == EXIT_INVALID


def test_decimal_gamma_rejected():
    assert run_cli("matrix", "--op", "L:1,2", "--d", "2", "--n", "1", "--gamma", "0.5,0,0") == EXIT_USAGE


def test_degenerate_strict_exit_code(capsys):
    # the nine-term operator is degenerate at gamma = 0, and matrix prints
    # no matrix then; it has no mode to select another rule
    code = run_cli("matrix", "--op", "B123", "--d", "3", "--n", "2", "--gamma", "0,0,0,0")
    assert code == EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "degenerate parameters: shift (-1, 1, 0) at nu=(2, 0, 0): "
        "denominator form g34+2nu3 vanishes\n"
    )
    code = run_cli(
        "matrix", "--op", "B123", "--d", "3", "--n", "2", "--gamma", "0,0,0,0",
        "--mode", "lenient",
    )
    assert code == EXIT_USAGE


def test_verify_all_suites_quick(capsys):
    code = run_cli("verify", "--gamma", "1/2,1/2,1/2", "--n", "2", "--suite", "all")
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "spectral" in out and "irreducibility" in out


def test_verify_strict_degenerate_exit(capsys):
    # --mode sets only the exit code: both modes report the same verdict
    details = "L123=B123: shift (-1, 1, 0) at nu=(2, 0, 0): denominator form g34+2nu3 vanishes"
    code = run_cli("verify", "--gamma", "0,0,0,0", "--n", "2", "--suite", "racah")
    assert code == EXIT_DEGENERATE
    assert details in capsys.readouterr().out
    code = run_cli("verify", "--gamma", "0,0,0,0", "--n", "2", "--suite", "racah", "--mode", "lenient")
    assert code == EXIT_PASS
    assert details in capsys.readouterr().out
    code = run_cli("verify", "--gamma", "1/2,1/3,1/4,1/5", "--n", "2", "--suite", "racah")
    assert code == EXIT_PASS


def test_exit_code_priority_unit():
    failing = VerificationReport(2, 1, ParamVector([0, 0, 0]), [CheckResult("x", "fail")])
    degenerate = VerificationReport(2, 1, ParamVector([0, 0, 0]), [CheckResult("x", "degenerate")])
    passing = VerificationReport(2, 1, ParamVector([0, 0, 0]), [CheckResult("x", "pass")])
    assert _exit_code([passing], "strict") == EXIT_PASS
    assert _exit_code([passing, degenerate], "strict") == EXIT_DEGENERATE
    assert _exit_code([passing, degenerate], "lenient") == EXIT_PASS
    assert _exit_code([failing, degenerate], "strict") == EXIT_FAIL


def test_verify_writes_reproducible_reports(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["verify", "--gamma", "1/2,1/2,1/2", "--n", "1,2", "--suite",
            "spectral,separation,relations"]
    assert run_cli(*args, "--out", str(out_a)) == EXIT_PASS
    assert run_cli(*args, "--out", str(out_b)) == EXIT_PASS
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == ["report_0000.json", "report_0001.json"]
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    payload = json.loads((out_a / "report_0000.json").read_text())
    assert set(payload) == {"d", "n", "gamma", "checks"}


def test_sweep_deterministic(tmp_path):
    out_a = tmp_path / "sa"
    out_b = tmp_path / "sb"
    args = [
        "sweep", "--seed", "7", "--draws", "4", "--d", "2", "--n", "1",
        "--suite", "spectral,separation",
    ]
    assert run_cli(*args, "--out", str(out_a)) == EXIT_PASS
    assert run_cli(*args, "--out", str(out_b)) == EXIT_PASS
    names = sorted(p.name for p in out_a.iterdir())
    assert "summary.json" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["seed"] == 7
    assert all(entry["reason"] == "invalid-parameter" for entry in summary["skipped"])
    assert all(counts["fail"] == 0 for counts in summary["aggregate"].values())


def test_matrix_f_operator_name(capsys):
    gamma = "1/2,1/3,1/4,1/5"
    code = run_cli("matrix", "--op", "F:2,3,1,4", "--d", "3", "--n", "1", "--gamma", gamma)
    assert code == EXIT_PASS
    f_matrix = json.loads(capsys.readouterr().out)["matrix"]
    run_cli("matrix", "--op", "L:2,3", "--d", "3", "--n", "1", "--gamma", gamma)
    l_matrix = json.loads(capsys.readouterr().out)["matrix"]
    from simplexalg.scalar import Rat, as_rat, rat_str

    factor = (1 - Rat(1, 2) ** 2) * (1 - Rat(1, 5) ** 2)
    scaled = [[rat_str(as_rat(v) * factor) for v in row] for row in l_matrix]
    assert f_matrix == scaled


def test_verify_parallel_workers_deterministic(tmp_path):
    args = ["verify", "--gamma", "1/2,1/2,1/2", "--n", "1,2,3", "--suite",
            "spectral,separation"]
    assert run_cli(*args, "--out", str(tmp_path / "serial")) == EXIT_PASS
    assert run_cli(*args, "--workers", "2", "--out", str(tmp_path / "pool")) == EXIT_PASS
    for name in ("report_0000.json", "report_0001.json", "report_0002.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


def test_console_entry_point_runs():
    result = run_module("matrix", "--op", "Ltot", "--d", "2", "--n", "1", "--gamma", "1/2,1/3,1/4")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["op"] == "Ltot"


def test_missing_required_flag_is_usage_error():
    assert run_cli("matrix", "--op", "L:1,2", "--d", "2", "--n", "1") == EXIT_USAGE
    assert run_cli("sweep", "--draws", "1") == EXIT_USAGE


def test_d_below_two_is_usage_error(capsys):
    assert run_cli("verify", "--gamma", "1/2,1/3") == EXIT_USAGE
    assert run_cli("sweep", "--seed", "1", "--d", "1", "--draws", "1") == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("usage error:") for line in lines)


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    # gamma_2 + gamma_3 = -1 is the documented strict refusal of B12, and the
    # general family takes its limits there
    result = run_module("verify", "--gamma", "-1/2,-1/2,-1/2", "--n", "2")
    assert result.returncode == EXIT_DEGENERATE
    assert "Traceback" not in result.stderr
    assert "L12=B12: shift (-1, 1) at nu=(2, 0): denominator form g2+g3+2nu2+1 vanishes" in result.stdout

    # an exception inside a suite is a fault of the program, not a verdict
    def fault(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(verify, "verify_separation", fault)
    code = run_cli("verify", "--gamma", "1/2,1/3,1/5", "--n", "1", "--suite", "separation")
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == ["internal error: RuntimeError: injected fault"]


def test_library_invariants_hold_under_python_O():
    # python -O strips assert statements; the limits of the general family
    # raise InvariantViolation instead, and this cell takes them
    result = run_module(
        "verify", "--gamma", "1/2,-2/3,2/3", "--n", "2", "--suite", "racah", "--mode", "lenient",
        python_flags=("-O",),
    )
    assert result.returncode == EXIT_PASS, result.stderr


def test_bad_operator_index_is_usage_error(capsys):
    for op, d in (("L:1,5", "2"), ("M:3", "2"), ("F:1,2,3,3", "3"), ("R+:1", "2")):
        gamma = ",".join(["1/2", "1/3", "1/5", "1/7"][: int(d) + 1])
        assert run_cli("matrix", "--op", op, "--d", d, "--n", "1", "--gamma", gamma) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "usage error: index pair (1,5) out of range for d = 2",
        "usage error: index 3 out of range for d = 2",
        "usage error: indices i, j, k, l must be distinct",
        "usage error: j must satisfy 2 <= j <= 2",
    ]


def test_negative_degree_or_draws_is_usage_error(capsys):
    assert run_cli("verify", "--gamma", "1/2,1/3,1/5", "--n", "-1") == EXIT_USAGE
    assert run_cli("verify", "--gamma", "1/2,1/3,1/5", "--n", "1,-2") == EXIT_USAGE
    assert run_cli("matrix", "--op", "L:1,2", "--d", "2", "--n", "-1", "--gamma", "0,0,0") == EXIT_USAGE
    assert run_cli("sweep", "--seed", "1", "--draws", "-3") == EXIT_USAGE
    assert run_cli("sweep", "--seed", "1", "--draws", "1", "--n", "-1") == EXIT_USAGE
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [
        "usage error: n = -1 is negative; n must be >= 0",
        "usage error: n = -2 is negative; n must be >= 0",
        "usage error: n = -1 is negative; n must be >= 0",
        "usage error: draws = -3 is negative; draws must be >= 0",
        "usage error: n = -1 is negative; n must be >= 0",
    ]


def test_workers_below_one_is_usage_error(capsys):
    assert run_cli("verify", "--gamma", "1/2,1/3,1/5", "--n", "1", "--workers", "0") == EXIT_USAGE
    assert run_cli("verify", "--gamma", "1/2,1/3,1/5", "--n", "1", "--workers", "-2") == EXIT_USAGE
    assert run_cli("sweep", "--seed", "1", "--draws", "1", "--workers", "0") == EXIT_USAGE
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [
        "usage error: workers = 0 is below 1; workers must be >= 1",
        "usage error: workers = -2 is below 1; workers must be >= 1",
        "usage error: workers = 0 is below 1; workers must be >= 1",
    ]


def test_sweep_parallel_workers_deterministic(tmp_path):
    args = ["sweep", "--seed", "3", "--draws", "3", "--d", "2", "--n", "1,2", "--suite",
            "spectral,separation,kd"]
    assert run_cli(*args, "--out", str(tmp_path / "serial")) == EXIT_PASS
    assert run_cli(*args, "--workers", "2", "--out", str(tmp_path / "pool")) == EXIT_PASS
    names = sorted(path.name for path in (tmp_path / "serial").iterdir())
    assert "summary.json" in names and len(names) > 2
    assert names == sorted(path.name for path in (tmp_path / "pool").iterdir())
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


class _SerialPool:
    """Stand-in for ProcessPoolExecutor that records each map's chunk size."""

    chunksizes = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, items)


def test_workers_chunk_by_gamma_only_with_a_group_per_worker(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "chunksizes", [])
    # verify has one (d, gamma) group: each level is its own chunk
    verify_args = ["verify", "--gamma", "1/2,1/3,1/5", "--n", "1,2,3", "--suite", "spectral"]
    assert run_cli(*verify_args, "--workers", "2") == EXIT_PASS
    # a sweep over four gammas at one d has a group for each of two workers
    sweep_args = ["sweep", "--seed", "3", "--draws", "4", "--d", "2", "--n", "1,2",
                  "--suite", "spectral", "--out", str(tmp_path)]
    assert run_cli(*sweep_args, "--workers", "2") == EXIT_PASS
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["skipped"]) <= 2
    assert _SerialPool.chunksizes == [1, 2]


def test_degree_zero_is_still_a_cell(capsys):
    assert run_cli("verify", "--gamma", "1/2,1/3,1/5", "--n", "0", "--suite", "relations") == EXIT_PASS
    assert "relations" in capsys.readouterr().out


def test_zero_denominator_in_gamma_is_usage_error(capsys):
    assert run_cli("verify", "--gamma", "1/0,1/3,1/5", "--n", "1") == EXIT_USAGE
    gamma = ("--gamma", "1/0,1/3,1/5")
    assert run_cli("matrix", "--op", "L:1,2", "--d", "2", "--n", "1", *gamma) == EXIT_USAGE
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [
        "usage error: cannot parse gamma '1/0,1/3,1/5': rational literal '1/0' has a zero denominator"
    ] * 2
