import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ratiodyn.classify import classify
from ratiodyn.cli import build_analysis_report, main
from ratiodyn.ratio_map import Parameters


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_analyze_json_is_parseable():
    code, out = run_cli("analyze", "--params", "0.1,1.79,-2,1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert len(report["equilibria"]) == 1
    assert len(report["two_cycles"]) == 3
    assert report["unit_product_cycle"] is not None
    rules = {v["rule"] for v in report["verdicts"]}
    assert {"T1.b", "T2.a", "T2.c1"} <= rules


def test_analyze_text_mentions_cycles():
    code, out = run_cli("analyze", "--params", "0.2,1.7,-2,1.1")
    assert code == 0
    assert "two-cycles:" in out
    assert "63.65" in out


def test_simulate_csv_columns():
    code, out = run_cli(
        "simulate", "--params", "0.1,1.79,-2,1", "--x-1", "1", "--x0", "3",
        "--steps", "20",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "t_n", "log10_abs_x_n", "sign_x_n"]
    assert rows[1][0] == "-1" and rows[1][1] == ""
    assert len(rows) == 23  # header + x_{-1} + x_0..x_20
    assert float(rows[2][1]) == 3.0


def test_classify_text_output():
    code, out = run_cli(
        "classify", "--params", "0.1,1.79,-2,1", "--x-1", "1", "--x0", "3",
    )
    assert code == 0
    assert "class: diverges_to_infinity" in out
    assert "rule: T2.a" in out


def test_classify_json_round_trip():
    code, out = run_cli(
        "classify", "--params", "0.1,1.79,-2,1", "--x0", "3", "--format", "json",
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["class"] == "diverges_to_infinity"
    assert verdict["conditional"] is False


def test_sweep_deterministic_across_threads():
    argv = [
        "sweep", "--params", "0.1,1.79,C,1", "--c-range", "-3:-1:12",
        "--x0-ratio", "1.3", "--steps", "5000",
    ]
    outs = [run_cli(*argv, "--threads", str(n)) for n in (1, 4)]
    assert outs[0][0] == 0
    assert outs[0][1] == outs[1][1]
    rows = list(csv.reader(io.StringIO(outs[0][1])))
    assert rows[0] == ["c", "class", "rule"]
    assert len(rows) == 13


def test_sweep_repeat_is_byte_identical():
    argv = [
        "sweep", "--params", "0.1,1.79,C,1", "--c-range", "-2:-1:6",
        "--x0-ratio", "1.3", "--steps", "5000", "--float-format", "fixed17",
    ]
    assert run_cli(*argv) == run_cli(*argv)


def test_invalid_arguments_exit_one():
    assert run_cli("analyze", "--params", "1,2,3")[0] == 1  # three values
    assert run_cli("analyze", "--params", "0,1,1,1")[0] == 1  # a must be positive
    assert run_cli("frobnicate")[0] == 1
    assert run_cli("sweep", "--params", "0.1,1.79,-2,1", "--c-range", "-3:-1:4")[0] == 1
    assert run_cli("analyze", "--params", "0.1,1.79,-2,1", "--seed", "0")[0] == 1
    assert run_cli("analyze", "--params", "0.1,1.79,-2,1", "--format", "csv")[0] == 1
    assert run_cli("classify", "--params", "0.1,1.79,-2,1", "--format", "csv")[0] == 1
    assert run_cli("simulate", "--params", "0.1,1.79,-2,1", "--format", "json")[0] == 1
    assert run_cli("simulate", "--params", "0.1,1.79,-2,1", "--tol", "1e-9")[0] == 1
    assert run_cli(
        "sweep", "--params", "0.1,1.79,C,1", "--c-range", "-3:-1:4", "--format", "text",
    )[0] == 1
    assert run_cli("classify", "--params", "1,1,nan,1")[0] == 1
    assert run_cli("analyze", "--params", "1,inf,1,1")[0] == 1
    assert run_cli("classify", "--params", "0.2,1.7,-2,1.1", "--x0", "inf")[0] == 1
    assert run_cli("classify", "--params", "0.2,1.7,-2,1.1", "--x-1", "inf")[0] == 1


def test_simulate_stops_on_cube_underflow(capsys):
    # 1e-110 passes the 1e-300 zero guard, but its cube underflows to 0
    code, out = run_cli(
        "simulate", "--params", "0.2,1.7,-2,1.1", "--x0", "1e-110", "--steps", "5",
    )
    assert code == 0
    assert len(out.splitlines()) == 3  # header, x_{-1}, x_0
    assert "stopped_division_by_zero" in capsys.readouterr().err


def test_simulate_stops_at_a_zero_ratio(capsys):
    # phi(1) = 1 + 1 - 3 + 1 = 0, so x_1 = 0 and the next step divides by it
    code, out = run_cli("simulate", "--params", "1,1,-3,1", "--x0", "1")
    assert code == 0
    assert len(out.splitlines()) == 3  # header, x_{-1}, x_0
    assert "stopped_division_by_zero" in capsys.readouterr().err


def test_analyze_and_classify_share_the_unit_band():
    # a + b + c + d = 1 and sigma = -1; the root search also reports an
    # equilibrium at 0.9999999925..., inside the 1e-6 band of 1
    params = Parameters(
        2.409436547441535, 0.8024536259312941, -4.833216894187194, 2.6213267208143645
    )
    near_one = [
        v for v in build_analysis_report(params)["verdicts"]
        if v["attractor"] == "equilibrium" and abs(v["value"] - 1.0) <= 1e-6
    ]
    assert near_one and all(v["rule"] == "T1.c2" for v in near_one)
    assert classify(params, 1.0, 0.9).rule == "T1.c2"


def test_verify_paper_passes():
    code, out = run_cli("verify-paper")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("fixture checks passed")


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ratiodyn", "verify-paper"],
        capture_output=True, text=True, timeout=120, check=False,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "11/11" in proc.stdout
