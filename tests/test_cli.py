import csv
import io
import json
import os
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ratiodyn.classify import classify
from ratiodyn.cli import _sweep_grid, build_analysis_report, main
from ratiodyn.cycles import PairingError
from ratiodyn.ratio_map import Parameters

CLI = sys.modules["ratiodyn.cli"]
SRC = str(Path(__file__).resolve().parent.parent / "src")
USABLE_CPUS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
)
# nine rows; on two workers the parent's share is rows 0, 2, 4, 6, 8
SWEEP_9 = [
    "sweep", "--params", "0.1,1.79,C,1", "--c-range", "-3:-1:9",
    "--x0-ratio", "1.3", "--steps", "5000",
]


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
    assert run_cli(*SWEEP_9, "--threads", "0")[0] == 1
    assert run_cli(*SWEEP_9, "--threads", "-2")[0] == 1


@pytest.mark.parametrize(
    "bad_rows", [(4,), (3,), (6, 3)], ids=["parent_share", "child_share", "child_first"],
)
def test_failing_row_ends_the_sweep_as_the_serial_run_does(monkeypatch, capsys, bad_rows):
    grid = _sweep_grid("-3:-1:9")
    bad_values = {grid[i] for i in bad_rows}
    real = CLI.classify

    def classify(params, *args, **kwargs):
        if params.c in bad_values:
            raise PairingError(f"no partner at c={params.c!r}")
        return real(params, *args, **kwargs)

    monkeypatch.setattr(CLI, "classify", classify)
    runs = []
    for threads in ("1", "2"):
        code, out = run_cli(*SWEEP_9, "--threads", threads)
        runs.append((code, capsys.readouterr().err, out))
    assert runs[0] == runs[1]
    code, err, out = runs[0]
    assert code == 2
    assert f"c={grid[min(bad_rows)]!r}" in err
    assert len(out.splitlines()) == 1 + min(bad_rows)


def test_workers_are_capped_and_fall_back_to_serial(monkeypatch):
    serial = run_cli(*SWEEP_9, "--threads", "1")
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert run_cli(*SWEEP_9, "--threads", "64") == serial
    assert len(forks) <= min(USABLE_CPUS, 9) - 1

    # a forked child of a threaded process may deadlock, so no fork then
    forks.clear()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert run_cli(*SWEEP_9, "--threads", "2") == serial
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forks == []

    monkeypatch.delattr(os, "fork")
    assert run_cli(*SWEEP_9, "--threads", "2") == serial


@pytest.mark.skipif(USABLE_CPUS < 2, reason="needs two usable CPUs to fork")
def test_worker_that_dies_fails_the_sweep(monkeypatch):
    parent = os.getpid()
    real = CLI.classify

    def classify(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(CLI, "classify", classify)
    with pytest.raises(RuntimeError, match="ended without sending its rows"):
        run_cli(*SWEEP_9, "--threads", "2")


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


def test_analyze_gates_the_unit_sum_as_classify_does_at_any_tol():
    # a + b + c + d = 1 + 5e-8: the equilibrium reads T1.a, which holds only
    # off a + b + c + d = 1, so the criteria that need the sum at 1 are not met
    code, out = run_cli("analyze", "--params", "0.20000005,1.7,-2,1.1", "--tol", "1e-6")
    assert code == 0
    assert "via T1.a" in out
    assert "sigma = 1.0000000000000004  (hypotheses not met)" in out
    assert "(hypotheses not met)" in next(
        line for line in out.splitlines() if "r_second_at_1" in line
    )


def test_verify_paper_passes():
    code, out = run_cli("verify-paper")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("fixture checks passed")


def run_python(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    # a block-buffered stdout, as a pipe gives without PYTHONUNBUFFERED
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, timeout=120, check=False,
        env={**env, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_python_dash_m_runs_the_cli():
    assert b"11/11" in run_python("-m", "ratiodyn", "verify-paper")


def test_forked_sweep_writes_stdout_once():
    # a child that flushed the parent's stdout buffer would repeat the header
    serial = run_python("-m", "ratiodyn", *SWEEP_9, "--threads", "1")
    assert run_python("-m", "ratiodyn", *SWEEP_9, "--threads", "2") == serial
    assert serial.count(b"c,class,rule") == 1


def test_cli_import_loads_no_process_or_thread_pool():
    loaded = run_python(
        "-c",
        "import sys, ratiodyn.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))",
    )
    assert loaded.strip() == b"[]"
