import csv
import io
import json
import os
import random
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
from ratiodyn.tolerances import DEFAULT_BUDGET, TAIL_TOL

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


def test_simulate_with_negative_steps_exits_one(capsys):
    argv = ["simulate", "--params", "0.1,1.79,-2,1", "--x-1", "1", "--x0", "3"]
    code, out = run_cli(*argv, "--steps", "-3")
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("ratiodyn: need n >= 0")
    # no steps is still a walk: the header and the rows of x_{-1} and x_0
    code, out = run_cli(*argv, "--steps", "0")
    assert code == 0 and len(list(csv.reader(io.StringIO(out)))) == 3


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
    "argv",
    [
        ["classify", "--params", "0.1,1.79,-2,1", "--x0", "3", "--tol", "nan"],
        ["classify", "--params", "0.1,1.79,-2,1", "--x0", "3", "--tol", "-1e-8"],
        ["classify", "--params", "0.1,1.79,-2,1", "--x0", "3", "--tol", "inf"],
        [*SWEEP_9, "--tol", "-1"],
        [*SWEEP_9, "--tol", "-1", "--threads", "2"],
        ["analyze", "--params", "0.1,1.79,-2,1", "--tol", "nan"],
        ["analyze", "--params", "0.1,1.79,-2,1", "--tol", "inf"],
    ],
    ids=["classify_nan", "classify_negative", "classify_inf", "sweep_negative",
         "sweep_negative_forked", "analyze_nan", "analyze_inf"],
)
def test_a_tolerance_that_cannot_work_exits_one(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 1
    assert "tol" in capsys.readouterr().err
    # no verdict, no report, and no sweep header
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        [*SWEEP_9, "--x0-ratio", "-1"],
        [*SWEEP_9, "--x0-ratio", "inf"],
        [*SWEEP_9, "--steps", "0"],
        ["sweep", "--params", "C,1.79,-2,1", "--c-range", "0:1:3"],
        ["sweep", "--params", "C,1.79,-2,1", "--c-range", "0:1:3", "--threads", "2"],
        # the row at a = 1 is fine, the one at a = -1 is not
        ["sweep", "--params", "C,1.79,-2,1", "--c-range", "1:-1:3", "--steps", "2000"],
        ["sweep", "--params", "C,1.79,-2,1", "--c-range", "1:-1:3", "--steps", "2000",
         "--threads", "2"],
    ],
    ids=["negative_start", "infinite_start", "no_steps", "first_row_a_zero",
         "first_row_a_zero_forked", "last_row_negative", "last_row_negative_forked"],
)
def test_a_sweep_that_cannot_start_writes_nothing(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("ratiodyn: ")


def _seeded_line(seed, at):
    """A sweep over 30 values of the parameter at index ``at`` in (0.05, 3),
    the others and the start ratio drawn from ``seed``."""
    rng = random.Random(seed)
    boxes = ((0.05, 3.0), (0.05, 3.0), (-6.0, 3.0), (0.05, 3.0))
    values = [repr(rng.uniform(lo, hi)) for lo, hi in boxes]
    values[at] = "C"
    return [
        "--params", ",".join(values), "--c-range", "0.05:3.0:30",
        "--x0-ratio", repr(rng.uniform(0.2, 5.0)),
    ]


README_LINE = ["--params", "0.1,1.79,C,1", "--c-range", "-3:-1:200", "--x0-ratio", "1.3"]


@pytest.mark.parametrize(
    "line",
    [
        README_LINE,
        _seeded_line(4, 0),
        _seeded_line(3, 1),
        _seeded_line(3, 3),
        # 11 of these 40 rows have not settled after 64 steps: they end via oracle
        ["--params", "0.1,1.79,C,1", "--c-range", "-3:-1:40", "--x0-ratio", "1.3",
         "--steps", "64", "--tol", "1e-9"],
    ],
    ids=["readme", "seeded_a", "seeded_b", "seeded_d", "readme_64_steps"],
)
def test_sweep_rows_answer_as_classify_and_ask_the_oracle_only_for_its_class(monkeypatch, line):
    module = sys.modules["ratiodyn.classify"]
    real = module.empirical_class
    asked = []

    def counting(params, *args, **kwargs):
        asked.append(params)
        return real(params, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, "empirical_class", counting)
        code, out = run_cli("sweep", *line, "--threads", "1")
    assert code == 0
    opts = dict(zip(line[::2], line[1::2]))
    values = [part.strip() for part in opts["--params"].split(",")]
    budget = int(opts.get("--steps", DEFAULT_BUDGET))
    tol = float(opts.get("--tol", TAIL_TOL))
    grid = _sweep_grid(opts["--c-range"])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == len(grid)
    via_oracle = []
    for value, (text, klass, rule) in zip(grid, rows):
        params = Parameters(*(value if v == "C" else float(v) for v in values))
        v = classify(params, 1.0, float(opts["--x0-ratio"]), budget, tol)
        assert (klass, rule) == (v.asymptotic_class, v.rule), text
        if rule == "oracle":
            via_oracle.append(params)
    assert asked == via_oracle
    if "--steps" in opts:
        assert via_oracle


@pytest.mark.parametrize(
    "bad_rows", [(4,), (3,), (6, 3)], ids=["parent_share", "child_share", "child_first"],
)
def test_failing_row_ends_the_sweep_as_the_serial_run_does(monkeypatch, capsys, bad_rows):
    grid = _sweep_grid("-3:-1:9")
    bad_values = {grid[i] for i in bad_rows}
    real = CLI._theorem_verdict

    def row_verdict(params, *args):
        if params.c in bad_values:
            raise PairingError(f"no partner at c={params.c!r}")
        return real(params, *args)

    monkeypatch.setattr(CLI, "_theorem_verdict", row_verdict)
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
    real = CLI._theorem_verdict

    def row_verdict(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(CLI, "_theorem_verdict", row_verdict)
    with pytest.raises(RuntimeError, match="ended without sending its rows"):
        run_cli(*SWEEP_9, "--threads", "2")


def test_simulate_stops_on_cube_underflow(capsys):
    # 1e-110 is not 0, but its cube underflows to 0
    code, out = run_cli(
        "simulate", "--params", "0.2,1.7,-2,1.1", "--x0", "1e-110", "--steps", "5",
    )
    assert code == 0
    assert len(out.splitlines()) == 3  # header, x_{-1}, x_0
    assert "stopped_division_by_zero" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "classify"])
@pytest.mark.parametrize(
    "start",
    [("--x0", "inf"), ("--x-1", "nan"), ("--x-1", "1e-300", "--x0", "1e300"),
     ("--x-1", "1e300", "--x0", "1e-300")],
    ids=["x0_inf", "x_minus1_nan", "ratio_overflows", "ratio_underflows"],
)
def test_a_start_that_is_not_a_finite_float_exits_one(command, start, capsys):
    code, out = run_cli(command, "--params", "0.2,1.7,-2,1.1", *start)
    assert (code, out) == (1, "")
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze"], ["classify", "--x0", "1.5"]])
def test_a_cycle_that_no_float_holds_is_no_numerical_failure(argv):
    # the one 2-cycle of this set is about (1e-120, 1e360)
    code, out = run_cli(*argv, "--params", "1e-120,1,1,1")
    assert code == 0 and out


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


def test_analyze_decides_the_unit_cycle_as_classify_does_at_any_tol():
    # (a-c)/d and (d-b+1)/a differ by 1e-6: the cycle the search finds has
    # p*q = 0.9999999, so no p*q = 1 cycle exists, whatever the root tol
    code, out = run_cli(
        "analyze", "--params", "0.10000001,1.79,-2,1", "--tol", "1e-6", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["unit_product_cycle"] is None
    assert report["criteria"]["kappa"] is None


def test_a_newton_step_onto_the_pole_is_no_bad_argument():
    # the 2-cycle polish steps onto t = 0 here; the tiny-a PairingError
    # still raised on this set is a known defect, exit 2
    code, _ = run_cli("classify", "--params", "5e-324,0.3,-3,1", "--x0", "1.5")
    assert code != 1


def test_a_walk_that_reads_a_failing_cycle_search_exits_2():
    # the tiny-a PairingError, a known defect: this orbit needs the 2-cycles
    code, _ = run_cli("classify", "--params", "1e-20,0.3,-3,0.2", "--x0", "1.5")
    assert code == 2


def test_analyze_roots_the_quartic_once(monkeypatch):
    # phi has positive critical points here, so the trapping remark reads the
    # equilibria too
    calls = []
    for name in ("ratiodyn.cli", "ratiodyn.classify"):
        module = sys.modules[name]

        def recording(*args, _real=module.equilibria, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "equilibria", recording)
    build_analysis_report(Parameters(0.1, 1.79, -3.0, 1.0))
    assert len(calls) == 1


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
