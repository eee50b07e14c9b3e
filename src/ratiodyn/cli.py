"""Batch front end: analysis reports, trajectory dumps, classification, sweeps.

Everything is deterministic: fixed field order, fixed float formatting, and
sweep rows are emitted in grid order whatever the number of workers.

``sweep --threads n`` computes its rows in up to ``n`` processes: the
interleaved shares ``grid[k::n]``, share 0 in this process and the others in
``os.fork()`` children that pickle their rows back over a pipe.  ``n`` is
capped by the number of rows and of usable CPUs.  The sweep runs serially
where ``os.fork`` is missing or other threads are running, since forking a
threaded process can deadlock the child.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .classify import classify, classify_cycle_limit, classify_equilibrium_limit, classify_remark
from .criteria import DegeneracyError, criterion_report
from .cycles import PairingError, find_two_cycles, unit_product_cycle
from .polynomial import RootIsolationError
from .ratio_map import Parameters, equilibria
from .simulate import iterate_solution
from .tolerances import DEFAULT_BUDGET, EPS_CRIT, EPS_SEARCHED, ROOT_TOL
from .verify import run_fixture_checks

SCHEMA_VERSION = 1

__all__ = ["main", "build_analysis_report"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt_for(style):
    if style == "fixed17":
        return lambda x: format(float(x), ".17g")
    return lambda x: repr(float(x))


def _parse_params(text, allow_placeholder=False):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--params needs four comma-separated values a,b,c,d")
    values = []
    placeholder_at = None
    for i, part in enumerate(parts):
        part = part.strip()
        if allow_placeholder and part.upper() == "C":
            placeholder_at = i
            values.append(None)
            continue
        values.append(float(part))
    return values, placeholder_at


def _json_dump(obj, fmt, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {_json_dump(v, fmt, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dump(v, fmt, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _verdict_dict(v):
    return {
        "class": v.asymptotic_class,
        "rule": v.rule,
        "monotonic_structure": v.monotonic_structure,
        "conditional": v.conditional,
        "notes": v.notes,
    }


def build_analysis_report(params: Parameters, tol: float = ROOT_TOL) -> dict:
    """Everything the analytic layer can say about one parameter set."""
    eqs = equilibria(params, tol)
    cycles = find_two_cycles(params, tol)
    crit = criterion_report(params, tol)
    verdicts = []
    for e in eqs:
        try:
            v = classify_equilibrium_limit(params, e)
        except ValueError as exc:
            verdicts.append({"attractor": "equilibrium", "value": e.value, "error": str(exc)})
            continue
        verdicts.append(
            {"attractor": "equilibrium", "value": e.value, **_verdict_dict(v)}
        )
    for cyc in cycles:
        v = classify_cycle_limit(params, cyc)
        verdicts.append(
            {"attractor": "two_cycle", "p": cyc.p, "q": cyc.q, **_verdict_dict(v)}
        )
    remark = classify_remark(params, tol)
    if remark is not None:
        verdicts.append({"attractor": "trapping_interval", **_verdict_dict(remark)})
    unit = unit_product_cycle(params, tol)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "parameters": {"a": params.a, "b": params.b, "c": params.c, "d": params.d},
        "tolerances": {"root_tol": tol, "eps_crit_analytic": EPS_CRIT, "eps_crit_searched": EPS_SEARCHED},
        "equilibria": [
            {"value": e.value, "multiplier": e.multiplier, "stability": e.stability}
            for e in eqs
        ],
        "two_cycles": [
            {
                "p": c.p,
                "q": c.q,
                "product": c.product,
                "multiplier": c.multiplier,
                "unit_product": c.unit_product,
            }
            for c in cycles
        ],
        "unit_product_cycle": None if unit is None else {"p": unit.p, "q": unit.q},
        "criteria": {
            "sigma": crit.sigma,
            "r_second_at_1": crit.r_second_at_1,
            "kappa": crit.kappa,
            "l_value": crit.l_value,
            "s_second_at_q": crit.s_second_at_q,
            "applicable": crit.applicable,
        },
        "verdicts": verdicts,
    }


def _report_text(report, fmt):
    lines = []
    p = report["parameters"]
    lines.append(
        "parameters: a=%s b=%s c=%s d=%s" % tuple(fmt(p[k]) for k in "abcd")
    )
    lines.append("equilibria:")
    for e in report["equilibria"]:
        lines.append(
            f"  t = {fmt(e['value'])}  multiplier = {fmt(e['multiplier'])}  ({e['stability']})"
        )
    lines.append("two-cycles:")
    for c in report["two_cycles"]:
        unit = "  [unit product]" if c["unit_product"] else ""
        lines.append(
            f"  (p, q) = ({fmt(c['p'])}, {fmt(c['q'])})  product = {fmt(c['product'])}"
            f"  multiplier = {fmt(c['multiplier'])}{unit}"
        )
    crit = report["criteria"]
    lines.append("criteria:")
    for key in ("sigma", "r_second_at_1", "kappa", "l_value", "s_second_at_q"):
        val = "n/a" if crit[key] is None else fmt(crit[key])
        flag = "" if crit["applicable"].get(key) else "  (hypotheses not met)"
        lines.append(f"  {key} = {val}{flag}")
    lines.append("verdicts:")
    for v in report["verdicts"]:
        if "error" in v:
            lines.append(f"  {v['attractor']}: error: {v['error']}")
            continue
        where = v["attractor"]
        if where == "equilibrium":
            where += f" {fmt(v['value'])}"
        elif where == "two_cycle":
            where += f" ({fmt(v['p'])}, {fmt(v['q'])})"
        cond = "  [conditional]" if v["conditional"] else ""
        struct = f"  structure = {v['monotonic_structure']}" if v["monotonic_structure"] else ""
        lines.append(f"  {where}: {v['class']} via {v['rule']}{struct}{cond}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args, out):
    params = Parameters(*_parse_params(args.params)[0])
    fmt = _fmt_for(args.float_format)
    report = build_analysis_report(params, args.tol)
    if args.format == "json":
        out.write(_json_dump(report, fmt) + "\n")
    else:
        out.write(_report_text(report, fmt))
    return 0


def _cmd_simulate(args, out):
    params = Parameters(*_parse_params(args.params)[0])
    fmt = _fmt_for(args.float_format)
    traj = iterate_solution(params, args.x_minus1, args.x0, args.steps)
    out.write("n,t_n,log10_abs_x_n,sign_x_n\r\n")
    for i, lm in enumerate(traj.log_magnitudes):
        n = i - 1
        t = "" if i == 0 else fmt(traj.ratios[i - 1])
        out.write(f"{n},{t},{fmt(lm)},{traj.signs[i]}\r\n")
    if traj.status != "completed":
        sys.stderr.write(f"trajectory stopped early: {traj.status}\n")
    return 0


def _cmd_classify(args, out):
    params = Parameters(*_parse_params(args.params)[0])
    fmt = _fmt_for(args.float_format)
    v = classify(params, args.x_minus1, args.x0, budget=args.steps, tol=args.tol)
    if args.format == "json":
        out.write(_json_dump(_verdict_dict(v), fmt) + "\n")
    else:
        out.write(f"class: {v.asymptotic_class}\n")
        out.write(f"rule: {v.rule}\n")
        if v.monotonic_structure:
            out.write(f"structure: {v.monotonic_structure}\n")
        out.write(f"conditional: {'true' if v.conditional else 'false'}\n")
        if v.notes:
            out.write(f"notes: {v.notes}\n")
    return 0


def _sweep_grid(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("--c-range must be lo:hi:count")
    lo, hi = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("--c-range count must be >= 1")
    if count == 1:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _share_rows(row, values):
    """The rows of ``values`` up to the first that raises, and its exception:
    ``(lines, error)``, where ``error`` is None if every row succeeded."""
    lines = []
    for value in values:
        try:
            lines.append(row(value))
        except Exception as exc:
            return lines, exc
    return lines, None


def _worker_count(threads, rows):
    """Processes for a sweep: at most one per row and per usable CPU, and
    only this one where fork is missing or other threads are running."""
    if threads == 1 or not hasattr(os, "fork"):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(threads, rows, cpus)


def _forked_shares(row, grid, n):
    """``_share_rows`` of each share ``grid[k::n]``: share 0 computed here,
    the others in forked children that pickle their result back over a pipe
    and leave through ``os._exit``, so they never flush the parent's buffers."""
    import pickle

    children = []
    try:
        for k in range(1, n):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with open(write_end, "wb") as pipe:
                        pickle.dump(_share_rows(row, grid[k::n]), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        shares = [_share_rows(row, grid[0::n])]
        for k, (pid, pipe) in enumerate(children, 1):
            try:
                shares.append(pickle.loads(pipe.read()))
            except (EOFError, pickle.UnpicklingError) as exc:
                raise RuntimeError(
                    f"sweep worker {pid} (rows {k}::{n}) ended without sending its rows"
                ) from exc
        return shares
    finally:
        # closing the pipe first makes a child that has not written yet fail
        # on its write and exit, so the wait cannot outlast its rows
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _cmd_sweep(args, out):
    values, placeholder = _parse_params(args.params, allow_placeholder=True)
    if placeholder is None:
        raise ValueError("sweep needs a 'C' placeholder in --params")
    if args.c_range is None:
        raise ValueError("sweep needs --c-range lo:hi:count")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    fmt = _fmt_for(args.float_format)
    grid = _sweep_grid(args.c_range)
    name = "abcd"[placeholder]

    def row(value):
        filled = list(values)
        filled[placeholder] = value
        params = Parameters(*filled)
        v = classify(params, 1.0, args.x0_ratio, budget=args.steps, tol=args.tol)
        return f"{fmt(value)},{v.asymptotic_class},{v.rule}\r\n"

    out.write(f"{name},class,rule\r\n")
    n = _worker_count(args.threads, len(grid))
    if n == 1:
        for value in grid:
            out.write(row(value))
        return 0
    shares = _forked_shares(row, grid, n)
    # grid order; the first row a share could not compute is the first
    # failed row of the grid, and raising there leaves the serial output
    for i in range(len(grid)):
        lines, error = shares[i % n]
        if i // n == len(lines):
            raise error
        out.write(lines[i // n])
    return 0


def _cmd_verify_paper(args, out):
    checks = run_fixture_checks()
    failed = 0
    for name, ok, detail in checks:
        if ok:
            out.write(f"PASS {name}\n")
        else:
            failed += 1
            out.write(f"FAIL {name}: {detail}\n")
    out.write(f"{len(checks) - failed}/{len(checks)} fixture checks passed\n")
    return 3 if failed else 0


def _build_parser():
    parser = _Parser(prog="ratiodyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = _Parser(add_help=False)
    common.add_argument("--params", required=True, help="a,b,c,d (use C as the sweep placeholder)")
    common.add_argument(
        "--float-format", choices=("shortest", "fixed17"), default="shortest"
    )
    tol = _Parser(add_help=False)
    tol.add_argument(
        "--tol", type=float, default=ROOT_TOL,
        help="root tolerance for analyze; tail tolerance for classify and sweep "
        "(default %(default)s)",
    )
    report = _Parser(add_help=False)
    report.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("analyze", parents=[common, tol, report])
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", parents=[common])
    p.add_argument("--x-1", dest="x_minus1", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", parents=[common, tol, report])
    p.add_argument("--x-1", dest="x_minus1", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", parents=[common, tol])
    p.add_argument("--c-range", default=None, help="lo:hi:count, inclusive endpoints")
    p.add_argument("--x0-ratio", dest="x0_ratio", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-paper")
    p.set_defaults(func=_cmd_verify_paper)
    return parser


_VALUE_FLAGS = {"--params", "--c-range", "--x-1", "--x0", "--x0-ratio", "--tol"}


def _merge_negative_values(argv):
    """Join flag/value pairs whose value starts with '-' (e.g. ranges like
    -3:-1:200), which argparse would otherwise read as another option."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"ratiodyn: {exc}\n")
        return 1
    except (RootIsolationError, PairingError, DegeneracyError, ArithmeticError) as exc:
        sys.stderr.write(f"ratiodyn: numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
