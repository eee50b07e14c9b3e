"""The tolerance table is the one place a shared threshold is set."""

import ast
import importlib
import inspect
from pathlib import Path

import ratiodyn
from ratiodyn.cli import _build_parser
from ratiodyn.tolerances import (
    DEFAULT_BUDGET,
    DEFAULT_ZERO_GUARD,
    ROOT_TOL,
    TAIL_TOL,
    TAIL_WINDOW,
)

PACKAGE = Path(ratiodyn.__file__).resolve().parent
# the table itself, and the checks against the article's printed precision
EXEMPT = {"tolerances.py", "verify.py"}

# every public function with a tol or budget parameter, and its default
EXPECTED_DEFAULTS = {
    ("polynomial", "real_roots_flagged", "tol"): ROOT_TOL,
    ("polynomial", "real_roots_in", "tol"): ROOT_TOL,
    ("ratio_map", "equilibria", "tol"): ROOT_TOL,
    ("ratio_map", "negative_escape_region", "tol"): ROOT_TOL,
    ("cycles", "find_two_cycles", "tol"): ROOT_TOL,
    ("cycles", "unit_product_cycle", "tol"): ROOT_TOL,
    ("criteria", "criterion_report", "tol"): ROOT_TOL,
    ("classify", "classify_remark", "tol"): ROOT_TOL,
    ("cli", "build_analysis_report", "tol"): ROOT_TOL,
    ("classify", "classify", "tol"): TAIL_TOL,
    ("classify", "classify", "budget"): DEFAULT_BUDGET,
    ("simulate", "detect_ratio_limit", "tol"): TAIL_TOL,
    ("simulate", "empirical_class", "tol"): TAIL_TOL,
    ("simulate", "empirical_class", "budget"): DEFAULT_BUDGET,
}


def _small_floats(path):
    """(line, value) of each float 0 < |v| < 0.01 in a function body or a
    parameter default; module-level constants are not looked at."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Constant)
                    and type(node.value) is float
                    and 0.0 < abs(node.value) < 0.01
                ):
                    found.add((node.lineno, node.value))
    return sorted(found)


def test_no_small_float_literal_outside_the_table():
    found = [
        f"{path.name}:{line}: {value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in EXEMPT
        for line, value in _small_floats(path)
    ]
    assert found == []


def test_the_table_imports_nothing():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text(encoding="utf-8"))
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"ratiodyn.{path.stem}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__:
                yield path.stem, name, inspect.signature(fn)


def test_tol_and_budget_defaults_are_table_entries():
    defaults = {}
    zero_guards = []
    for module, name, sig in _public_functions():
        for param in sig.parameters.values():
            if param.name in ("tol", "budget"):
                defaults[(module, name, param.name)] = param.default
            elif param.name == "zero_guard" and param.default is not param.empty:
                zero_guards.append(param.default)
    assert defaults.keys() == EXPECTED_DEFAULTS.keys()
    # the same object: a literal of the same value would not be
    for key, default in defaults.items():
        assert default is EXPECTED_DEFAULTS[key], key
    assert zero_guards and all(g is DEFAULT_ZERO_GUARD for g in zero_guards)


def test_cli_defaults_are_table_entries():
    parser = _build_parser()
    for command in ("analyze", "classify", "sweep"):
        args = parser.parse_args([command, "--params", "1,1,1,1"])
        assert args.tol is ROOT_TOL
        if command != "analyze":
            assert args.steps is DEFAULT_BUDGET


def test_first_tail_check_reads_a_whole_window():
    classify_module = importlib.import_module("ratiodyn.classify")
    assert classify_module.FIRST_CHECK >= TAIL_WINDOW
