"""Golden oracle classes: ``empirical_class``'s answer on each input, frozen.

``tests/data/oracle_golden.json`` holds, for each input, the oracle's class
at three (budget, tol) settings: from the start alone, and, where ``classify``
walked the orbit before its cross-check, from the ratios it walked.  The
inputs are the first 300 seed-0 box inputs of the benchmark, the 486 inputs
of the tiny-``a`` grid, 100 draws of each sigma = +-1 surface, Example A
from five starts, Example B, 20 rows of the README sweep, and 20 sets on
which t = 1 attracts, so that x_n settles on an equilibrium.  A change to how the oracle reads its chunks is meant to
be a pure speed-up, and must leave every entry identical.

Regenerate (only when a class is meant to change) with::

    PYTHONPATH=src python tests/test_oracle_golden.py
"""

import importlib
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from ratiodyn.classify import classify
from ratiodyn.criteria import DegeneracyError
from ratiodyn.cycles import PairingError
from ratiodyn.polynomial import RootIsolationError
from ratiodyn.ratio_map import Parameters
from ratiodyn.simulate import empirical_class
from test_classify import box_inputs, surface_draws, tiny_a_grid

CLASSIFY_MODULE = importlib.import_module("ratiodyn.classify")

GOLDEN = Path(__file__).parent / "data" / "oracle_golden.json"

SETTINGS = ((100000, 1e-9), (5000, 1e-15), (20000, 0.0))
BOX_SEED, BOX_COUNT = 0, 300
SURFACE_SEED, SURFACE_COUNT = 0, 100
NEUTRAL_EXAMPLE = Parameters(0.2, 1.7, -2.0, 1.1)
NEUTRAL_STARTS = (0.5, 0.99, 1.001, 1.5, 3.0)
UNIT_CYCLE_EXAMPLE = Parameters(0.1, 1.79, -2.0, 1.0)
UNIT_CYCLE_STARTS = (1.0, 3.0)
# rows of the package README's sweep, --params 0.1,1.79,C,1 --x0-ratio 1.3
SWEEP_COUNT, SWEEP_X0 = 20, 1.3
ATTRACTING_SEED, ATTRACTING_COUNT = 0, 20


def attracting_draws(rng, n):
    """``n`` (params, x0) with a + b + c + d = 1, so that t = 1 is an
    equilibrium, and phi'(1) = -(b + 2 c + 3 d) in (-0.9, 0.9), x0 near 1."""
    out = []
    while len(out) < n:
        a, d = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
        slope, x0 = rng.uniform(-0.9, 0.9), rng.uniform(0.8, 1.25)
        c = a - 1.0 - 2.0 * d - slope
        b = 1.0 - a - c - d
        if b > 0.0:
            out.append((Parameters(a, b, c, d), x0))
    return out


def _cases():
    """(group, params, x0, whether classify's walked ratios are read too)."""
    for params, x0 in box_inputs(BOX_SEED, BOX_COUNT):
        yield "box", params, x0, True
    for params, x0 in tiny_a_grid():
        yield "tiny_a", params, x0, False
    rng = random.Random(SURFACE_SEED)
    for sigma, group in ((1, "sigma_plus_one"), (-1, "sigma_minus_one")):
        for params, x0 in surface_draws(rng, SURFACE_COUNT, sigma):
            yield group, params, x0, False
    for x0 in NEUTRAL_STARTS:
        yield "neutral", NEUTRAL_EXAMPLE, x0, True
    for x0 in UNIT_CYCLE_STARTS:
        yield "unit_cycle", UNIT_CYCLE_EXAMPLE, x0, True
    for i in range(SWEEP_COUNT):
        yield "sweep", Parameters(0.1, 1.79, -3.0 + i * 2.0 / (SWEEP_COUNT - 1), 1.0), SWEEP_X0, True
    for params, x0 in attracting_draws(random.Random(ATTRACTING_SEED), ATTRACTING_COUNT):
        yield "attracting", params, x0, True


def _walked(params, x0):
    """The ratios classify walked from (1, x0) before its cross-check, or
    None where it raised or answered without the oracle."""
    seen = []

    def recording(*args, values=None, **kwargs):
        seen.append(values)
        return empirical_class(*args, values=values, **kwargs)

    try:
        with mock.patch.object(CLASSIFY_MODULE, "empirical_class", recording):
            classify(params, 1.0, x0)
    except (PairingError, RootIsolationError, DegeneracyError):
        pass
    return seen[0] if seen else None


def _classes(params, x0, values=None):
    """The oracle's class at each of SETTINGS, or the name of what it raised."""
    out = []
    for budget, tol in SETTINGS:
        try:
            out.append(empirical_class(params, 1.0, x0, budget, tol, values=values))
        except (ArithmeticError, ValueError) as exc:
            out.append(type(exc).__name__)
    return out


def _answer(params, x0, walks):
    values = _walked(params, x0) if walks else None
    return {
        "alone": _classes(params, x0),
        "walked": None if values is None else _classes(params, x0, values),
    }


def _key(group, params, x0):
    return [group, [params.a, params.b, params.c, params.d], x0]


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "group",
    [
        "box", "tiny_a", "sigma_plus_one", "sigma_minus_one", "neutral", "unit_cycle", "sweep",
        "attracting",
    ],
)
def test_oracle_matches_golden(group):
    entries = [e for e in _load() if e["key"][0] == group]
    cases = [case for case in _cases() if case[0] == group]
    assert cases and len(entries) == len(cases)
    for e, (g, params, x0, walks) in zip(entries, cases):
        assert e["key"] == _key(g, params, x0)
        assert _answer(params, x0, walks) == {"alone": e["alone"], "walked": e["walked"]}, e["key"]


def test_golden_covers_every_case():
    assert [e["key"] for e in _load()] == [_key(g, p, x0) for g, p, x0, _ in _cases()]
    # the walked ratios are read on most box inputs and every start of Example A
    walked = [e for e in _load() if e["walked"] is not None]
    assert len(walked) > BOX_COUNT // 2
    assert {e["key"][2] for e in walked if e["key"][0] == "neutral"} == set(NEUTRAL_STARTS)
    # and the tail checks settle on each kind of limit
    classes = {c for e in _load() for c in e["alone"] + (e["walked"] or [])}
    assert {"converges_to_equilibrium", "converges_to_two_cycle"} <= classes


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = [
        {"key": _key(g, p, x0), **_answer(p, x0, walks)} for g, p, x0, walks in _cases()
    ]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )
