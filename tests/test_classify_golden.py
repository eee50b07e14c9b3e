"""Golden verdicts: every ``Verdict`` field and the oracle's class, frozen.

``tests/data/classify_golden.json`` holds the inputs and the answers the
orbit layer gave for them.  A change to the orbit layer that is meant to be
a pure speed-up must leave every entry identical, notes included.

Regenerate (only when a verdict is meant to change) with::

    PYTHONPATH=src python tests/test_classify_golden.py
"""

import dataclasses
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

# the package exports the function classify under the module's name
CLASSIFY_MODULE = importlib.import_module("ratiodyn.classify")

GOLDEN = Path(__file__).parent / "data" / "classify_golden.json"

BOX_SEED = 3
# two of its sets, on which the 2-cycle search raised a spurious PairingError
# while it also rooted the sextic on the negative half-line
FORMER_PAIRING_ERRORS = (
    [0.354243072452257, 1.7838883713924656, -4.708334757955876, 0.06445877177242552],
    [1.7618851357368903, 2.0427467170588227, -2.9867825658379012, 0.07030690302463838],
)
BOX_COUNT = 100
NEUTRAL_EXAMPLE = (0.2, 1.7, -2.0, 1.1)
# x0 = 1.001 lies in the gap near t = 1 where the proximity test does not
# fire within the budget; the flip probe certifies its orbit at step 64, so
# it answers T1.c3 like the other starts that approach 1
NEUTRAL_STARTS = (0.5, 0.85, 0.99, 1.001, 1.02, 1.5, 2.2, 3.0)
UNIT_CYCLE_EXAMPLE = (0.1, 1.79, -2.0, 1.0)
UNIT_CYCLE_STARTS = (1.0, 3.0)
# the package README's sweep: --params 0.1,1.79,C,1 --c-range -3:-1:200
# --x0-ratio 1.3, which classifies with the CLI's default tolerance
SWEEP_COUNT = 200
SWEEP_X0 = 1.3
SWEEP_TOL = 1e-9
# draws on the sigma = -1 surface (a + b + c + d = 1, b + 2c + 3d = -1),
# where the ratios near the parabolic equilibrium 1, or one just above it,
# only polynomially: the proximity pass names t = 1 (T1.c2) and, once, an
# equilibrium at 1.002-1.005 (T1.a)
SURFACE_SEED = 0
SURFACE_COUNT = 24


def _cases():
    rng = random.Random(BOX_SEED)
    for _ in range(BOX_COUNT):
        a, b, d = (rng.uniform(0.05, 3.0) for _ in range(3))
        c = rng.uniform(-6.0, 3.0)
        yield "box", (a, b, c, d), rng.uniform(0.2, 5.0), 1e-8
    for x0 in NEUTRAL_STARTS:
        yield "neutral", NEUTRAL_EXAMPLE, x0, 1e-8
    for x0 in UNIT_CYCLE_STARTS:
        yield "unit_cycle", UNIT_CYCLE_EXAMPLE, x0, 1e-8
    for i in range(SWEEP_COUNT):
        c = -3.0 + i * 2.0 / (SWEEP_COUNT - 1)
        yield "sweep", (0.1, 1.79, c, 1.0), SWEEP_X0, SWEEP_TOL
    rng, drawn = random.Random(SURFACE_SEED), 0
    while drawn < SURFACE_COUNT:
        a, d, x0 = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.2, 5.0)
        b, c = 3.0 - 2.0 * a + d, a - 2.0 - 2.0 * d
        if b > 0.0:
            drawn += 1
            yield "sigma_minus_one", (a, b, c, d), x0, 1e-8


def _answer(params, x0, tol):
    """classify's verdict (or the name of what it raised) and the oracle's class.

    The oracle's class is the one classify's own cross-check computed, so
    that the test walks each orbit's oracle once; a set on which classify
    raises before its cross-check asks the oracle directly."""
    p = Parameters(*params)
    oracle = []

    def recording(*args, **kwargs):
        oracle.append(empirical_class(*args, **kwargs))
        return oracle[-1]

    try:
        with mock.patch.object(CLASSIFY_MODULE, "empirical_class", recording):
            v = classify(p, 1.0, x0, tol=tol)
    except (PairingError, RootIsolationError, DegeneracyError) as exc:
        verdict, error = None, type(exc).__name__
    else:
        verdict, error = dataclasses.asdict(v), None
    if not oracle:
        oracle.append(empirical_class(p, 1.0, x0, tol=tol))
    assert len(oracle) == 1
    return {"verdict": verdict, "error": error, "oracle": oracle[0]}


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", ["box", "neutral", "unit_cycle", "sweep", "sigma_minus_one"])
def test_classify_matches_golden(group):
    entries = [e for e in _load() if e["group"] == group]
    assert entries
    for e in entries:
        got = _answer(e["params"], e["x0"], e["tol"])
        want = {k: e[k] for k in ("verdict", "error", "oracle")}
        assert got == want, (e["params"], e["x0"])


def test_golden_covers_every_case():
    cases = [(g, list(p), x0, tol) for g, p, x0, tol in _cases()]
    assert [(e["group"], e["params"], e["x0"], e["tol"]) for e in _load()] == cases
    answered = [e["params"] for e in _load() if e["error"] is None]
    assert all(p in answered for p in FORMER_PAIRING_ERRORS)
    surface = {e["verdict"]["rule"] for e in _load() if e["group"] == "sigma_minus_one"}
    assert {"T1.c2", "T1.a"} <= surface


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = [
        {"group": g, "params": list(p), "x0": x0, "tol": tol, **_answer(p, x0, tol)}
        for g, p, x0, tol in _cases()
    ]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )
