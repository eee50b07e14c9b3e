"""Golden roots: every equilibrium and 2-cycle the analytic layer finds, frozen.

``tests/data/roots_golden.json`` holds, for each parameter set, the positive
equilibria (value, multiplier, stability) and the positive 2-cycles (p, q,
product, multiplier, unit_product) that ``equilibria`` and
``find_two_cycles`` return, or the name of the exception one of them raised.
The sets are those of the classify golden file: its 100 box sets, Examples A
and B, the 200 rows of the README sweep and its 24 sigma = -1 draws.  A change to the root search
must keep every count, flag and exception, and every value to 1e-13
relative.  A multiplier may also move by 1e-13 absolute: next to a critical
point of phi it is near 0, and a root that moves by a few ulps moves it by
more than 1e-13 of itself (by far less than the 1e-9 band that decides
stability).

Regenerate (only when a root is meant to move further) with::

    PYTHONPATH=src python tests/test_roots_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from ratiodyn.cycles import PairingError, find_two_cycles
from ratiodyn.polynomial import RootIsolationError
from ratiodyn.ratio_map import Parameters, equilibria
from test_classify_golden import FORMER_PAIRING_ERRORS, _cases

GOLDEN = Path(__file__).parent / "data" / "roots_golden.json"

REL = 1e-13


def _sets():
    """(group, params) for each distinct parameter set of the classify golden file."""
    seen = set()
    for group, params, _x0, _tol in _cases():
        if (group, params) not in seen:
            seen.add((group, params))
            yield group, params


def _answer(params):
    p = Parameters(*params)
    try:
        eqs = [
            {"value": e.value, "multiplier": e.multiplier, "stability": e.stability}
            for e in equilibria(p)
        ]
    except RootIsolationError as exc:
        eqs = type(exc).__name__
    try:
        cycles = [
            {
                "p": c.p, "q": c.q, "product": c.product,
                "multiplier": c.multiplier, "unit_product": c.unit_product,
            }
            for c in find_two_cycles(p)
        ]
    except (PairingError, RootIsolationError) as exc:
        cycles = type(exc).__name__
    return {"equilibria": eqs, "cycles": cycles}


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _same(got, want):
    """Exception names, counts, stabilities and flags equal; floats to REL."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if g_row.keys() != w_row.keys():
            return False
        for key, w in w_row.items():
            g = g_row[key]
            if isinstance(w, float):
                floor = REL if key == "multiplier" else 0.0
                if not math.isclose(g, w, rel_tol=REL, abs_tol=floor):
                    return False
            elif g != w:
                return False
    return True


@pytest.mark.parametrize("group", ["box", "neutral", "unit_cycle", "sweep", "sigma_minus_one"])
def test_roots_match_golden(group):
    entries = [e for e in _load() if e["group"] == group]
    assert entries
    for e in entries:
        got = _answer(e["params"])
        for key in ("equilibria", "cycles"):
            assert _same(got[key], e[key]), (e["params"], key, got[key], e[key])


def test_roots_golden_covers_every_set():
    assert [(e["group"], e["params"]) for e in _load()] == [
        (g, list(p)) for g, p in _sets()
    ]
    answered = [e["params"] for e in _load() if isinstance(e["cycles"], list)]
    assert all(p in answered for p in FORMER_PAIRING_ERRORS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = [{"group": g, "params": list(p), **_answer(p)} for g, p in _sets()]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8"
    )
