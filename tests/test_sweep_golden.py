"""Golden sweeps: sweep CSVs, frozen byte for byte.

``tests/data/sweep_readme_tol*.csv`` hold the output of the README sweep::

    ratiodyn sweep --params 0.1,1.79,C,1 --c-range -3:-1:200 --x0-ratio 1.3

at the default ``--tol`` and at ``--tol 1e-9``.  Its rows all settle on
2-cycles (T2.a, T2.b).  ``tests/data/sweep_equilibrium_tol_default.csv``
holds, at the default ``--tol``::

    ratiodyn sweep --params 1.2,0.5,C,0.3 --c-range -2:2:100 --x0-ratio 1.3

whose rows settle on equilibria off 1 (T1.a, T1.b) or end with the oracle.
A change meant to be a pure speed-up must leave every file as it is, at any
``--threads``.

Regenerate (only when a row is meant to change) with::

    PYTHONPATH=src python tests/test_sweep_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from ratiodyn.cli import main

DATA = Path(__file__).parent / "data"
README_SWEEP = [
    "sweep", "--params", "0.1,1.79,C,1", "--c-range", "-3:-1:200", "--x0-ratio", "1.3",
]
EQUILIBRIUM_SWEEP = [
    "sweep", "--params", "1.2,0.5,C,0.3", "--c-range", "-2:2:100", "--x0-ratio", "1.3",
]
# file name -> the --tol arguments; the first takes the CLI's default
TOLS = {"sweep_readme_tol_default.csv": [], "sweep_readme_tol1e-9.csv": ["--tol", "1e-9"]}
EQUILIBRIUM_FILE = "sweep_equilibrium_tol_default.csv"


def _csv(args, threads):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*args, "--threads", threads])
    assert code == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(TOLS))
def test_readme_sweep_matches_golden(name, threads):
    assert _csv([*README_SWEEP, *TOLS[name]], threads) == (DATA / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_equilibrium_sweep_matches_golden(threads):
    assert _csv(EQUILIBRIUM_SWEEP, threads) == (DATA / EQUILIBRIUM_FILE).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, tol_args in TOLS.items():
        (DATA / name).write_bytes(_csv([*README_SWEEP, *tol_args], "1"))
    (DATA / EQUILIBRIUM_FILE).write_bytes(_csv(EQUILIBRIUM_SWEEP, "1"))
