"""Golden sweep: the README sweep's CSV, frozen byte for byte.

``tests/data/sweep_readme_tol*.csv`` hold the output of::

    ratiodyn sweep --params 0.1,1.79,C,1 --c-range -3:-1:200 --x0-ratio 1.3

at the default ``--tol`` and at ``--tol 1e-9``.  A change meant to be a pure
speed-up must leave both files as they are, at any ``--threads``.

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
# file name -> the --tol arguments; the first takes the CLI's default
TOLS = {"sweep_readme_tol_default.csv": [], "sweep_readme_tol1e-9.csv": ["--tol", "1e-9"]}


def _csv(tol_args, threads):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*README_SWEEP, *tol_args, "--threads", threads])
    assert code == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(TOLS))
def test_readme_sweep_matches_golden(name, threads):
    assert _csv(TOLS[name], threads) == (DATA / name).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, tol_args in TOLS.items():
        (DATA / name).write_bytes(_csv(tol_args, "1"))
