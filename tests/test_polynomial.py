import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiodyn.polynomial import RootIsolationError, _horner, real_roots_flagged

coeff = st.floats(-5.0, 5.0, allow_nan=False)


def from_roots(roots):
    """The ascending coefficients of the monic polynomial with the given roots."""
    coeffs = [1.0]
    for r in roots:
        # multiply by (t - r)
        coeffs = [x - r * y for x, y in zip([0.0] + coeffs, coeffs + [0.0])]
    return coeffs


def roots_in(coeffs, lo, hi):
    return [r for r, _ in real_roots_flagged(coeffs, lo, hi)]


def test_horner_matches_naive():
    coeffs = (2.0, -1.0, 0.0, 3.0)
    for t in (-2.0, -0.5, 0.0, 1.0, 2.5):
        assert _horner(coeffs, t) == pytest.approx(2.0 - t + 3.0 * t ** 3, rel=1e-14)


def test_known_roots_recovered():
    roots = [-2.0, -0.3, 0.7, 1.5, 4.0]
    found = roots_in(from_roots(roots), -math.inf, math.inf)
    assert len(found) == len(roots)
    for got, want in zip(found, sorted(roots)):
        # the bisection tolerance is relative to the root's magnitude
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


def test_interval_clipping():
    p = from_roots([-1.0, 2.0, 3.0])
    assert roots_in(p, 0.0, math.inf) == pytest.approx([2.0, 3.0], abs=1e-9)
    assert roots_in(p, 2.5, 2.9) == []


def test_double_root_flagged():
    p = from_roots([1.0, 1.0, -2.0])
    flagged = real_roots_flagged(p, -math.inf, math.inf)
    by_value = {round(r, 6): simple for r, simple in flagged}
    assert by_value[-2.0] is True
    assert by_value[1.0] is False


def test_cauchy_bound_contains_roots():
    # both infinite ends become the Cauchy bound, which must keep -7 and 11
    found = roots_in(from_roots([-7.0, 0.5, 11.0]), -math.inf, math.inf)
    assert found == pytest.approx([-7.0, 0.5, 11.0], rel=1e-9)


def test_clustered_simple_roots_separated():
    # nearby but genuinely distinct roots must come back individually
    roots = [0.999, 1.001]
    found = roots_in(from_roots(roots), 0.0, 2.0)
    assert found == pytest.approx(roots, abs=1e-9)


@given(st.lists(coeff, min_size=2, max_size=6))
@settings(max_examples=100)
def test_found_roots_are_roots(coeffs):
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) < 2 or abs(coeffs[-1]) < 1e-3:
        return
    try:
        found = roots_in(coeffs, -math.inf, math.inf)
    except RootIsolationError:
        return
    scale = max(1.0, *map(abs, coeffs))
    for r in found:
        assert abs(_horner(coeffs, r)) <= 1e-6 * scale * max(1.0, abs(r)) ** (len(coeffs) - 1)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_root_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol"):
        real_roots_flagged(from_roots([1.0, 2.0]), 0.0, math.inf, tol)
