import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiodyn.polynomial import Polynomial, RootIsolationError, real_roots_flagged, real_roots_in

coeff = st.floats(-5.0, 5.0, allow_nan=False)


def from_roots(roots):
    p = Polynomial([1.0])
    for r in roots:
        p = p * Polynomial([-r, 1.0])
    return p


def test_horner_matches_naive():
    p = Polynomial([2.0, -1.0, 0.0, 3.0])
    for t in (-2.0, -0.5, 0.0, 1.0, 2.5):
        assert p(t) == pytest.approx(2.0 - t + 3.0 * t ** 3, rel=1e-14)


def test_derivative():
    p = Polynomial([5.0, 1.0, -4.0, 2.0])
    d = p.derivative()
    assert d.coeffs == (1.0, -8.0, 6.0)


def test_shift_and_mul():
    p = Polynomial([1.0, 2.0])
    assert p.shift(2).coeffs == (0.0, 0.0, 1.0, 2.0)
    q = p * p
    assert q.coeffs == (1.0, 4.0, 4.0)


@given(
    st.lists(coeff, min_size=1, max_size=5),
    st.lists(coeff, min_size=2, max_size=4),
)
@settings(max_examples=100)
def test_division_roundtrip(pc, dc):
    p, d = Polynomial(pc), Polynomial(dc)
    if d.degree < 1 or abs(d.coeffs[-1]) < 1e-6:
        return
    quot, rem = p.divide(d)
    back = quot * d + rem
    # the round trip rounds the products quot * d, which can dwarf p when the
    # divisor's leading coefficient is small (a quotient near 1e10 for
    # [1, 1e-5]); long division is backward-stable at that scale
    scale = max(1.0, p.max_abs_coeff(), quot.max_abs_coeff() * d.max_abs_coeff())
    for i in range(max(len(back.coeffs), len(p.coeffs))):
        bi = back.coeffs[i] if i < len(back.coeffs) else 0.0
        pi = p.coeffs[i] if i < len(p.coeffs) else 0.0
        assert abs(bi - pi) <= 1e-9 * scale


def test_known_roots_recovered():
    roots = [-2.0, -0.3, 0.7, 1.5, 4.0]
    found = real_roots_in(from_roots(roots), -math.inf, math.inf)
    assert len(found) == len(roots)
    for got, want in zip(found, sorted(roots)):
        # the bisection tolerance is relative to the root's magnitude
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


def test_interval_clipping():
    p = from_roots([-1.0, 2.0, 3.0])
    assert real_roots_in(p, 0.0, math.inf) == pytest.approx([2.0, 3.0], abs=1e-9)
    assert real_roots_in(p, 2.5, 2.9) == []


def test_double_root_flagged():
    p = from_roots([1.0, 1.0, -2.0])
    flagged = real_roots_flagged(p, -math.inf, math.inf)
    by_value = {round(r, 6): simple for r, simple in flagged}
    assert by_value[-2.0] is True
    assert by_value[1.0] is False


def test_cauchy_bound_contains_roots():
    p = from_roots([-7.0, 0.5, 11.0])
    bound = p.cauchy_bound()
    assert bound >= 11.0
    assert all(abs(r) <= bound for r in real_roots_in(p, -math.inf, math.inf))


def test_clustered_simple_roots_separated():
    # nearby but genuinely distinct roots must come back individually
    roots = [0.999, 1.001]
    found = real_roots_in(from_roots(roots), 0.0, 2.0)
    assert found == pytest.approx(roots, abs=1e-9)


@given(st.lists(coeff, min_size=2, max_size=6))
@settings(max_examples=100)
def test_found_roots_are_roots(coeffs):
    p = Polynomial(coeffs)
    if p.degree < 1 or abs(p.coeffs[-1]) < 1e-3:
        return
    try:
        found = real_roots_in(p, -math.inf, math.inf)
    except RootIsolationError:
        return
    scale = max(1.0, p.max_abs_coeff())
    for r in found:
        assert abs(p(r)) <= 1e-6 * scale * max(1.0, abs(r)) ** p.degree
