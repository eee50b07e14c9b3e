import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiodyn.polynomial import _horner
from ratiodyn.ratio_map import (
    ATTRACTING,
    NEUTRAL,
    REPELLING,
    Parameters,
    critical_points,
    equilibria,
    fixed_point_poly,
    negative_escape_region,
    numerator_poly,
    phi,
    phi_double_prime,
    phi_prime,
    second_iterate,
)

NEUTRAL_EXAMPLE = Parameters(0.2, 1.7, -2.0, 1.1)
UNIT_CYCLE_EXAMPLE = Parameters(0.1, 1.79, -2.0, 1.0)

pos = st.floats(0.05, 3.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Parameters(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Parameters(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Parameters(1.0, 1.0, 0.0, -2.0)


def test_phi_explicit_value():
    p = Parameters(1.0, 2.0, 3.0, 4.0)
    assert phi(p, 2.0) == pytest.approx((8.0 + 8.0 + 6.0 + 4.0) / 8.0, rel=1e-15)
    with pytest.raises(ValueError):
        phi(p, 0.0)


@given(st.floats(0.1, 5.0))
@settings(max_examples=50)
def test_phi_prime_is_derivative(t):
    p = UNIT_CYCLE_EXAMPLE
    h = 1e-6 * t
    fd = (phi(p, t + h) - phi(p, t - h)) / (2.0 * h)
    assert phi_prime(p, t) == pytest.approx(fd, rel=1e-5, abs=1e-8)


@given(st.floats(0.1, 5.0))
@settings(max_examples=50)
def test_phi_double_prime_is_derivative(t):
    p = UNIT_CYCLE_EXAMPLE
    h = 1e-5 * t
    fd = (phi_prime(p, t + h) - phi_prime(p, t - h)) / (2.0 * h)
    assert phi_double_prime(p, t) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_fixed_point_poly_roots_are_equilibria():
    p = UNIT_CYCLE_EXAMPLE
    quartic = fixed_point_poly(p)
    for e in equilibria(p):
        assert abs(_horner(quartic, e.value)) <= 1e-7
        assert phi(p, e.value) == pytest.approx(e.value, rel=1e-8)


def test_unit_cycle_example_equilibrium():
    eqs = equilibria(UNIT_CYCLE_EXAMPLE)
    assert len(eqs) == 1
    assert eqs[0].value == pytest.approx(0.9423261163518059, abs=1e-8)
    assert eqs[0].multiplier == pytest.approx(-1.0401661361851768, abs=1e-6)
    assert eqs[0].stability == REPELLING


def test_neutral_example_equilibrium():
    eqs = equilibria(NEUTRAL_EXAMPLE)
    assert len(eqs) == 1
    assert eqs[0].value == pytest.approx(1.0, abs=1e-6)
    # phi'(1) = -(b + 2c + 3d) = -1
    assert eqs[0].multiplier == pytest.approx(-1.0, abs=1e-6)
    assert eqs[0].stability == NEUTRAL


def test_attracting_equilibrium_labelled():
    # a = 3 pushes the equilibrium far right where phi flattens out
    p = Parameters(3.0, 1.0, 0.0, 1.0)
    eqs = equilibria(p)
    assert any(e.stability == ATTRACTING and abs(e.multiplier) < 1.0 for e in eqs)


def test_critical_points_are_phi_prime_roots():
    p = NEUTRAL_EXAMPLE  # c = -2 < -sqrt(3bd) = -2.3685? no: need the other example
    cps = critical_points(Parameters(1.0, 1.0, -3.0, 1.0))
    assert cps is not None
    assert cps.x_m < cps.x_M
    assert cps.x_m == pytest.approx(3.0 - math.sqrt(6.0), rel=1e-12)
    for x in (cps.x_m, cps.x_M):
        assert abs(phi_prime(Parameters(1.0, 1.0, -3.0, 1.0), x)) <= 1e-9


def test_critical_points_absent_above_threshold():
    # c > -sqrt(3bd) leaves phi strictly decreasing on (0, inf)
    assert critical_points(NEUTRAL_EXAMPLE) is None
    assert critical_points(Parameters(1.0, 1.0, 1.0, 1.0)) is None


def test_second_iterate_composes():
    p = UNIT_CYCLE_EXAMPLE
    for t in (0.3, 0.9, 2.0):
        assert second_iterate(p, t) == pytest.approx(phi(p, phi(p, t)), rel=1e-13)


def test_negative_escape_region_boundaries():
    p = NEUTRAL_EXAMPLE
    region = negative_escape_region(p)
    assert region is not None
    r, r_prime = region
    assert r < r_prime < 0.0
    # r is the unique negative zero of phi; r' is its phi-preimage in (r, 0)
    assert abs(_horner(numerator_poly(p), r)) <= 1e-6
    assert phi(p, r_prime) == pytest.approx(r, rel=1e-6)


def test_negative_orbit_recovers_between_boundaries():
    p = NEUTRAL_EXAMPLE
    r, r_prime = negative_escape_region(p)
    # starting inside (r, r') the next two iterates walk back to positive land
    t = 0.5 * (r + r_prime)
    t1 = phi(p, t)
    assert t1 < 0.0 or phi(p, t1) > 0.0
