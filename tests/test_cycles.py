import math
import random

import pytest

from ratiodyn.cycles import (
    _two_cycle_coeffs,
    eq2_cycle_family,
    find_two_cycles,
    lemma1b_signs,
    two_cycle_poly,
    unit_product_cycle,
)
from ratiodyn.ratio_map import Parameters, phi, phi_prime

NEUTRAL_EXAMPLE = Parameters(0.2, 1.7, -2.0, 1.1)
UNIT_CYCLE_EXAMPLE = Parameters(0.1, 1.79, -2.0, 1.0)


def second_order_step(p, x_prev, x_cur):
    a, b, c, d = p.a, p.b, p.c, p.d
    return (
        a * x_cur ** 3 + b * x_cur ** 2 * x_prev + c * x_cur * x_prev ** 2 + d * x_prev ** 3
    ) / x_cur ** 2


def test_cycle_poly_degree_and_roots():
    poly = two_cycle_poly(UNIT_CYCLE_EXAMPLE)
    assert poly.degree == 6
    for cyc in find_two_cycles(UNIT_CYCLE_EXAMPLE):
        scale = max(map(abs, poly.coeffs))
        assert abs(poly(cyc.p)) <= 1e-6 * scale * max(1.0, cyc.p) ** 6
        assert abs(poly(cyc.q)) <= 1e-6 * scale * max(1.0, cyc.q) ** 6


def test_cycle_poly_times_the_quartic_is_the_period_two_polynomial():
    sp = pytest.importorskip("sympy")
    a, b, c, d, t = sp.symbols("a b c d t")
    n = a * t**3 + b * t**2 + c * t + d
    period_two = t * n**3 - a * n**3 - b * n**2 * t**3 - c * n * t**6 - d * t**9
    quartic = t**4 - a * t**3 - b * t**2 - c * t - d
    sextic = sum(k * t**i for i, k in enumerate(_two_cycle_coeffs(a, b, c, d)))
    assert sp.expand(quartic * sextic - period_two) == 0


def test_neutral_example_cycles():
    cycles = find_two_cycles(NEUTRAL_EXAMPLE)
    assert len(cycles) == 2
    assert cycles[0].p == pytest.approx(0.2262, rel=1e-3)
    assert cycles[0].q == pytest.approx(63.6517, rel=1e-3)
    assert cycles[1].p == pytest.approx(0.5110, rel=1e-3)
    assert cycles[1].q == pytest.approx(4.1111, rel=1e-3)
    # the fixed point re-enters the period-2 polynomial as a double root
    # on this boundary; it must not surface as a spurious cycle
    assert all(abs(c.p - 1.0) > 1e-3 and abs(c.q - 1.0) > 1e-3 for c in cycles)


def test_unit_cycle_example_cycles():
    cycles = find_two_cycles(UNIT_CYCLE_EXAMPLE)
    assert len(cycles) == 3
    expected = ((0.1024, 759.2585), (0.6021, 2.1370), (0.7298, 1.3702))
    for cyc, (p_ref, q_ref) in zip(cycles, expected):
        assert cyc.p == pytest.approx(p_ref, rel=1e-3)
        assert cyc.q == pytest.approx(q_ref, rel=1e-3)
    assert [c.unit_product for c in cycles] == [False, False, True]


def test_cycles_close_under_phi():
    for params in (NEUTRAL_EXAMPLE, UNIT_CYCLE_EXAMPLE):
        for cyc in find_two_cycles(params):
            assert phi(params, cyc.p) == pytest.approx(cyc.q, rel=1e-7)
            assert phi(params, cyc.q) == pytest.approx(cyc.p, rel=1e-7)
            assert cyc.multiplier == pytest.approx(
                phi_prime(params, cyc.p) * phi_prime(params, cyc.q), rel=1e-12
            )


def test_unit_product_cycle_closed_form():
    cyc = unit_product_cycle(UNIT_CYCLE_EXAMPLE)
    assert cyc is not None
    k = 2.1  # (a - c)/d = (d - b + 1)/a
    s = math.sqrt(k * k - 4.0)
    assert cyc.q == pytest.approx((k + s) / 2.0, rel=1e-14)
    assert cyc.p * cyc.q == pytest.approx(1.0, abs=1e-15)
    assert cyc.unit_product


def test_unit_product_cycle_boundary_absent():
    # (a - c)/d = 2 exactly: the quadratic has a double root at the fixed point
    assert unit_product_cycle(NEUTRAL_EXAMPLE) is None


def test_unit_product_cycle_requires_matching_ratios():
    # (a - c)/d != (d - b + 1)/a
    assert unit_product_cycle(Parameters(1.0, 1.0, -3.0, 1.0)) is None


def test_sign_lemma_on_example():
    params = UNIT_CYCLE_EXAMPLE
    cyc = unit_product_cycle(params)
    left, right = lemma1b_signs(params, cyc)
    assert left < 0.0 < right


def test_sign_lemma_rejects_generic_cycle():
    cycles = find_two_cycles(UNIT_CYCLE_EXAMPLE)
    with pytest.raises(ValueError):
        lemma1b_signs(UNIT_CYCLE_EXAMPLE, cycles[0])


def test_cycle_family_solves_second_order_equation():
    params = UNIT_CYCLE_EXAMPLE
    cyc = unit_product_cycle(params)
    rng = random.Random(7)
    for _ in range(10):
        x = rng.uniform(0.1, 10.0)
        x1, x2 = eq2_cycle_family(cyc, x)
        assert x1 == x
        assert second_order_step(params, x1, x2) == pytest.approx(x1, rel=1e-10)
        assert second_order_step(params, x2, x1) == pytest.approx(x2, rel=1e-10)


def test_cycle_family_needs_unit_product():
    cycles = find_two_cycles(UNIT_CYCLE_EXAMPLE)
    with pytest.raises(ValueError):
        eq2_cycle_family(cycles[0], 1.0)
