import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ratiodyn.cycles import (
    PairingError,
    eq2_cycle_family,
    find_two_cycles,
    lemma1b_signs,
    two_cycle_poly,
    unit_product_cycle,
)
from ratiodyn.polynomial import _horner
from ratiodyn.ratio_map import Parameters, phi, phi_prime
from test_classify_golden import FORMER_PAIRING_ERRORS

NEUTRAL_EXAMPLE = Parameters(0.2, 1.7, -2.0, 1.1)
UNIT_CYCLE_EXAMPLE = Parameters(0.1, 1.79, -2.0, 1.0)
# the float root search finds a double root of the sextic near -0.0263 here,
# but the exact sextic of these float parameters has no real root at all
NO_REAL_ROOT = Parameters(
    1.0444134324050813, 1.4836243979888806, 2.9007033971215943, 0.07525762681245518
)


def second_order_step(p, x_prev, x_cur):
    a, b, c, d = p.a, p.b, p.c, p.d
    return (
        a * x_cur ** 3 + b * x_cur ** 2 * x_prev + c * x_cur * x_prev ** 2 + d * x_prev ** 3
    ) / x_cur ** 2


def test_cycle_poly_degree_and_roots():
    poly = two_cycle_poly(UNIT_CYCLE_EXAMPLE)
    assert len(poly) == 7
    for cyc in find_two_cycles(UNIT_CYCLE_EXAMPLE):
        scale = max(map(abs, poly))
        assert abs(_horner(poly, cyc.p)) <= 1e-6 * scale * max(1.0, cyc.p) ** 6
        assert abs(_horner(poly, cyc.q)) <= 1e-6 * scale * max(1.0, cyc.q) ** 6


def test_cycle_poly_times_the_quartic_is_the_period_two_polynomial():
    sp = pytest.importorskip("sympy")
    a, b, c, d, t = sp.symbols("a b c d t")
    n = a * t**3 + b * t**2 + c * t + d
    period_two = t * n**3 - a * n**3 - b * n**2 * t**3 - c * n * t**6 - d * t**9
    quartic = t**4 - a * t**3 - b * t**2 - c * t - d
    coeffs = two_cycle_poly(SimpleNamespace(a=a, b=b, c=c, d=d))
    sextic = sum(k * t**i for i, k in enumerate(coeffs))
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


def test_sextic_is_rooted_once_on_the_positive_half_line(monkeypatch):
    module = sys.modules["ratiodyn.cycles"]
    real = module.real_roots_flagged
    calls = []

    def recording(poly, lo, hi, *args):
        calls.append((lo, hi))
        return real(poly, lo, hi, *args)

    monkeypatch.setattr(module, "real_roots_flagged", recording)
    for params in (NEUTRAL_EXAMPLE, UNIT_CYCLE_EXAMPLE, NO_REAL_ROOT):
        calls.clear()
        find_two_cycles(params)
        assert calls == [(0.0, math.inf)]


def test_no_pairing_error_on_the_fuzz_box():
    # the draws of the classify golden file's box, under another seed
    rng = random.Random(12345)
    for _ in range(6000):
        a, b, d = (rng.uniform(0.05, 3.0) for _ in range(3))
        c = rng.uniform(-6.0, 3.0)
        rng.uniform(0.2, 5.0)  # x0
        try:
            find_two_cycles(Parameters(a, b, c, d))
        except PairingError as exc:
            pytest.fail(f"{(a, b, c, d)!r}: {exc}")


# the one 2-cycle is about (1e-120, 1e360): no float holds 1e360, and at
# 1e-120 the cube in phi underflows to 0
TINY_A = Parameters(1e-120, 1.0, 1.0, 1.0)


def test_a_cycle_that_no_float_holds_is_skipped():
    exact = {k: Fraction(getattr(TINY_A, k)) for k in "abcd"}
    coeffs = two_cycle_poly(SimpleNamespace(**exact))

    def sextic(t):
        return sum(k * t**i for i, k in enumerate(coeffs))

    # in exact arithmetic: two sign variations, so at most two positive
    # roots (Descartes), and a sign change around each of 1e-120 and 1e360
    signs = [k > 0 for k in coeffs if k]
    assert sum(s != t for s, t in zip(signs, signs[1:])) == 2
    for r in (Fraction(10) ** -120, Fraction(10) ** 360):
        assert sextic(r * Fraction(99, 100)) * sextic(r * Fraction(101, 100)) < 0
    assert find_two_cycles(TINY_A) == []


def test_a_newton_step_onto_the_pole_stops_the_polish():
    # a subnormal a: one polish step of a sextic root lands exactly on t = 0
    try:
        find_two_cycles(Parameters(5e-324, 0.3, -3.0, 1.0))
    except PairingError:
        pass  # the tiny-a pairing defect, not the pole


def exact_positive_cycles(params, digits=50):
    """The positive 2-cycles (p, q) of phi from the exact real roots of the
    sextic with the float parameters' exact rational values, paired via phi
    at ``digits`` significant digits."""
    sp = pytest.importorskip("sympy")
    a, b, c, d = (sp.Rational(v) for v in (params.a, params.b, params.c, params.d))
    t = sp.Symbol("t")
    coeffs = two_cycle_poly(SimpleNamespace(a=a, b=b, c=c, d=d))
    sextic = sp.Poly(sum(k * t**i for i, k in enumerate(coeffs)), t)
    roots = [r.evalf(digits) for r in sp.real_roots(sextic) if r > 0]
    tiny = sp.Float(10) ** (10 - digits)

    def image(r):
        return a + b / r + c / r**2 + d / r**3

    cycles = []
    for r in roots:
        u = image(r)
        if u <= 0 or abs(u - r) <= tiny * r:
            continue  # a cycle with a nonpositive point, or a fixed point
        assert min(abs(s - u) for s in roots) <= tiny * u
        if r < u:
            cycles.append((float(r), float(u)))
    return cycles


@pytest.mark.parametrize(
    "params, count",
    [(NO_REAL_ROOT, 0), *((Parameters(*p), 1) for p in FORMER_PAIRING_ERRORS)],
)
def test_cycles_match_the_exact_sextic_roots(params, count):
    want = exact_positive_cycles(params)
    got = find_two_cycles(params)
    assert len(got) == len(want) == count
    for cyc, (p, q) in zip(got, want):
        assert cyc.p == pytest.approx(p, rel=1e-12)
        assert cyc.q == pytest.approx(q, rel=1e-12)
