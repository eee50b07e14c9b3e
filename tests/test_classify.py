import math
import sys

import pytest

from ratiodyn.classify import (
    EVEN_AND_ODD_INCREASING,
    EVEN_AND_ODD_MONOTONE,
    EVEN_ODD_OPPOSITE,
    FOUR_PHASE_ALTERNATING,
    FOUR_PHASE_DECREASING,
    FOUR_PHASE_INCREASING,
    LANDING_STEPS,
    WHOLE_MONOTONE,
    Verdict,
    classify,
    classify_cycle_limit,
    classify_equilibrium_limit,
    classify_remark,
    _landing_index,
)
from ratiodyn.cycles import find_two_cycles, unit_product_cycle
from ratiodyn.outcomes import (
    CONVERGES_TO_EQUILIBRIUM,
    CONVERGES_TO_TWO_CYCLE,
    CONVERGES_TO_ZERO,
    DIVERGES_TO_INFINITY,
    HYPOTHESIS_VIOLATED,
    ITERATION_STOPS,
    UNDETERMINED,
)
from ratiodyn.ratio_map import Equilibrium, Parameters, equilibria
from ratiodyn.simulate import DECREASING, INCREASING
from ratiodyn.tolerances import EPS_SEARCHED

NEUTRAL_EXAMPLE = Parameters(0.2, 1.7, -2.0, 1.1)
UNIT_CYCLE_EXAMPLE = Parameters(0.1, 1.79, -2.0, 1.0)


def the_equilibrium(params, near=None):
    eqs = equilibria(params)
    if near is not None:
        eqs = [e for e in eqs if abs(e.value - near) <= 1e-6]
    assert len(eqs) == 1
    return eqs[0]


def unit_params(k, a, d):
    return Parameters(a, d + 1.0 - a * k, a - d * k, d)


def test_equilibrium_above_one_diverges():
    params = Parameters(1.0, 1.0, 1.0, 1.0)
    v = classify_equilibrium_limit(params, the_equilibrium(params))
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.a")


def test_equilibrium_below_one_vanishes():
    v = classify_equilibrium_limit(UNIT_CYCLE_EXAMPLE, the_equilibrium(UNIT_CYCLE_EXAMPLE))
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_ZERO, "T1.b")


def test_neutral_positive_sigma_converges_with_split_structure():
    params = Parameters(0.5, 0.3, 0.1, 0.1)  # sum 1, sigma 0.8
    v = classify_equilibrium_limit(params, the_equilibrium(params))
    assert v.asymptotic_class == CONVERGES_TO_EQUILIBRIUM
    assert v.rule == "T1.c1"
    assert v.monotonic_structure == EVEN_ODD_OPPOSITE


def test_neutral_nonpositive_sigma_converges_monotonically():
    params = Parameters(1.0, 0.4, -0.5, 0.1)  # sum 1, sigma -0.3
    v = classify_equilibrium_limit(params, the_equilibrium(params))
    assert v.asymptotic_class == CONVERGES_TO_EQUILIBRIUM
    assert v.monotonic_structure == WHOLE_MONOTONE


def test_sigma_minus_one_needs_orbit_evidence():
    params = Parameters(1.5, 1.2, -2.9, 1.2)  # sum 1, sigma -1, c > -3d
    eq = the_equilibrium(params, near=1.0)
    assert classify_equilibrium_limit(params, eq).asymptotic_class == UNDETERMINED
    v = classify_equilibrium_limit(params, eq, orbit_evidence=DECREASING)
    assert v.asymptotic_class == CONVERGES_TO_EQUILIBRIUM
    assert v.rule == "T1.c2"
    v = classify_equilibrium_limit(params, eq, orbit_evidence=INCREASING)
    assert v.asymptotic_class == DIVERGES_TO_INFINITY


def test_sigma_minus_one_increasing_not_covered_below_threshold():
    params = Parameters(1.0, 1.5, -2.0, 0.5)  # sum 1, sigma -1, c <= -3d
    v = classify_equilibrium_limit(
        params, the_equilibrium(params, near=1.0), orbit_evidence=INCREASING
    )
    assert (v.asymptotic_class, v.rule) == (UNDETERMINED, "T1.c2")


def test_doubly_neutral_divergence():
    v = classify_equilibrium_limit(NEUTRAL_EXAMPLE, the_equilibrium(NEUTRAL_EXAMPLE))
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c3")
    assert v.monotonic_structure == EVEN_AND_ODD_INCREASING


def test_doubly_neutral_negative_curvature_not_covered():
    params = Parameters(1.4, 0.2, -2.6, 2.0)  # sum 1, sigma 1, R''(1) < 0
    v = classify_equilibrium_limit(params, the_equilibrium(params))
    assert (v.asymptotic_class, v.rule) == (UNDETERMINED, "T1.c3")


def test_neutral_with_expanding_multiplier_violates_hypotheses():
    params = Parameters(0.2, 0.2, 0.5, 0.1)  # sum 1, sigma 1.5
    v = classify_equilibrium_limit(params, the_equilibrium(params))
    assert v.asymptotic_class == HYPOTHESIS_VIOLATED


def test_rejects_non_equilibrium():
    with pytest.raises(ValueError):
        classify_equilibrium_limit(
            UNIT_CYCLE_EXAMPLE, Equilibrium(2.0, 0.0, "attracting")
        )


def test_cycle_product_above_one_diverges():
    cycles = find_two_cycles(UNIT_CYCLE_EXAMPLE)
    v = classify_cycle_limit(UNIT_CYCLE_EXAMPLE, cycles[0])
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T2.a")


def test_cycle_product_below_one_vanishes():
    params = Parameters(0.1, 1.79, -2.4285714285714288, 1.0)
    small = [c for c in find_two_cycles(params) if c.product < 1.0]
    assert small
    v = classify_cycle_limit(params, small[0])
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_ZERO, "T2.b")


def test_unit_cycle_contracting_positive_multiplier():
    cyc = unit_product_cycle(UNIT_CYCLE_EXAMPLE)
    v = classify_cycle_limit(UNIT_CYCLE_EXAMPLE, cyc)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_TWO_CYCLE, "T2.c1")
    assert v.monotonic_structure == EVEN_AND_ODD_MONOTONE


def test_unit_cycle_contracting_negative_multiplier():
    a = (-3.0 + math.sqrt(10.2)) / 2.0  # multiplier exactly -1/2
    params = unit_params(3.0, a, 1.0)
    cyc = unit_product_cycle(params)
    assert cyc.multiplier == pytest.approx(-0.5, abs=1e-9)
    v = classify_cycle_limit(params, cyc)
    assert v.asymptotic_class == CONVERGES_TO_TWO_CYCLE
    assert v.monotonic_structure == FOUR_PHASE_ALTERNATING


def test_unit_cycle_multiplier_one_branches():
    params = unit_params(3.0, (-1.5 + math.sqrt(3.25)) / 2.0, 0.5)
    cyc = unit_product_cycle(params)
    assert cyc.multiplier == pytest.approx(1.0, abs=1e-9)
    assert classify_cycle_limit(params, cyc).asymptotic_class == UNDETERMINED
    v = classify_cycle_limit(params, cyc, orbit_evidence=DECREASING)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_TWO_CYCLE, "T2.c2")
    # kappa > 0 here, so increasing evidence settles divergence
    v = classify_cycle_limit(params, cyc, orbit_evidence=INCREASING)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T2.c2")


def test_unit_cycle_multiplier_minus_one_branches():
    params = unit_params(3.0, (-3.0 + math.sqrt(10.6)) / 2.0, 1.0)
    cyc = unit_product_cycle(params)
    assert cyc.multiplier == pytest.approx(-1.0, abs=1e-9)
    # l > 0 with S''(q) < 0: the theorem is silent
    v = classify_cycle_limit(params, cyc)
    assert (v.asymptotic_class, v.rule) == (UNDETERMINED, "T2.c3")
    assert v.monotonic_structure == FOUR_PHASE_INCREASING

    params = unit_params(2.05, 1.4254917939590301, 2.0)
    cyc = unit_product_cycle(params)
    assert cyc.multiplier == pytest.approx(-1.0, abs=1e-9)
    v = classify_cycle_limit(params, cyc)  # l < 0
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_TWO_CYCLE, "T2.c3")
    assert v.monotonic_structure == FOUR_PHASE_DECREASING


def test_unit_cycle_expanding_multiplier_violates_hypotheses():
    params = unit_params(3.0, 0.01, 0.5)
    cyc = unit_product_cycle(params)
    assert abs(cyc.multiplier) > 1.0
    v = classify_cycle_limit(params, cyc)
    assert v.asymptotic_class == HYPOTHESIS_VIOLATED


def test_rejects_non_cycle():
    cyc = unit_product_cycle(UNIT_CYCLE_EXAMPLE)
    with pytest.raises(ValueError):
        classify_cycle_limit(NEUTRAL_EXAMPLE, cyc)


def test_remark_applies_conditionally():
    v = classify_remark(Parameters(1.0, 1.0, -4.0, 4.0))
    assert v is not None
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "R1")
    assert v.conditional


def test_remark_absent_cases():
    assert classify_remark(Parameters(0.1, 1.0, -4.0, 4.0)) is None
    assert classify_remark(Parameters(1.0, 1.0, 1.0, 1.0)) is None  # no critical points


def test_classify_neutral_example_orbit():
    v = classify(NEUTRAL_EXAMPLE, 1.0, 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c3")
    assert "oracle=" in v.notes


def test_classify_unit_cycle_example_orbits():
    v = classify(UNIT_CYCLE_EXAMPLE, 1.0, 1.0)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_TWO_CYCLE, "T2.c1")
    v = classify(UNIT_CYCLE_EXAMPLE, 1.0, 3.0)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T2.a")


def test_classify_exact_landing_on_equilibrium():
    # 0.25 is the second positive preimage of the equilibrium 1 here
    params = Parameters(1.0, 0.4, -0.5, 0.1)
    v = classify(params, 1.0, 0.25)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_EQUILIBRIUM, "T1.cS")
    v = classify(NEUTRAL_EXAMPLE, 1.0, 1.0)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_EQUILIBRIUM, "T1.cS")


def test_classify_exact_landing_on_cycle():
    q = unit_product_cycle(UNIT_CYCLE_EXAMPLE).q
    v = classify(UNIT_CYCLE_EXAMPLE, 1.0, q)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_TWO_CYCLE, "T2.cS")


def test_classify_zero_guard_stop():
    v = classify(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, zero_guard=10.0)
    assert v.asymptotic_class == ITERATION_STOPS
    # 1e-110 passes the default guard, but its cube underflows to 0
    v = classify(NEUTRAL_EXAMPLE, 1.0, 1e-110)
    assert (v.asymptotic_class, v.rule) == (ITERATION_STOPS, "oracle")


def test_classify_validates_inputs():
    with pytest.raises(ValueError):
        classify(UNIT_CYCLE_EXAMPLE, -1.0, 1.0)
    with pytest.raises(ValueError):
        classify(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, budget=0)
    for x_minus1, x0 in [(1.0, math.inf), (math.inf, 1.0), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            classify(UNIT_CYCLE_EXAMPLE, x_minus1, x0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Parameters(1.0, 1.0, bad, 1.0)


# every positive equilibrium and 2-cycle of this set is repelling
ALL_REPELLING = Parameters(
    1.490296897455983, 0.30922408211833946, -1.7352422737181445, 0.2518477684329377
)


def walked_steps(monkeypatch, params, x0):
    """classify's verdict from (1, x0) and the ratio steps its own walk took
    (the oracle's walk is not counted)."""
    module = sys.modules["ratiodyn.classify"]
    advance = module.advance_ratio
    steps = [0]

    def counting(params, t, n, zero_guard, out):
        before = len(out)
        result = advance(params, t, n, zero_guard, out)
        steps[0] += len(out) - before
        return result

    monkeypatch.setattr(module, "advance_ratio", counting)
    return classify(params, 1.0, x0), steps[0]


def test_walk_stops_after_one_chunk_when_every_limit_repels(monkeypatch):
    limits = equilibria(ALL_REPELLING) + find_two_cycles(ALL_REPELLING)
    assert limits and all(abs(o.multiplier) > 1.0 + EPS_SEARCHED for o in limits)
    v, steps = walked_steps(monkeypatch, ALL_REPELLING, 1.0)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "oracle")
    assert steps == 1024


def test_walk_keeps_its_budget_near_a_neutral_limit(monkeypatch):
    v, steps = walked_steps(monkeypatch, NEUTRAL_EXAMPLE, 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c3")
    assert steps == 100000


def test_walk_stops_at_a_ratio_that_is_not_finite(monkeypatch):
    # the first ratio overflows to inf and every later one is nan
    v, steps = walked_steps(monkeypatch, NEUTRAL_EXAMPLE, 1e-105)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "oracle")
    assert steps <= 64


def test_walk_stops_early_on_a_geometric_approach(monkeypatch):
    v, steps = walked_steps(monkeypatch, UNIT_CYCLE_EXAMPLE, 3.0)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T2.a")
    assert steps <= 128


def test_early_check_passes_over_a_stay_near_a_repelling_limit(monkeypatch):
    # a + b + c + d = 1 and sigma = 1.2, but the float phi(1) is 1 + 2.2e-16:
    # from t0 = 1 the ratios stay within 1e-8 of the repelling equilibrium at
    # 1 for about 100 steps, then leave it for an attracting 2-cycle
    params = Parameters(0.4, 0.8, -1.0, 0.8)
    v, steps = walked_steps(monkeypatch, params, 1.0)
    assert v == Verdict(DIVERGES_TO_INFINITY, "T2.a", notes="oracle=diverges_to_infinity")
    assert 64 < steps <= 1024


def test_landing_index_window():
    stay = [1.0] * 100
    assert _landing_index([2.0] * LANDING_STEPS + stay, (1.0,)) == LANDING_STEPS
    assert _landing_index([2.0] * (LANDING_STEPS + 1) + stay, (1.0,)) is None
    # landing on either point of a cycle counts
    assert _landing_index([3.0] + [0.5, 2.0] * 50, (0.5, 2.0)) == 1
    # 1e-11 away is not on the limit
    assert _landing_index([1.0 + 1e-11] * 100, (1.0,)) is None


def test_landing_index_rejects_an_orbit_that_leaves():
    assert _landing_index([2.0] * 5 + [1.0] * 20 + [1.5] + [1.0] * 10, (1.0,)) is None
    assert _landing_index([2.0] * 5 + [1.0] * 20 + [2.0], (1.0,)) is None


def monotonicity_calls(monkeypatch, params, x0):
    """classify's verdict from (1, x0) and the (stride, offset) of each
    subsequence_monotonicity call it made."""
    module = sys.modules["ratiodyn.classify"]
    real = module.subsequence_monotonicity
    calls = []

    def recording(traj, stride, offset, *args, **kwargs):
        calls.append((stride, offset))
        return real(traj, stride, offset, *args, **kwargs)

    monkeypatch.setattr(module, "subsequence_monotonicity", recording)
    return classify(params, 1.0, x0), calls


def test_monotonicity_evidence_only_where_a_verdict_reads_it(monkeypatch):
    # sigma = +1 (T1.c3): the verdict comes from R''(1), not from the orbit
    v, calls = monotonicity_calls(monkeypatch, NEUTRAL_EXAMPLE, 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c3")
    assert calls == []
    # sigma = -1 (T1.c2): the verdict branches on whether {x_n} increases
    v, calls = monotonicity_calls(monkeypatch, Parameters(1.5, 1.2, -2.9, 1.2), 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c2")
    assert calls == [(1, 0)]
