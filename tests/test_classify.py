import json
import math
import random
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from ratiodyn.classify import (
    EVEN_AND_ODD_INCREASING,
    EVEN_AND_ODD_MONOTONE,
    EVEN_ODD_OPPOSITE,
    FOUR_PHASE_ALTERNATING,
    FOUR_PHASE_DECREASING,
    FOUR_PHASE_INCREASING,
    LANDING_STEPS,
    WHOLE_INCREASING,
    WHOLE_MONOTONE,
    Verdict,
    classify,
    classify_cycle_limit,
    classify_equilibrium_limit,
    classify_remark,
    _Limits,
    _certify,
    _enclose,
    _flip_taylor,
    _flips_to_one,
    _identify,
    _in_basin,
    _landing_index,
    _phi_padded,
    _proximity_identify,
    _repels_everywhere,
    _slope_bound,
    _turns_negative,
)
from ratiodyn.criteria import DegeneracyError
from ratiodyn.cycles import PairingError, TwoCycle, find_two_cycles, unit_product_cycle
from ratiodyn.outcomes import (
    ALL_CLASSES,
    CONVERGES_TO_EQUILIBRIUM,
    CONVERGES_TO_TWO_CYCLE,
    CONVERGES_TO_ZERO,
    DIVERGES_TO_INFINITY,
    HYPOTHESIS_VIOLATED,
    ITERATION_STOPS,
    UNDETERMINED,
)
from ratiodyn.polynomial import RootIsolationError, real_roots_flagged
from ratiodyn.ratio_map import (
    Equilibrium, Parameters, critical_points, equilibria, fixed_point_poly, phi,
    phi_prime,
)
from ratiodyn.simulate import (
    COMPLETED, DECREASING, INCREASING, LimitReport, RatioTrajectory, advance_ratio,
    detect_ratio_limit, empirical_class, iterate_ratio,
)
from ratiodyn.tolerances import DEFAULT_BUDGET, EPS_SEARCHED, ROOT_TOL, TAIL_TOL, TAIL_WINDOW

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
    # phi(1) = a + b + c + d = 0: the walk stops at the zero ratio, and the
    # next step would divide by x_1 = 0
    v = classify(Parameters(1.0, 1.0, -3.0, 1.0), 1.0, 1.0)
    assert v == Verdict(ITERATION_STOPS, "oracle", notes="ratio reached the zero guard")
    # 1e-110 is not 0, but its cube underflows to 0
    v = classify(NEUTRAL_EXAMPLE, 1.0, 1e-110)
    assert v == Verdict(ITERATION_STOPS, "oracle", notes="ratio reached the zero guard")


def test_classify_validates_inputs():
    with pytest.raises(ValueError):
        classify(UNIT_CYCLE_EXAMPLE, -1.0, 1.0)
    with pytest.raises(ValueError):
        classify(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, budget=0)
    # a float budget once failed in the oracle's range(), after the walk
    for budget in (1e5, 2000.0, "2000"):
        with pytest.raises(TypeError, match="budget"):
            classify(NEUTRAL_EXAMPLE, 1.0, 1.5, budget)
    # not finite, or a t_0 = x0 / x_minus1 that overflows or underflows
    for x_minus1, x0 in [
        (1.0, math.inf), (math.inf, 1.0), (1.0, math.nan), (1e-300, 1e300), (1e300, 1e-300),
    ]:
        with pytest.raises(ValueError, match="finite"):
            classify(UNIT_CYCLE_EXAMPLE, x_minus1, x0)
    with pytest.raises(ValueError, match="nonzero"):
        classify(UNIT_CYCLE_EXAMPLE, 0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Parameters(1.0, 1.0, bad, 1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-8])
def test_classify_rejects_a_tail_tolerance_that_cannot_settle(tol):
    # the tail detector never settles at such a tol: every orbit would end via oracle
    with pytest.raises(ValueError, match="tol"):
        classify(UNIT_CYCLE_EXAMPLE, 1.0, 3.0, tol=tol)


def test_classify_accepts_a_zero_tail_tolerance():
    v = classify(UNIT_CYCLE_EXAMPLE, 1.0, 3.0, budget=2000, tol=0.0)
    assert v.asymptotic_class in ALL_CLASSES


# every positive equilibrium and 2-cycle of this set is repelling
ALL_REPELLING = Parameters(
    1.490296897455983, 0.30922408211833946, -1.7352422737181445, 0.2518477684329377
)


def walker():
    """Whose walk the running ratio step serves, read off the call stack:
    "classify" or its oracle, "empirical_class"; both walk with
    ``simulate.walk_on``."""
    frame = sys._getframe(1)
    while frame.f_code.co_name not in ("classify", "empirical_class"):
        frame = frame.f_back
    return frame.f_code.co_name


def walked_steps(monkeypatch, params, x0):
    """classify's verdict from (1, x0) and the ratio steps its own walk took
    (the oracle's walk is not counted)."""
    steps = count_steps(monkeypatch, "classify")
    return classify(params, 1.0, x0), steps[0]


def test_walk_stops_after_one_chunk_when_every_limit_repels(monkeypatch):
    limits = equilibria(ALL_REPELLING) + find_two_cycles(ALL_REPELLING)
    assert limits and all(abs(o.multiplier) > 1.0 + EPS_SEARCHED for o in limits)
    v, steps = walked_steps(monkeypatch, ALL_REPELLING, 1.0)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "oracle")
    assert steps == 1024


# a + b + c + d = 1 and sigma = -1: the equilibrium at 1 is parabolic
PARABOLIC_EXAMPLE = Parameters(1.5, 1.2, -2.9, 1.2)


def test_walk_keeps_its_budget_near_a_neutral_limit(monkeypatch):
    # no certificate names the parabolic equilibrium, so the walk goes on
    # to the proximity pass
    v, steps = walked_steps(monkeypatch, PARABOLIC_EXAMPLE, 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c2")
    assert steps == 100000


def test_walk_stops_at_a_ratio_that_is_not_finite(monkeypatch):
    # the first ratio overflows to inf and every later one is nan
    v, steps = walked_steps(monkeypatch, NEUTRAL_EXAMPLE, 1e-105)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "oracle")
    assert steps <= 64


def test_a_ratio_that_is_not_a_number_leaves_the_oracle_undetermined():
    # the first step overflows both the numerator and t^3, so the ratio is
    # inf / inf = nan: log10 |x_1| is nan, which tells no trend (it once
    # read as vanishing)
    undetermined = Verdict(UNDETERMINED, "oracle", notes="no ratio limit identified within budget")
    ones = Parameters(1.0, 1.0, 1.0, 1.0)
    for params, x0 in [(NEUTRAL_EXAMPLE, 1e200), (ones, 1e104), (ones, 1e200)]:
        assert classify(params, 1.0, x0) == undetermined, (params, x0)
    # from a start that does not overflow, the same set diverges
    v = classify(ones, 1.0, 2.0)
    assert v == Verdict(DIVERGES_TO_INFINITY, "T1.a", notes="oracle=diverges_to_infinity")


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


def oracle_answer(v):
    """The oracle's class as classify reports it: the verdict itself when no
    limit was identified, else its ``oracle=`` note."""
    if v.rule == "oracle":
        return v.asymptotic_class
    (note,) = [n for n in v.notes.split("; ") if n.startswith("oracle=")]
    return note[len("oracle="):]


def test_classify_oracle_equals_a_standalone_oracle():
    cases = [
        # x_{-1} != 1
        (UNIT_CYCLE_EXAMPLE, 2.0, 3.0, {}),
        # the oracle walks on past classify's 500 ratios to its least budget
        (NEUTRAL_EXAMPLE, 1.0, 1.5, {"budget": 500}),
        # a 1024-step walk
        (ALL_REPELLING, 1.0, 1.0, {}),
        # the walk breaks at a ratio that is not finite
        (NEUTRAL_EXAMPLE, 1.0, 1e-105, {}),
        # an early detection after 128 steps, inside an oracle chunk
        (UNIT_CYCLE_EXAMPLE, 1.0, 3.0, {"tol": 1e-9}),
        # Example A walks its whole budget
        (NEUTRAL_EXAMPLE, 1.0, 1.5, {}),
    ]
    for params, x_minus1, x0, kwargs in cases:
        v = classify(params, x_minus1, x0, **kwargs)
        alone = empirical_class(
            params, x_minus1, x0, max(kwargs.get("budget", 100000), 1000),
            kwargs.get("tol", TAIL_TOL),
        )
        assert oracle_answer(v) == alone, (params, x_minus1, x0, kwargs)


def count_steps(monkeypatch, walk=None):
    """A counter of the ratio-map steps classify and its oracle take, or of
    those of one ``walk`` (as ``walker`` names it) only."""
    steps = [0]
    module = sys.modules["ratiodyn.simulate"]
    advance = module.advance_ratio

    def counting(params, t, n, out):
        before = len(out)
        result = advance(params, t, n, out)
        if walk is None or walker() == walk:
            steps[0] += len(out) - before
        return result

    monkeypatch.setattr(module, "advance_ratio", counting)
    return steps


def test_classify_walks_each_ratio_once(monkeypatch):
    steps = count_steps(monkeypatch)
    v = classify(NEUTRAL_EXAMPLE, 1.0, 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c3")
    # the oracle reads the 65 ratios classify walked, to the flip probe's
    # stop, and walks the rest of its budget itself
    assert steps[0] == 100000


# (period, params, x0): from (1, x0) the floats of classify's walk close on
# a cycle of this period, from the benchmark box
CLOSING_ORBITS = [
    (1, Parameters(1.140047709275013, 2.600310279933157, -4.575371107450064, 2.0311955534558366),
     3.2599822987125147),
    (2, Parameters(0.41014512755862925, 0.23065401771105626, -3.3908311552802246,
                   0.2029297562036888), 2.2358913830082883),
    (3, Parameters(1.4360606983795041, 0.9076894449702165, -5.01743244716074, 1.0007601138222146),
     0.8834368432852842),
    (52, Parameters(1.0391039260950152, 1.4580025639722296, -2.342664582102998, 0.551781655299783),
     4.568629937311743),
]
# a README sweep row next to p * q = 1: classify's walk settles after 512
# steps, and the ratios close only inside the oracle's walk on from there
SWEEP_ROW = Parameters(0.1, 1.79, -2.0050251256281406, 1.0)


def first_periods(monkeypatch, params, x0, tol):
    """The first period that classify's walk and that its oracle find."""
    found = {}
    module = sys.modules["ratiodyn.simulate"]
    closed = module.closed_period

    def spy(ratios):
        k = closed(ratios)
        if k:
            found.setdefault(walker(), k)
        return k

    monkeypatch.setattr(module, "closed_period", spy)
    classify(params, 1.0, x0, tol=tol)
    return found


def test_orbits_close_where_the_replay_tests_need(monkeypatch):
    for period, params, x0 in CLOSING_ORBITS[1:]:
        assert first_periods(monkeypatch, params, x0, TAIL_TOL).get("classify") == period
    # the period-1 orbit settles on an equilibrium above 1 and stops at step
    # 64, where its ratio sits in the equilibrium's certified window
    # (_in_basin): the oracle's walk on from there closes.  At tol = 0 the
    # probe declines, and classify's own walk closes.
    (period, params, x0), = CLOSING_ORBITS[:1]
    assert first_periods(monkeypatch, params, x0, TAIL_TOL) == {"empirical_class": period}
    assert first_periods(monkeypatch, params, x0, 0.0).get("classify") == period
    assert first_periods(monkeypatch, SWEEP_ROW, 1.3, ROOT_TOL) == {"empirical_class": 2}


# seed-0 box sets (inputs 966 and 823) whose orbits close on a float cycle
# of period 16 and 12 that never settles, with a non-repelling limit: the
# walk stops at the first check after closure
CLOSED_WALKS = [
    (Parameters(0.15007949100110524, 2.316318775601144, -3.619437991286077, 1.5931125305073466),
     2.7216527001861324),
    (Parameters(0.08571340087990507, 2.1409924880822073, -2.4810147676224688, 0.8463792722325765),
     2.662027708067217),
]


def test_replay_gives_the_answers_of_the_plain_walk(monkeypatch):
    """A walk that replays a closed cycle, and may stop at closure, gives
    the verdicts and oracle answers of one that applies the map to its
    budget, and walks no further than it."""
    cases = [(params, x0, TAIL_TOL) for _, params, x0 in CLOSING_ORBITS]
    # where the probe declines, classify's own walk replays the period-1 orbit
    cases += [(params, x0, 0.0) for _, params, x0 in CLOSING_ORBITS[:1]]
    cases += [(SWEEP_ROW, 1.3, ROOT_TOL), (UNIT_CYCLE_EXAMPLE, 3.0, ROOT_TOL)]
    cases += [(params, x0, TAIL_TOL) for params, x0 in CLOSED_WALKS]
    module = sys.modules["ratiodyn.classify"]
    oracle, walked = module._oracle, []

    def recording(params, x_minus1, x0, budget, tol, values):
        walked.append(len(values))
        return oracle(params, x_minus1, x0, budget, tol, values)

    monkeypatch.setattr(module, "_oracle", recording)

    def answers():
        """Each verdict, the standalone oracle's answer, and how many ratios
        classify's walk held when it asked its oracle."""
        out = []
        for params, x0, tol in cases:
            walked.clear()
            v = classify(params, 1.0, x0, tol=tol)
            (steps,) = walked
            out.append((repr(v), empirical_class(params, 1.0, x0, tol=tol), steps))
        return out

    replayed = answers()
    monkeypatch.setattr(sys.modules["ratiodyn.simulate"], "closed_period", lambda ratios: None)
    plain = answers()
    assert [r[:2] for r in replayed] == [p[:2] for p in plain]
    assert all(r[2] <= p[2] for r, p in zip(replayed, plain))
    # the two walks that never settle stop at closure, short of the budget
    for r, p in zip(replayed[-2:], plain[-2:]):
        assert p[2] == 100001 and r[2] < p[2]


def test_a_closed_orbit_is_replayed_not_walked(monkeypatch):
    steps = count_steps(monkeypatch)
    v = classify(SWEEP_ROW, 1.0, 1.3, tol=ROOT_TOL)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_ZERO, "T2.b")
    # 512 steps of classify's walk, then one oracle chunk before it closes;
    # a plain walk takes 24576 steps to cross 12 decades
    assert steps[0] <= 1000


def test_identify_names_no_limit_at_an_unknown_equilibrium():
    limits = _Limits(NEUTRAL_EXAMPLE)
    ((neg, _),) = real_roots_flagged(fixed_point_poly(NEUTRAL_EXAMPLE), -math.inf, 0.0)
    assert phi(NEUTRAL_EXAMPLE, neg) == pytest.approx(neg, rel=1e-12)
    # a negative equilibrium repels, so a positive start never settles there
    assert abs(phi_prime(NEUTRAL_EXAMPLE, neg)) > 1.0
    assert _identify(LimitReport("equilibrium", (neg,), 0.0), limits) == (None, None)
    (one,) = [e for e in equilibria(NEUTRAL_EXAMPLE) if abs(e.value - 1.0) <= 1e-6]
    assert _identify(LimitReport("equilibrium", (1.0,), 0.0), limits) == (one, None)


def test_identify_names_no_limit_at_a_value_that_is_not_finite():
    # inf - inf <= MATCH_TOL inf would match every limit
    limits = _Limits(NEUTRAL_EXAMPLE)
    for value in (math.inf, -math.inf, math.nan):
        assert _identify(LimitReport("equilibrium", (value,), 0.0), limits) == (None, None)
    unit = unit_product_cycle(UNIT_CYCLE_EXAMPLE)
    limits = _Limits(UNIT_CYCLE_EXAMPLE)
    for values in ((unit.p, math.inf), (math.nan, unit.q), (math.inf, math.inf)):
        assert _identify(LimitReport("two_cycle", values, 0.0), limits) == (None, None)
    assert _identify(LimitReport("two_cycle", (unit.p, unit.q), 0.0), limits)[1] is not None


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
    v, calls = monotonicity_calls(monkeypatch, PARABOLIC_EXAMPLE, 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c2")
    assert calls == [(1, 0)]


def rooting_calls(monkeypatch, params, x0):
    """classify's verdict from (1, x0) and how often it rooted the
    fixed-point quartic (``equilibria``) and the 2-cycle sextic
    (``find_two_cycles``)."""
    module = sys.modules["ratiodyn.classify"]
    calls = dict.fromkeys(("equilibria", "find_two_cycles"), 0)
    for name in calls:
        def recording(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return classify(params, 1.0, x0), calls


def test_each_polynomial_is_rooted_only_where_the_walk_reads_it(monkeypatch):
    # the tail settles on an equilibrium above 1, which the contraction
    # certificate names: no search at all
    v, calls = rooting_calls(monkeypatch, Parameters(1.0, 1.0, 1.0, 1.0), 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.a")
    assert calls == {"equilibria": 0, "find_two_cycles": 0}
    # the tail settles on a 2-cycle with p*q > 1, which the certificate names
    v, calls = rooting_calls(monkeypatch, UNIT_CYCLE_EXAMPLE, 3.0)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T2.a")
    assert calls == {"equilibria": 0, "find_two_cycles": 0}
    # the tail settles on the unit-product cycle, where the certificate
    # declines: the tail is matched against the sextic's roots
    v, calls = rooting_calls(monkeypatch, UNIT_CYCLE_EXAMPLE, 1.3)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_TWO_CYCLE, "T2.c1")
    assert calls == {"equilibria": 0, "find_two_cycles": 1}
    # no settled tail at step 1024: every limit repels, which the orbits of
    # the critical points and of a show without a search
    v, calls = rooting_calls(monkeypatch, ALL_REPELLING, 1.0)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "oracle")
    assert calls == {"equilibria": 0, "find_two_cycles": 0}
    # seed-0 box input 1539 walks its whole budget beside an attracting
    # 2-cycle, which pulls in a critical point: both searches tell that
    # some limit is non-repelling
    v, calls = rooting_calls(monkeypatch, *box_inputs(0, 1540)[1539])
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_ZERO, "oracle")
    assert calls == {"equilibria": 1, "find_two_cycles": 1}
    # the parabolic equilibrium at 1 keeps the walk going without the
    # 2-cycles, and the proximity pass reads both analyses without rooting
    # either again
    v, calls = rooting_calls(monkeypatch, PARABOLIC_EXAMPLE, 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c2")
    assert calls == {"equilibria": 1, "find_two_cycles": 1}


# a tiny a: the sextic's roots span ~80 decades, and the float 2-cycle
# search raises PairingError here (a known defect of the root search)
TINY_A = Parameters(1e-20, 2.5, -0.5, 0.2)


def test_an_orbit_that_never_reads_the_cycles_answers_where_their_search_fails():
    with pytest.raises(PairingError):
        find_two_cycles(TINY_A)
    v = classify(TINY_A, 1.0, 1.5)
    assert v == Verdict(DIVERGES_TO_INFINITY, "T1.a", notes="oracle=diverges_to_infinity")


# a doubly-neutral set (a + b + c + d = 1, sigma = 1) whose sextic search
# raises PairingError: the float search misses the partner of a root near 1
PAIRING_FAILURE = Parameters(
    0.1621119944408883, 1.2691835051280727, -1.02470299357881, 0.5934074940098492
)


def test_a_certified_cycle_answers_where_the_cycle_search_fails():
    with pytest.raises(PairingError):
        find_two_cycles(PAIRING_FAILURE)
    v = classify(PAIRING_FAILURE, 1.0, 4.15760767439275)
    assert v == Verdict(DIVERGES_TO_INFINITY, "T2.a", notes="oracle=diverges_to_infinity")


def surface_draws(rng, n, sigma):
    """``n`` (params, x0) draws with a + b + c + d = 1 and sigma = +-1."""
    out = []
    while len(out) < n:
        a, d, x0 = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.2, 5.0)
        if sigma > 0:
            b, c = 1.0 - 2.0 * a + d, a - 2.0 * d
        else:
            b, c = 3.0 - 2.0 * a + d, a - 2.0 - 2.0 * d
        if b > 0.0:
            out.append((Parameters(a, b, c, d), x0))
    return out


def test_the_certificate_names_the_limit_the_roots_name(monkeypatch):
    rng = random.Random(17)
    inputs = [
        (Parameters(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0),
                    rng.uniform(-6.0, 3.0), rng.uniform(0.05, 3.0)), rng.uniform(0.2, 5.0))
        for _ in range(500)
    ]
    inputs += [(Parameters(0.1, 1.79, -3.0 + 2.0 * i / 199, 1.0), 1.3) for i in range(200)]
    inputs += surface_draws(rng, 200, 1) + surface_draws(rng, 200, -1)

    def verdicts():
        # a short budget keeps the orbits near a neutral limit quick; the
        # certificate reads only tails, which both runs walk alike
        out = []
        for params, x0 in inputs:
            named.append(False)
            try:
                out.append(classify(params, 1.0, x0, budget=2000))
            except PairingError:
                out.append(None)
        return out

    module = sys.modules["ratiodyn.classify"]
    real, named = module._certify, []

    def counting(values, params):
        certified = real(values, params)
        named[-1] |= certified is not None
        return certified

    # the certificate runs both in the probe at each check (_in_basin) and
    # on a settled tail (_identify); switched off, every limit is rooted
    monkeypatch.setattr(module, "_certify", counting)
    certified = verdicts()
    # most of these orbits settle on a hyperbolic limit off the unit band
    assert sum(named) > len(inputs) / 2
    monkeypatch.setattr(module, "_certify", lambda values, params: None)
    matched = verdicts()
    differ = [
        (inp, v, w) for inp, v, w in zip(inputs, certified, matched)
        if w is not None and v != w
    ]
    assert differ == []


def exact_phi(params, t):
    """phi(t) as an exact rational, for the float parameters and t."""
    a, b, c, d, t = map(Fraction, (params.a, params.b, params.c, params.d, t))
    return (((a * t + b) * t + c) * t + d) / t ** 3


def test_slope_bound_covers_phi_prime():
    """On each window, _slope_bound covers |phi'|, _enclose's [f - s, f + s]
    holds the exact phi of every sampled point, and _phi_padded's float is
    the ratio walk's next ratio, bit for bit."""
    rng = random.Random(23)
    vertex_needed = 0
    for _ in range(400):
        params = Parameters(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0),
                            rng.uniform(-6.0, 3.0), rng.uniform(0.05, 3.0))
        cps = critical_points(params)
        if cps is not None and rng.random() < 0.5:
            # from near one critical point of phi to near the other: g is
            # near 0 at both ends and peaks inside, at its vertex -c / b
            lo, hi = cps.x_m * rng.uniform(0.98, 1.02), cps.x_M * rng.uniform(0.98, 1.02)
        else:
            lo = rng.uniform(0.05, 5.0)
            hi = lo * rng.uniform(1.0, 1.5)
        bound = _slope_bound(params, lo, hi)
        ts = [lo, hi] + [rng.uniform(lo, hi) for _ in range(40)]
        vertex = -params.c / params.b
        if lo <= vertex <= hi:
            ts.append(vertex)
        steepest = max(abs(phi_prime(params, t)) for t in ts)
        assert steepest <= bound, (params, lo, hi)
        # the bound the window's ends alone would give
        ends = max(abs(phi_prime(params, t) * t ** 4) for t in (lo, hi)) / lo ** 4
        vertex_needed += steepest > ends

        m = (lo + hi) * 0.5
        r = max(hi - m, m - lo)
        f, s, slope, pad = _enclose(params, m, r)
        assert (f, pad) == _phi_padded(params, m) and slope >= steepest
        assert abs(exact_phi(params, m) - Fraction(f)) <= pad
        # the float r may fall short of lo's distance to m by a rounding
        for t in (t for t in ts if abs(Fraction(t) - Fraction(m)) <= r):
            assert abs(exact_phi(params, t) - Fraction(f)) <= s, (params, m, r, t)
            walked = []
            advance_ratio(params, t, 1, walked)
            assert _phi_padded(params, t)[0].hex() == walked[0].hex()
    assert vertex_needed > 20


def test_the_certificate_declines_where_it_proves_nothing():
    def eq(m):
        return (m,)

    def cyc(p, q):
        return (p, q)

    ones = Parameters(1.0, 1.0, 1.0, 1.0)
    (e,) = equilibria(ones)
    named, rate, r = _certify(eq(e.value), ones)
    assert isinstance(named, Equilibrium) and named.value == e.value
    # the rate bounds |phi'| and r the residual |phi(m) - m|
    assert abs(named.multiplier) <= rate < 1.0 and abs(phi(ones, e.value) - e.value) <= r
    # a tail at or below 0
    for m in (0.0, -0.5, -e.value):
        assert _certify(eq(m), ones) is None
    assert _certify(cyc(-0.5, 2.0), UNIT_CYCLE_EXAMPLE) is None
    assert _certify(cyc(0.0, 2.0), UNIT_CYCLE_EXAMPLE) is None
    # Example A's neutral equilibrium at 1
    assert _certify(eq(1.0), NEUTRAL_EXAMPLE) is None
    # the unit-product cycle, next to a certified one with p*q > 1
    unit = unit_product_cycle(UNIT_CYCLE_EXAMPLE)
    assert _certify(cyc(unit.p, unit.q), UNIT_CYCLE_EXAMPLE) is None
    attracting, repelling = sorted(
        (c for c in find_two_cycles(UNIT_CYCLE_EXAMPLE) if c.product > 1.0 + EPS_SEARCHED),
        key=lambda c: abs(c.multiplier),
    )
    named, rate, r = _certify(cyc(attracting.p, attracting.q), UNIT_CYCLE_EXAMPLE)
    assert isinstance(named, TwoCycle) and named.p == attracting.p
    assert abs(named.multiplier) <= rate < 1.0
    assert named.q == pytest.approx(attracting.q, rel=1e-12)
    assert _certify(cyc(repelling.p, repelling.q), UNIT_CYCLE_EXAMPLE) is None
    # windows whose powers overflow or underflow, and parameters so small
    # that the certificate's products could
    for m in (1e-300, 1e-90, 1e90, 1e300):
        assert _certify(eq(m), ones) is None
    assert _certify(cyc(1e-300, 1e300), ones) is None
    assert _certify(cyc(0.5, 1e300), ones) is None
    (t,) = [e for e in equilibria(TINY_A) if e.value > 1.0]
    assert _certify(eq(t.value), TINY_A) is None


def test_a_closed_walk_stops_at_closure_before_the_proximity_pass(monkeypatch):
    """A walk that closes on a cycle that never settles stops at closure
    (_settles_nowhere) and never reaches the proximity pass."""
    module = sys.modules["ratiodyn.classify"]
    settles, proximity = module._settles_nowhere, module._proximity_identify
    stops, proximities = [0], [0]

    def spying(*args):
        out = settles(*args)
        stops[0] += out
        return out

    def counting(*args):
        proximities[0] += 1
        return proximity(*args)

    monkeypatch.setattr(module, "_settles_nowhere", spying)
    monkeypatch.setattr(module, "_proximity_identify", counting)
    for params, x0 in CLOSED_WALKS:
        assert classify(params, 1.0, x0).rule == "oracle"
    assert stops[0] == len(CLOSED_WALKS) and proximities[0] == 0


def test_the_proximity_pass_measures_only_a_limit_the_walk_can_near():
    """On a walk that creeps towards a point polynomially, the proximity
    pass names that point's equilibrium, or the 2-cycle it sits on, only
    where its rooted |multiplier| lies within 1 + EPS_SEARCHED, as
    candidate() counts it."""
    creep = [1.0 / (k + 10) for k in range(4000)]
    p, q = 0.5, 2.0
    for mu, named in [
        (1.0, True), (-1.0, True), (0.5, True), (1.0 + EPS_SEARCHED, True),
        (1.0 + 2.0 * EPS_SEARCHED, False), (-1.0 - 2.0 * EPS_SEARCHED, False), (3.0, False),
    ]:
        eq = Equilibrium(1.0, mu, "neutral")
        assert _proximity_identify([1.0 + e for e in creep], [eq], []) == (eq if named else None)
        cyc = TwoCycle(p, q, p * q, mu, True)
        walk = [(p if k % 2 == 0 else q) + e for k, e in enumerate(creep)]
        assert _proximity_identify(walk, [], [cyc]) == (cyc if named else None)
        limits = _Limits(NEUTRAL_EXAMPLE)
        limits._repels, limits._eqs, limits._cycles = False, [eq], []
        assert limits.candidate() is named


def box_inputs(seed, count):
    """The benchmark's ``box_classify`` inputs (perfbench/workloads.py):
    ``count`` (params, x0) from the shifted Kronecker sequence of ``seed``
    over the fuzz box on which the 2-cycle search's PairingError was found."""
    box = ((0.05, 3.0), (0.05, 3.0), (-6.0, 3.0), (0.05, 3.0), (0.2, 5.0))
    g = 2.0
    for _ in range(64):  # the positive root of g^6 = g + 1
        g = (1.0 + g) ** (1.0 / 6)
    alpha = [(1.0 / g) ** (j + 1) for j in range(5)]
    rng = random.Random(seed)
    shift = [rng.random() for _ in range(5)]
    out = []
    for i in range(1, count + 1):
        a, b, c, d, x0 = (
            lo + (hi - lo) * ((s + i * al) % 1.0) for (lo, hi), s, al in zip(box, shift, alpha)
        )
        out.append((Parameters(a, b, c, d), x0))
    return out


def tiny_a_grid():
    """ROADMAP item 1's 486 tiny-``a`` inputs: a from 1e-40 to 1e-15, three
    values each of b, c, d and x0."""
    return [
        (Parameters(10.0 ** -e, b, c, d), x0)
        for e in (40, 35, 30, 25, 20, 15) for b in (0.3, 1.0, 2.5)
        for c in (-3.0, -0.5, 1.0) for d in (0.2, 1.0, 2.0) for x0 in (0.5, 1.5, 3.0)
    ]


def verdict_or_error(params, x0, **kwargs):
    """repr(classify(...)), or the type of the numerical failure it raised."""
    try:
        return repr(classify(params, 1.0, x0, **kwargs))
    except (PairingError, RootIsolationError, DegeneracyError, ArithmeticError) as exc:
        return type(exc).__name__


def test_the_stops_change_no_verdict(monkeypatch):
    """The stop at closure (_settles_nowhere) and the detector's O(1)
    reject (simulate._far_apart) leave every verdict, and every exception
    type, as the walk without them gives it."""
    rng = random.Random(31)
    groups = {
        "box": [(params, x0, {}) for params, x0 in box_inputs(0, 3000)],
        "tiny_a": [(params, x0, {}) for params, x0 in tiny_a_grid()],
        # a shorter budget keeps the neutral orbits quick
        "surfaces": [
            (params, x0, {"budget": 20000})
            for params, x0 in surface_draws(rng, 60, 1) + surface_draws(rng, 60, -1)
        ],
    }
    module, sim = sys.modules["ratiodyn.classify"], sys.modules["ratiodyn.simulate"]
    real, stops = module._settles_nowhere, dict.fromkeys(groups, 0)

    def counting(*args):
        stopped = real(*args)
        stops[group] += stopped
        return stopped

    monkeypatch.setattr(module, "_settles_nowhere", counting)
    live = []
    for group, inputs in groups.items():
        live += [verdict_or_error(params, x0, **kw) for params, x0, kw in inputs]
    # how many walks of each group stop at closure; 31 more box walks close
    # by step 1024 and stop there at the critical-orbit certificate instead
    assert stops == {"box": 241, "tiny_a": 0, "surfaces": 4}
    monkeypatch.setattr(module, "_settles_nowhere", lambda *args: False)
    monkeypatch.setattr(sim, "_far_apart", lambda t, s, tol: False)
    inputs = [inp for inputs in groups.values() for inp in inputs]
    plain = [verdict_or_error(params, x0, **kw) for params, x0, kw in inputs]
    differ = [(inp, v, w) for inp, v, w in zip(inputs, live, plain) if v != w]
    assert differ == []


def test_walks_that_never_settle_stop_at_closure(monkeypatch):
    box = box_inputs(0, 2000)
    assert [box[i] for i in (966, 823)] == CLOSED_WALKS
    module = sys.modules["ratiodyn.classify"]
    oracle, walked = module._oracle, []

    def recording(params, x_minus1, x0, budget, tol, values):
        walked.append(len(values) - 1)
        return oracle(params, x_minus1, x0, budget, tol, values)

    monkeypatch.setattr(module, "_oracle", recording)
    # (input, class, the step the walk stopped at): these close on a cycle
    # of period 12, 4 and 8 after 128, 256 and 512 steps and stop at the
    # next check, without rooting either polynomial
    for i, want, step in [
        (823, CONVERGES_TO_ZERO, 256),
        (1825, CONVERGES_TO_ZERO, 512),
        (1109, DIVERGES_TO_INFINITY, 1024),
    ]:
        walked.clear()
        v, calls = rooting_calls(monkeypatch, *box[i])
        assert (v.asymptotic_class, v.rule) == (want, "oracle"), i
        assert walked == [step] and calls == {"equilibria": 0, "find_two_cycles": 0}, i
    # input 966 has not closed by step 1024, where it roots both
    # polynomials to learn that some limit is non-repelling; it closes on
    # a cycle of period 16 after 2048 steps and stops at step 3072
    walked.clear()
    v, calls = rooting_calls(monkeypatch, *box[966])
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "oracle")
    assert walked == [3072] and calls == {"equilibria": 1, "find_two_cycles": 1}


def test_the_oracle_replays_a_closed_walk_as_the_map_walks_it(monkeypatch):
    """Past a closed float cycle the oracle reads each chunk phase once and
    replays it; with closure off it applies the map instead.  The answers
    agree on every oracle call classify makes, with the ratios its walk
    hands over."""
    sim, module = sys.modules["ratiodyn.simulate"], sys.modules["ratiodyn.classify"]
    oracle, walk_on, closed = module.empirical_class, sim.walk_on, sim.closed_period
    replays = [0]

    def counting(*args):
        ratios, k, stopped = walk_on(*args)
        replays[0] += k is not None
        return ratios, k, stopped

    def both(*args, **kwargs):
        live = oracle(*args, **kwargs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "closed_period", lambda ratios: None)
            assert oracle(*args, **kwargs) == live, args
        return live

    monkeypatch.setattr(module, "empirical_class", both)
    monkeypatch.setattr(sim, "walk_on", counting)
    rng = random.Random(37)
    # a shorter budget keeps the neutral orbits quick
    surfaces = surface_draws(rng, 60, 1) + surface_draws(rng, 60, -1)
    for params, x0, kw in (
        [(params, x0, {}) for params, x0 in box_inputs(0, 3000) + CLOSED_WALKS]
        + [(params, x0, {"budget": 20000}) for params, x0 in surfaces]
    ):
        try:
            classify(params, 1.0, x0, **kw)
        except (PairingError, RootIsolationError, DegeneracyError, ArithmeticError):
            pass
    assert replays[0] > 2000
    # a set whose orbit closes on a float equilibrium below 1 within the
    # 128 steps classify walks (T1.b): the replayed chunks carry |x_n| down
    params = Parameters(1.8735548947633112, 1.2325292611871794, -4.712512640018497, 2.5034530814965654)
    v = classify(params, 1.0, 2.5525424378480763)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_ZERO, "T1.b")
    assert v.notes == "oracle=" + CONVERGES_TO_ZERO
    # a unit-product cycle (T2.c1): the float orbit closes at step 694 on a
    # cycle whose product is 1 to within a rounding; the replayed tail settles
    walk = iterate_ratio(UNIT_CYCLE_EXAMPLE, 1.0, 700).values
    assert closed(walk) == 2
    assert both(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, 20000, 1e-12, values=walk) == CONVERGES_TO_TWO_CYCLE


def golden_inputs():
    """The inputs of the golden file (tests/data/classify_golden.json), as
    (params, x0, classify's keyword arguments)."""
    entries = json.loads(
        (Path(__file__).parent / "data" / "classify_golden.json").read_text(encoding="utf-8")
    )
    return [(Parameters(*e["params"]), e["x0"], {"tol": e["tol"]}) for e in entries]


def test_the_probe_changes_no_verdict(monkeypatch):
    """Naming an equilibrium where the walk enters its certified window
    (_in_basin) leaves every verdict, and every exception type, as the
    walk without the probe gives it."""
    rng = random.Random(41)
    groups = {
        "box": [(params, x0, {}) for params, x0 in box_inputs(0, 3000)],
        "golden": golden_inputs(),
        # a shorter budget keeps the neutral orbits quick
        "surfaces": [
            (params, x0, {"budget": 20000})
            for params, x0 in surface_draws(rng, 60, 1) + surface_draws(rng, 60, -1)
        ],
    }
    module = sys.modules["ratiodyn.classify"]
    real, named = module._in_basin, dict.fromkeys(groups, 0)

    def counting(*args):
        eq = real(*args)
        named[group] += eq is not None
        return eq

    monkeypatch.setattr(module, "_in_basin", counting)
    live = []
    for group, inputs in groups.items():
        live += [verdict_or_error(params, x0, **kw) for params, x0, kw in inputs]
    # how many walks of each group stop at basin entry
    assert named == {"box": 1947, "golden": 67, "surfaces": 14}
    monkeypatch.setattr(module, "_in_basin", lambda *args: None)
    inputs = [inp for inputs in groups.values() for inp in inputs]
    plain = [verdict_or_error(params, x0, **kw) for params, x0, kw in inputs]
    differ = [(inp, v, w) for inp, v, w in zip(inputs, live, plain) if v != w]
    assert differ == []


def nearly_neutral(mu):
    """A set whose one positive equilibrium, at 2, has the multiplier -mu."""
    c = 4.0 * (mu - 0.4375)
    return Parameters(1.375 - c / 4.0, 1.0, c, 1.0)


def test_the_probe_declines_where_it_must(monkeypatch):
    ones = Parameters(1.0, 1.0, 1.0, 1.0)
    walk = array("d", iterate_ratio(ones, 1.5, 128).values)
    assert _in_basin(ones, walk, 128, DEFAULT_BUDGET, TAIL_TOL) is not None
    # tol = 0 settles no tail of two distinct floats; a tol so coarse that a
    # detection could name a limit outside the window
    assert _in_basin(ones, walk, 128, DEFAULT_BUDGET, 0.0) is None
    assert _in_basin(ones, walk, 128, DEFAULT_BUDGET, 1e-4) is None
    # no check within the budget reads a window that starts at the probe's
    # step or later; at 191 the budget's check does
    for budget in (128, 150, 190):
        assert _in_basin(ones, walk, 128, budget, TAIL_TOL) is None
    assert _in_basin(ones, walk, 128, 191, TAIL_TOL) is not None
    # at step 64 the ratio sits 1.5e-7 (relative) from the equilibrium: at
    # tol = 1e-7 the check at budget 127, which reads steps 64 to 127, may
    # not settle yet, and a later one will
    walk64 = walk[:65]
    assert _in_basin(ones, walk64, 64, 127, 1e-7) is None
    assert _in_basin(ones, walk64, 64, DEFAULT_BUDGET, 1e-7) is not None
    # the same last ratio after a window that reports a 2-cycle
    t = walk64[-1]
    crafted = walk64[:-TAIL_WINDOW] + array("d", [1.5 * t, t] * (TAIL_WINDOW // 2))
    assert detect_ratio_limit(RatioTrajectory(crafted, COMPLETED), 1e-7).kind == "two_cycle"
    assert _in_basin(ones, crafted, 64, DEFAULT_BUDGET, 1e-7) is None
    # a parameter outside [2^-50, 2^50], on walks settled to a few ulps of
    # an equilibrium above 1; d = 2^-50 still passes
    tiny = 2.0 ** -60
    for params in (Parameters(1.0, 1.0, 1.0, tiny), Parameters(1.0, tiny, 1.0, 1.0),
                   Parameters(1.0, 1.0, tiny, 1.0), TINY_A, Parameters(1.0, 1.0, 1.0, 2.0 ** -50)):
        walk = array("d", iterate_ratio(params, 1.5, 1024).values)
        assert 1.5 < walk[-1] == pytest.approx(walk[-2], rel=1e-14)
        named = _in_basin(params, walk, 1024, DEFAULT_BUDGET, TAIL_TOL)
        assert (named is not None) == (params.d == 2.0 ** -50), params
    # Example A: the limit lies on the unit band
    walk = array("d", iterate_ratio(NEUTRAL_EXAMPLE, 1.5, 20000).values)
    assert _in_basin(NEUTRAL_EXAMPLE, walk, 20000, DEFAULT_BUDGET, TAIL_TOL) is None
    # nearly neutral equilibria at 2: at -mu = -0.9999999 the certificate
    # declines; at -0.999 the slow alternating approach settles each half
    # first, today's walk reports a 2-cycle it cannot name and ends with
    # the oracle, and the probe declines at every check
    module = sys.modules["ratiodyn.classify"]
    real, named = module._in_basin, []
    monkeypatch.setattr(module, "_in_basin", lambda *args: named.append(real(*args)) or named[-1])
    for mu, rule in ((0.9999999, "T1.a"), (0.999, "oracle")):
        named.clear()
        v = classify(nearly_neutral(mu), 1.0, 2.1)
        assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, rule)
        assert named and not any(named)
    # through classify, at budgets at and just past the probe's first check
    box = box_inputs(0, 200)
    for budget in (64, 100, 127, 128, 191):
        live = [verdict_or_error(params, x0, budget=budget) for params, x0 in box]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "_in_basin", lambda *args: None)
            plain = [verdict_or_error(params, x0, budget=budget) for params, x0 in box]
        assert live == plain, budget


def test_the_schwarzian_of_phi():
    sp = pytest.importorskip("sympy")
    a, b, c, d, t, s = sp.symbols("a b c d t s")
    f = a + b / t + c / t**2 + d / t**3
    d1, d2, d3 = (sp.diff(f, t, k) for k in (1, 2, 3))
    schwarzian = d3 / d1 - sp.Rational(3, 2) * (d2 / d1) ** 2
    p_prime = b + 2 * c * s + 3 * d * s**2
    q = 6 * d**2 * s**2 + 4 * c * d * s + c**2 - b * d
    claimed = (-6 * q / (p_prime**2 * t**4)).subs(s, 1 / t)
    assert sp.simplify(schwarzian - claimed) == 0
    # Q has no real root where c^2 > 3 b d
    assert sp.expand(sp.discriminant(q, s) - 8 * d**2 * (3 * b * d - c**2)) == 0


def test_the_critical_orbit_certificate_is_sound():
    """Where _repels_everywhere holds, neither search reports a limit that
    _Limits.candidate would count (|multiplier| <= 1 + EPS_SEARCHED)."""
    rng = random.Random(43)
    held = drawn = 0
    while held < 5000:
        drawn += 1
        params = Parameters(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0),
                            rng.uniform(-6.0, 3.0), rng.uniform(0.05, 3.0))
        if not _repels_everywhere(params):
            continue
        held += 1
        try:
            limits = equilibria(params) + find_two_cycles(params)
        except PairingError:
            continue
        assert all(abs(o.multiplier) > 1.0 + EPS_SEARCHED for o in limits), params
    # it holds on about a sixth of the box
    assert drawn < 40000


def test_the_critical_orbit_certificate_declines_where_it_must():
    # c^2 < 3 b d: Example A, whose equilibrium at 1 is neutral
    assert NEUTRAL_EXAMPLE.c ** 2 < 3.0 * NEUTRAL_EXAMPLE.b * NEUTRAL_EXAMPLE.d
    assert not _repels_everywhere(NEUTRAL_EXAMPLE)
    # c >= 0: phi has no positive critical point, and the orbit of a stays
    # positive
    for params in (Parameters(1.0, 1.0, 1.0, 1.0), Parameters(0.5, 1.0, 0.0, 1.0),
                   Parameters(0.05, 0.05, 3.0, 0.05)):
        assert not _repels_everywhere(params), params
    # seed-0 box inputs that walk the full budget beside an attracting 2-cycle
    box = box_inputs(0, 2000)
    for i, mu in ((1539, 0.076), (1968, 0.895)):
        params = box[i][0]
        (attracting,) = [c for c in find_two_cycles(params) if abs(c.multiplier) < 1.0]
        assert attracting.multiplier == pytest.approx(mu, abs=1e-3)
        assert not _repels_everywhere(params), i
    # the orbits of a and x_m turn negative, but an attracting equilibrium
    # at 1.534 pulls in x_M: a check of a alone would be wrong
    params = Parameters(0.6590703333995468, 2.767661372195038, -2.447996216338228,
                        0.40066118715375443)
    (e,) = [e for e in equilibria(params) if abs(e.multiplier) < 1.0]
    assert e.value == pytest.approx(1.534, abs=1e-3) and e.multiplier == pytest.approx(-0.037, abs=1e-3)
    cps = critical_points(params)
    assert _turns_negative(params, params.a, 0.0) and _turns_negative(params, cps.x_m, 0.0)
    assert not _turns_negative(params, cps.x_M, 0.0)
    assert not _repels_everywhere(params)


def test_the_critical_orbit_certificate_changes_no_verdict(monkeypatch):
    """Answering _Limits.candidate from the critical orbits leaves every
    verdict, and every exception type, as the two root searches give it."""
    rng = random.Random(47)
    groups = {
        "box": [(params, x0, {}) for params, x0 in box_inputs(0, 3000)],
        "golden": golden_inputs(),
        # a shorter budget keeps the neutral orbits quick
        "surfaces": [
            (params, x0, {"budget": 20000})
            for params, x0 in surface_draws(rng, 60, 1) + surface_draws(rng, 60, -1)
        ],
        "tiny_a": [(params, x0, {}) for params, x0 in tiny_a_grid()],
    }
    module = sys.modules["ratiodyn.classify"]
    real, decided = module._repels_everywhere, dict.fromkeys(groups, 0)

    def counting(params):
        holds = real(params)
        decided[group] += holds
        return holds

    monkeypatch.setattr(module, "_repels_everywhere", counting)
    live = []
    for group, inputs in groups.items():
        live += [verdict_or_error(params, x0, **kw) for params, x0, kw in inputs]
    # how many walks of each group it answers without rooting, 31 of the
    # box's before the stop at closure would
    assert decided == {"box": 237, "golden": 6, "surfaces": 0, "tiny_a": 0}
    monkeypatch.setattr(module, "_repels_everywhere", lambda params: False)
    inputs = [inp for inputs in groups.values() for inp in inputs]
    plain = [verdict_or_error(params, x0, **kw) for params, x0, kw in inputs]
    differ = [(inp, v, w) for inp, v, w in zip(inputs, live, plain) if v != w]
    assert differ == []


def test_a_negative_tail_roots_nothing(monkeypatch):
    module = sys.modules["ratiodyn.classify"]
    calls = []
    for name in ("equilibria", "find_two_cycles"):
        monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
    limits = _Limits(UNIT_CYCLE_EXAMPLE)
    for det in (LimitReport("equilibrium", (-0.5,), 0.0), LimitReport("two_cycle", (-0.5, 2.0), 0.0),
                LimitReport("two_cycle", (0.5, -2.0), 0.0)):
        assert _identify(det, limits) == (None, None), det
    assert calls == []


def test_a_negative_orbit_reads_as_its_mirror():
    """On the sigma = -1 surface, an orbit whose ratios turn negative early
    has x_n < 0 from a positive start; -x_n solves the equation with the
    same ratios, and T1.c2 reads the monotonicity of that positive orbit."""
    params = Parameters(0.13641007898787008, 2.9561876501465014, -2.3216055372566133,
                        0.22900780812224164)
    v = classify(params, 1.0, 0.6489493883312525)
    assert v == Verdict(
        UNDETERMINED, "T1.c2", WHOLE_INCREASING,
        notes="increasing with c <= -3d: outcome not covered; oracle=diverges_to_infinity",
    )


def test_every_scale_of_the_start_gets_one_answer():
    """The equation is homogeneous of degree 1, so lambda x_n solves it from
    (lambda x_{-1}, lambda x0), and classify answers alike: for lambda = 2^k
    the walk is bit-identical, and the oracle counts its 12 decades from
    |x_{-1}|.  The five seed-0 box inputs listed first, and most surface
    draws, answered otherwise at some scale when the decades counted from 1."""
    scales = [math.ldexp(1.0, k) for k in (-1000, 30, 1000)]
    box = box_inputs(0, 3000)
    inputs = [(box[i], {}) for i in (79, 136, 966, 2531, 2573)] + [(inp, {}) for inp in box[:100]]
    rng = random.Random(2)
    inputs += [(inp, {"budget": 20000}) for inp in surface_draws(rng, 30, 1) + surface_draws(rng, 30, -1)]
    for (params, x0), kwargs in inputs:
        answer = repr(classify(params, 1.0, x0, **kwargs))
        for lam in scales:
            assert repr(classify(params, lam, lam * x0, **kwargs)) == answer, (params, x0, lam)
    # Example A's orbit grows only like n^0.55: 2.4 decades in 1e5 steps
    big = math.ldexp(1.0, 40)
    assert classify(NEUTRAL_EXAMPLE, big, 1.5 * big).notes.endswith("oracle=undetermined")


def rule_family_or_error(params, x0):
    """classify's rule family (T1, T2 or oracle), or the type it raised."""
    try:
        return classify(params, 1.0, x0).rule.split(".")[0]
    except (PairingError, RootIsolationError, DegeneracyError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def test_a_conjugate_by_a_power_of_two_walks_and_answers_alike():
    """Conjugating by t = lambda u, lambda = 2^k, maps (a, b, c, d) to
    (a / lambda, b / lambda^2, c / lambda^3, d / lambda^4) exactly, and
    scales every float operation of the ratio step by a power of 2: the walk
    from t0 / lambda is the walk from t0 divided by lambda, bit for bit,
    while it stays in the normal floats.  Limits scale by 1 / lambda, and
    multipliers, periods and closures stay, so classify keeps its rule
    family.  Only k < 0, where limits grow, holds today: at k = 4 and 10
    the tolerances with an absolute floor below 1 make hundreds of these
    inputs raise PairingError (ROADMAP item 17)."""
    for k in (-4, -10):
        lam = math.ldexp(1.0, k)
        for params, x0 in box_inputs(0, 300):
            conj = Parameters(params.a / lam, params.b / lam**2, params.c / lam**3, params.d / lam**4)
            walk = iterate_ratio(params, x0, 299).values
            scaled = iterate_ratio(conj, x0 / lam, 299).values
            assert [*map(float.hex, scaled)] == [(t / lam).hex() for t in walk], (params, x0, k)
            assert rule_family_or_error(conj, x0 / lam) == rule_family_or_error(params, x0), (params, x0, k)


def probe_calls(monkeypatch):
    """A record of the flip probe's answers, one per call."""
    module = sys.modules["ratiodyn.classify"]
    real, answers = module._flips_to_one, []

    def recording(taylor, values):
        answers.append(real(taylor, values))
        return answers[-1]

    monkeypatch.setattr(module, "_flips_to_one", recording)
    return answers


def test_the_flip_probe_ends_the_neutral_walk(monkeypatch):
    """On Example A the probe certifies the orbit at the first check, and
    the walk ends there with T1.c3, without rooting either polynomial; the
    oracle walks the rest of the budget itself."""
    module = sys.modules["ratiodyn.classify"]
    real, walked = module.walk_on, [0]

    def counting(params, values, n, k=None):
        chunk, k, stopped = real(params, values, n, k)
        walked[0] += len(chunk)
        return chunk, k, stopped

    monkeypatch.setattr(module, "walk_on", counting)
    answers = probe_calls(monkeypatch)
    for x0 in (1.5, 3.0, 0.8):
        walked[0] = 0
        answers.clear()
        v, calls = rooting_calls(monkeypatch, NEUTRAL_EXAMPLE, x0)
        assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c3"), x0
        assert v.notes == "oracle=" + UNDETERMINED
        assert walked[0] <= 64 and answers == [True], x0
        assert calls == {"equilibria": 0, "find_two_cycles": 0}, x0
    # next to 1, where the proximity pass did not fire within the budget
    for x0 in (1.001, 0.999):
        v = classify(NEUTRAL_EXAMPLE, 1.0, x0)
        assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c3"), x0


# sigma = +1 with k(1) = 0.108 > 0: phi∘phi moves the points near 1 away
# from it
REPELLING_FLIP = Parameters(
    0.09059531159311031, 0.9036451924279802, -0.07907631963529148, 0.0848358156142009
)


def test_the_flip_probe_declines_where_it_must(monkeypatch):
    answers = probe_calls(monkeypatch)
    # off the band, and at sigma = -1, it never runs
    for params, x0 in ((Parameters(1.0, 1.0, 1.0, 1.0), 1.5), (UNIT_CYCLE_EXAMPLE, 1.3),
                       (PARABOLIC_EXAMPLE, 1.5)):
        classify(params, 1.0, x0)
        assert answers == [], params
    # k(1) > 0; a landing on 1 at step 0; Example A from 0.5, whose orbit
    # settles on a 2-cycle with p q > 1
    taylor = _flip_taylor(REPELLING_FLIP)
    assert taylor[1][0] > 0
    for params, x0, rule in ((REPELLING_FLIP, 0.9030163539168607, "T2.a"),
                             (NEUTRAL_EXAMPLE, 1.0, "T1.cS"), (NEUTRAL_EXAMPLE, 0.5, "T2.a")):
        answers.clear()
        assert classify(params, 1.0, x0).rule == rule, (params, x0)
        assert answers and not any(answers), (params, x0)
    # a ratio within LANDING_TOL of 1 among the first LANDING_STEPS + 1
    # declines, wherever the walk then is
    taylor = _flip_taylor(NEUTRAL_EXAMPLE)
    walk = array("d", iterate_ratio(NEUTRAL_EXAMPLE, 1.5, 64).values)
    assert _flips_to_one(taylor, walk)
    for step, t in ((LANDING_STEPS, 1.0 + 5e-13), (LANDING_STEPS + 1, 1.0)):
        landed = array("d", walk)
        landed[step] = t
        assert _flips_to_one(taylor, landed) == (step > LANDING_STEPS), step
    # a ratio at or beyond the window's reach: delta would be 1 or more
    for t in (0.0, -0.5, 2.0, math.inf, math.nan):
        assert not _flips_to_one(taylor, walk[:-1] + array("d", [t])), t


def test_the_flip_probe_changes_no_verdict_off_the_band(monkeypatch):
    """With the probe switched off, the seed-0 box and the tiny-a grid
    answer alike: the band test keeps it from running there."""
    inputs = box_inputs(0, 3000) + tiny_a_grid()
    answers = probe_calls(monkeypatch)
    live = [verdict_or_error(params, x0) for params, x0 in inputs]
    assert answers == []
    monkeypatch.setattr(sys.modules["ratiodyn.classify"], "_flips_to_one", lambda *args: False)
    assert [verdict_or_error(params, x0) for params, x0 in inputs] == live


def test_the_flip_identity():
    """On the surface point, (t - 1)^3 divides M - t N^3, the quotient's
    value at 1 is C = -(2 phi'''(1) + 3 phi''(1)^2) / 6, and _flip_taylor
    gives the Taylor coefficients at 1 of N and of the quotient."""
    sp = pytest.importorskip("sympy")
    a, b, t = sp.symbols("a b t")
    c, d = 2 - 3 * a - 2 * b, 2 * a + b - 1
    n = a * t**3 + b * t**2 + c * t + d
    m = a * n**3 + b * n**2 * t**3 + c * n * t**6 + d * t**9
    q, rem = sp.div(sp.expand(m - t * n**3), sp.expand((t - 1) ** 3), t)
    assert rem == 0 and sp.degree(q, t) == 7
    second, third = 2 * b + 6 * c + 12 * d, -6 * b - 24 * c - 60 * d
    assert sp.expand(q.subs(t, 1) - (-(2 * third + 3 * second**2) / 6)) == 0
    assert sp.expand(n.subs(t, 1)) == 1
    for params in (NEUTRAL_EXAMPLE, REPELLING_FLIP):
        exact = {a: sp.Rational(Fraction(params.a)), b: sp.Rational(Fraction(params.b))}
        e = sp.symbols("e")
        want = [
            [sp.expand(p.subs(exact).subs(t, 1 + e)).coeff(e, j) for j in range(deg + 1)]
            for p, deg in ((n, 3), (q, 7))
        ]
        got = _flip_taylor(params)
        assert [[sp.Rational(x) for x in coefs] for coefs in got] == want, params
