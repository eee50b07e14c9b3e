import math
import random
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
    _identify,
    _landing_index,
    _mean_distance,
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
from ratiodyn.polynomial import real_roots_in
from ratiodyn.ratio_map import (
    Equilibrium, Parameters, equilibria, fixed_point_poly, phi, phi_prime,
)
from ratiodyn.simulate import DECREASING, INCREASING, LimitReport, empirical_class
from ratiodyn.tolerances import DEFAULT_ZERO_GUARD, EPS_SEARCHED, ROOT_TOL, TAIL_TOL

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
            kwargs.get("tol", TAIL_TOL), DEFAULT_ZERO_GUARD,
        )
        assert oracle_answer(v) == alone, (params, x_minus1, x0, kwargs)


def count_steps(monkeypatch):
    """A counter of the ratio-map steps classify and its oracle take."""
    steps = [0]
    for name in ("ratiodyn.classify", "ratiodyn.simulate"):
        module = sys.modules[name]

        def counting(params, t, n, zero_guard, out, advance=module.advance_ratio):
            before = len(out)
            result = advance(params, t, n, zero_guard, out)
            steps[0] += len(out) - before
            return result

        monkeypatch.setattr(module, "advance_ratio", counting)
    return steps


def test_classify_walks_each_ratio_once(monkeypatch):
    steps = count_steps(monkeypatch)
    v = classify(NEUTRAL_EXAMPLE, 1.0, 1.5)
    assert (v.asymptotic_class, v.rule) == (DIVERGES_TO_INFINITY, "T1.c3")
    # the oracle reads the 1e5 ratios classify walked and walks none itself
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
    for name in ("ratiodyn.classify", "ratiodyn.simulate"):
        module = sys.modules[name]

        def spy(ratios, name=name, closed=module.closed_period):
            k = closed(ratios)
            if k:
                found.setdefault(name, k)
            return k

        monkeypatch.setattr(module, "closed_period", spy)
    classify(params, 1.0, x0, tol=tol)
    return found


def test_orbits_close_where_the_replay_tests_need(monkeypatch):
    for period, params, x0 in CLOSING_ORBITS:
        assert first_periods(monkeypatch, params, x0, TAIL_TOL).get("ratiodyn.classify") == period
    assert first_periods(monkeypatch, SWEEP_ROW, 1.3, ROOT_TOL) == {"ratiodyn.simulate": 2}


def test_replay_gives_the_answers_of_the_plain_walk(monkeypatch):
    cases = [(params, x0, TAIL_TOL) for _, params, x0 in CLOSING_ORBITS]
    cases += [(SWEEP_ROW, 1.3, ROOT_TOL), (UNIT_CYCLE_EXAMPLE, 3.0, ROOT_TOL)]
    module = sys.modules["ratiodyn.classify"]
    detect, walked = module.detect_ratio_limit, []

    def recording(traj, tol):
        walked.append(list(traj.values))
        return detect(traj, tol)

    monkeypatch.setattr(module, "detect_ratio_limit", recording)

    def answers():
        """Each verdict, the standalone oracle's answer, and the ratios
        classify's walk had at each of its checks."""
        out = []
        for params, x0, tol in cases:
            walked.clear()
            v = classify(params, 1.0, x0, tol=tol)
            out.append((repr(v), empirical_class(params, 1.0, x0, tol=tol), [*walked]))
        return out

    replayed = answers()
    for name in ("ratiodyn.classify", "ratiodyn.simulate"):
        monkeypatch.setattr(sys.modules[name], "closed_period", lambda ratios: None)
    assert answers() == replayed


def test_a_closed_orbit_is_replayed_not_walked(monkeypatch):
    steps = count_steps(monkeypatch)
    v = classify(SWEEP_ROW, 1.0, 1.3, tol=ROOT_TOL)
    assert (v.asymptotic_class, v.rule) == (CONVERGES_TO_ZERO, "T2.b")
    # 512 steps of classify's walk, then one oracle chunk before it closes;
    # a plain walk takes 24576 steps to cross 12 decades
    assert steps[0] <= 1000


def two_point_distance(vals, p, q):
    return sum(map(min, [abs(t - p) for t in vals], [abs(t - q) for t in vals])) / len(vals)


def test_mean_distance_to_a_cycle_equals_the_two_point_minimum():
    p, q = 0.3, 1.7
    mid = (p + q) / 2.0
    below, above = math.nextafter(mid, -math.inf), math.nextafter(mid, math.inf)
    tails = [
        [0.1, 0.2, 0.29999999999999993],  # all below p
        [1.7000000000000002, 5.0, 1e300],  # all above q
        [0.3, 0.5, 0.9, below],  # between p and the midpoint
        [0.31, below], [0.31, mid], [0.31, above],  # one ulp either side of it
        [above, 1.2, 1.69], [mid, 1.69], [below, 1.69],
        [0.5, 1.5], [0.1, 1.0, 2.5],  # across the midpoint
        [0.4, math.inf], [math.inf, 0.4], [-math.inf, 0.4], [2.5, math.inf],
        [math.inf, math.inf], [-math.inf],
        [0.4, math.nan], [math.nan, 0.4], [math.nan, 2.5], [2.5, math.nan, 0.4],
    ]
    cases = [(p, q, vals) for vals in tails]
    # tails of a random cycle that reach to within three ulps of its
    # midpoint from below, from above, or cross it
    rng = random.Random(3)
    for _ in range(300):
        p, q = sorted(rng.uniform(-3.0, 5.0) for _ in range(2))
        mid = (p + q) / 2.0
        ulps = [mid]
        for _ in range(3):
            ulps = [math.nextafter(ulps[0], -math.inf), *ulps, math.nextafter(ulps[-1], math.inf)]
        lo, hi = rng.choice([(p - 1.0, mid), (mid, q + 1.0), (p - 1.0, q + 1.0)])
        near = [u for u in ulps if lo < u < hi]
        cases.append((p, q, [rng.uniform(lo, hi) for _ in range(8)] + near))
    for p, q, vals in cases:
        got, want = _mean_distance(vals, (p, q)), two_point_distance(vals, p, q)
        assert got == want or (math.isnan(got) and math.isnan(want)), (p, q, vals)


def test_identify_names_no_limit_at_an_unknown_equilibrium():
    eqs = equilibria(NEUTRAL_EXAMPLE)
    (neg,) = real_roots_in(fixed_point_poly(NEUTRAL_EXAMPLE), -math.inf, 0.0)
    assert phi(NEUTRAL_EXAMPLE, neg) == pytest.approx(neg, rel=1e-12)
    # a negative equilibrium repels, so a positive start never settles there
    assert abs(phi_prime(NEUTRAL_EXAMPLE, neg)) > 1.0
    assert _identify(LimitReport("equilibrium", (neg,), 0.0), eqs, []) == (None, None)
    (one,) = [e for e in eqs if abs(e.value - 1.0) <= 1e-6]
    assert _identify(LimitReport("equilibrium", (1.0,), 0.0), eqs, []) == (one, None)


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
