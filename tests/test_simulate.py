import math
import random
import sys
from array import array
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiodyn.outcomes import (
    CONVERGES_TO_EQUILIBRIUM,
    CONVERGES_TO_TWO_CYCLE,
    DIVERGES_TO_INFINITY,
    ITERATION_STOPS,
    UNDETERMINED,
)
from ratiodyn.ratio_map import Parameters, phi
from ratiodyn.simulate import (
    COMPLETED,
    DECREASING,
    ESCAPED_NEGATIVE,
    HIT_ZERO,
    INCREASING,
    MIXED,
    OVERFLOWED_BUDGET,
    STOPPED_DIVISION_BY_ZERO,
    RatioTrajectory,
    SolutionTrajectory,
    closed_period,
    detect_ratio_limit,
    empirical_class,
    iterate_ratio,
    iterate_solution,
    subsequence_monotonicity,
    walk_on,
)
from ratiodyn.tolerances import TAIL_WINDOW

NEUTRAL_EXAMPLE = Parameters(0.2, 1.7, -2.0, 1.1)
UNIT_CYCLE_EXAMPLE = Parameters(0.1, 1.79, -2.0, 1.0)
# phi(1) = a + b + c + d = 0: from x_{-1} = x_0 = 1 the first ratio is
# exactly 0, so x_1 = 0
ZERO_RATIO = Parameters(1.0, 1.0, -3.0, 1.0)


def test_iterate_ratio_matches_map():
    traj = iterate_ratio(UNIT_CYCLE_EXAMPLE, 1.3, 50)
    assert traj.status == COMPLETED
    assert len(traj.values) == 51
    for t, t_next in zip(traj.values, traj.values[1:]):
        assert t_next == pytest.approx(phi(UNIT_CYCLE_EXAMPLE, t), rel=1e-14)


def test_iterate_ratio_zero_guard():
    # the walk's one stop is a ratio whose cube is 0: a ratio of exactly 0,
    # reached after a step
    traj = iterate_ratio(ZERO_RATIO, 1.0, 10)
    assert traj.status == HIT_ZERO
    assert traj.values == [1.0, 0.0]
    # 1e-110 is not 0, but its cube underflows to 0
    traj = iterate_ratio(NEUTRAL_EXAMPLE, 1e-110, 10)
    assert traj.status == HIT_ZERO
    assert traj.values == [1e-110]


def test_iterate_ratio_rejects_a_negative_step_count():
    for n in (-1, -3):
        with pytest.raises(ValueError, match="n >= 0"):
            iterate_ratio(UNIT_CYCLE_EXAMPLE, 1.3, n)
        with pytest.raises(ValueError, match="n >= 0"):
            iterate_solution(UNIT_CYCLE_EXAMPLE, 1.0, 1.3, n)
    # no steps is the start alone
    traj = iterate_ratio(UNIT_CYCLE_EXAMPLE, 1.3, 0)
    assert (traj.values, traj.status) == ([1.3], COMPLETED)
    assert len(iterate_solution(UNIT_CYCLE_EXAMPLE, 1.0, 1.3, 0).log_magnitudes) == 2


def test_iterate_ratio_escaped_negative():
    # t = -1 is an attracting equilibrium here (phi'(-1) = 0.35)
    traj = iterate_ratio(Parameters(0.05, 2.5, 1.5, 0.05), -1.1, 200)
    assert traj.status == ESCAPED_NEGATIVE
    assert len(traj.values) == 201
    assert traj.values[-1] == pytest.approx(-1.0)


def test_solution_zero_guard_stop_keeps_ratios():
    # t_0 = 1e-110 is not 0, so x_0 has a log; but its cube underflows, so
    # the walk stops before phi is applied to it
    traj = iterate_solution(NEUTRAL_EXAMPLE, -1.0, -1e-110, 50)
    assert traj.status == STOPPED_DIVISION_BY_ZERO
    assert traj.ratios == iterate_ratio(NEUTRAL_EXAMPLE, 1e-110, 50).values == [1e-110]
    assert traj.log_magnitudes == [0.0, math.log10(1e-110)]
    assert traj.signs == [-1, -1]
    assert len(traj.log_magnitudes) == len(traj.signs) == len(traj.ratios) + 1


def test_solution_overflow_stops_logs_not_ratios():
    # d / t^3 overflows to inf at the first step, and inf maps to nan
    traj = iterate_solution(NEUTRAL_EXAMPLE, 1.0, 1e-105, 20)
    assert traj.status == OVERFLOWED_BUDGET
    assert len(traj.ratios) == 21
    assert traj.ratios[1] == math.inf
    assert traj.log_magnitudes == [0.0, -105.0]
    assert traj.signs == [1, 1]


def test_solution_logs_accumulate_ratios():
    traj = iterate_solution(UNIT_CYCLE_EXAMPLE, 2.0, 3.0, 40)
    assert traj.log_magnitudes[0] == pytest.approx(math.log10(2.0))
    assert traj.log_magnitudes[1] == pytest.approx(math.log10(3.0))
    for k, t in enumerate(traj.ratios):
        if k == 0:
            continue
        assert traj.log_magnitudes[k + 1] - traj.log_magnitudes[k] == pytest.approx(
            math.log10(abs(t)), abs=1e-12
        )


def test_solution_value_reconstruction_and_overflow():
    traj = iterate_solution(UNIT_CYCLE_EXAMPLE, 1.0, 3.0, 2000)
    assert traj.value(-1) == pytest.approx(1.0)
    assert traj.value(0) == pytest.approx(3.0)
    assert traj.value(1) == pytest.approx(3.0 * traj.ratios[1], rel=1e-12)
    # the orbit rides the outer cycle, gaining about a decade per step
    with pytest.raises(OverflowError):
        traj.value(2000)


def test_sign_symmetry():
    pos = iterate_solution(UNIT_CYCLE_EXAMPLE, 1.0, 3.0, 100)
    neg = iterate_solution(UNIT_CYCLE_EXAMPLE, -1.0, -3.0, 100)
    assert neg.ratios == pos.ratios
    assert neg.log_magnitudes == pos.log_magnitudes
    assert all(sn == -sp for sn, sp in zip(neg.signs, pos.signs))


def test_detect_limit_equilibrium():
    traj = RatioTrajectory([0.5] * 100, COMPLETED)
    rep = detect_ratio_limit(traj)
    assert rep.kind == "equilibrium"
    assert rep.values[0] == pytest.approx(0.5)


def test_detect_limit_two_cycle():
    traj = RatioTrajectory([0.25, 4.0] * 50, COMPLETED)
    rep = detect_ratio_limit(traj)
    assert rep.kind == "two_cycle"
    assert rep.values == pytest.approx((0.25, 4.0))


def test_detect_limit_none_on_wandering_tail():
    vals = [1.0 + 0.3 * math.sin(0.7 * k) for k in range(200)]
    assert detect_ratio_limit(RatioTrajectory(vals, COMPLETED)).kind == "none"


def test_detect_limit_short_trajectory():
    assert detect_ratio_limit(RatioTrajectory([1.0, 2.0], COMPLETED)).kind == "none"


def test_detect_limit_residual_is_the_largest_distance_from_the_mean():
    """The residual, taken from a tail's least and largest values, is the
    float that the largest |v - m| over the tail gives."""
    rng = random.Random(11)
    for _ in range(2000):
        centre = 10.0 ** rng.uniform(-300.0, 300.0) * rng.choice([1.0, -1.0])
        spread = 10.0 ** rng.uniform(-17.0, -9.0)
        kind = rng.choice(["equilibrium", "two_cycle"])
        other = centre * rng.uniform(0.1, 10.0) if kind == "two_cycle" else centre
        tail = [
            (other if k % 2 else centre) * (1.0 + spread * rng.uniform(-1.0, 1.0))
            for k in range(TAIL_WINDOW)
        ]
        rep = detect_ratio_limit(RatioTrajectory(tail, COMPLETED), 1e-8)
        if rep.kind == "equilibrium":
            halves = [tail]
        elif rep.kind == "two_cycle":
            halves = [tail[0::2], tail[1::2]]
        else:
            continue
        want = max(max(abs(v - sum(h) / len(h)) for v in h) for h in halves)
        assert rep.residual == want, tail


def test_empirical_diverging_orbit():
    assert (
        empirical_class(UNIT_CYCLE_EXAMPLE, 1.0, 3.0, 5000) == DIVERGES_TO_INFINITY
    )


def test_empirical_cycle_orbit():
    assert (
        empirical_class(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, 20000) == CONVERGES_TO_TWO_CYCLE
    )


def test_empirical_undetermined_on_slow_neutral_orbit():
    # ratios crawl to 1 like 1/sqrt(n); the solution grows only polynomially,
    # far too slowly to cross the divergence threshold in this budget
    assert empirical_class(NEUTRAL_EXAMPLE, 1.0, 1.5, 20000) == UNDETERMINED


def test_monotonicity_synthetic():
    n = 64
    inc = SolutionTrajectory(
        log_magnitudes=[0.01 * k for k in range(n)],
        signs=[1] * n,
        ratios=[1.0] * n,
        status=COMPLETED,
    )
    assert subsequence_monotonicity(inc, 1, 0) == INCREASING
    dec = SolutionTrajectory(
        log_magnitudes=[-0.01 * k for k in range(n)],
        signs=[1] * n,
        ratios=[1.0] * n,
        status=COMPLETED,
    )
    assert subsequence_monotonicity(dec, 1, 0) == DECREASING
    flat = SolutionTrajectory(
        log_magnitudes=[0.0] * n, signs=[1] * n, ratios=[1.0] * n, status=COMPLETED
    )
    assert subsequence_monotonicity(flat, 1, 0) == MIXED


def test_monotonicity_even_odd_split():
    # x alternates small/large while both subsequences grow
    logs = [0.01 * k + (0.5 if k % 2 else 0.0) for k in range(80)]
    traj = SolutionTrajectory(
        log_magnitudes=logs, signs=[1] * 80, ratios=[1.0] * 80, status=COMPLETED
    )
    assert subsequence_monotonicity(traj, 2, 0) == INCREASING
    assert subsequence_monotonicity(traj, 2, 1) == INCREASING


def test_empirical_zero_guard_stops():
    # t_0 = 1e-110 stops the walk before its first step: its cube is 0
    assert empirical_class(NEUTRAL_EXAMPLE, 1.0, 1e-110, 1000) == ITERATION_STOPS
    # the same, with the walked ratios given
    assert empirical_class(NEUTRAL_EXAMPLE, 1.0, 1e-110, values=[1e-110]) == ITERATION_STOPS
    # a ratio of exactly 0 stops a step later: x_1 = 0, and log10 |x_1| does
    # not exist
    assert empirical_class(ZERO_RATIO, 1.0, 1.0) == ITERATION_STOPS
    assert empirical_class(ZERO_RATIO, 1.0, 1.0, values=[1.0, 0.0]) == ITERATION_STOPS


def test_empirical_reads_no_trend_from_a_ratio_that_is_not_a_number():
    # x0 = 1e200 overflows the numerator and t^3 alike: the first ratio is
    # inf / inf = nan, and so is log10 |x_1|
    assert math.isnan(iterate_ratio(NEUTRAL_EXAMPLE, 1e200, 1).values[1])
    assert empirical_class(NEUTRAL_EXAMPLE, 1.0, 1e200) == UNDETERMINED
    # a ratio that overflows to inf still reads as divergence
    assert iterate_ratio(NEUTRAL_EXAMPLE, 1e-105, 1).values[1] == math.inf
    assert empirical_class(NEUTRAL_EXAMPLE, 1.0, 1e-105) == DIVERGES_TO_INFINITY


# starts the walk cannot take: not finite, or a t_0 = x0 / x_minus1 that
# overflows to inf (every later ratio is then nan) or underflows to 0
BAD_STARTS = [
    (1.0, math.inf), (math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0), (1.0, math.nan),
    (1e-300, 1e300), (1e300, 1e-300), (-1e-300, 1e300), (5e-324, 2.0),
]


def test_a_start_the_walk_cannot_take_is_rejected():
    for x_minus1, x0 in BAD_STARTS:
        with pytest.raises(ValueError, match="finite"):
            iterate_solution(NEUTRAL_EXAMPLE, x_minus1, x0, 10)
        with pytest.raises(ValueError, match="finite"):
            empirical_class(NEUTRAL_EXAMPLE, x_minus1, x0)
    for x_minus1, x0 in [(0.0, 1.0), (1.0, -0.0)]:
        with pytest.raises(ValueError, match="nonzero"):
            iterate_solution(NEUTRAL_EXAMPLE, x_minus1, x0, 10)
        with pytest.raises(ValueError, match="nonzero"):
            empirical_class(NEUTRAL_EXAMPLE, x_minus1, x0)
    # a subnormal t_0 is a start: the walk stops at it
    assert iterate_solution(NEUTRAL_EXAMPLE, 1.0, 5e-324, 10).status == STOPPED_DIVISION_BY_ZERO
    # the plain ratio walk takes the same starts
    for t0 in (math.inf, -math.inf, math.nan, 0.0, -0.0):
        with pytest.raises(ValueError, match="finite|nonzero"):
            iterate_ratio(NEUTRAL_EXAMPLE, t0, 3)
    assert iterate_ratio(NEUTRAL_EXAMPLE, 5e-324, 3).values == [5e-324]


def test_solution_stops_at_a_zero_ratio():
    for steps in (1, 10):
        traj = iterate_solution(ZERO_RATIO, 1.0, 1.0, steps)
        assert traj.status == STOPPED_DIVISION_BY_ZERO
        assert traj.ratios == [1.0, 0.0]
        # the logs stop before log10 |x_1| = log10 0
        assert traj.log_magnitudes == [0.0, 0.0]
        assert traj.signs == [1, 1]


def recording_checks(monkeypatch):
    """What the oracle reads at its chunk ends, in order: each
    ``("read", len(ratios), first, logs, negative)`` of
    simulate._chunk_read (a chunk's product, with the partial product at
    the step the trend looks back to where that lies in the chunk, or its
    first), each ``("apart", lm, last three ratios, decision)`` of the
    ratio pre-test (simulate._ratios_apart, once per chunk of TAIL_WINDOW
    ratios or more), and each ``("far", top, last, third, flip)`` of
    simulate._far, the window's own test, where it still runs."""
    module = sys.modules["ratiodyn.simulate"]
    read, apart, far, seen = module._chunk_read, module._ratios_apart, module._far, []

    def reading(ratios, first):
        out = read(ratios, first)
        seen.append(("read", len(ratios), first, *out))
        return out

    def pretest(lm, ratios, tol):
        out = apart(lm, ratios, tol)
        seen.append(("apart", lm, tuple(ratios[-3:]), out))
        return out

    def recording(top, last, third, flip, tol):
        seen.append(("far", top, last, third, flip))
        return far(top, last, third, flip, tol)

    monkeypatch.setattr(module, "_chunk_read", reading)
    monkeypatch.setattr(module, "_ratios_apart", pretest)
    monkeypatch.setattr(module, "_far", recording)
    return seen


# (params, x_minus1, x0, budget, tol): Example A, whose every window the
# pre-test finds apart, and Example B, whose 2-cycle tail it leaves to the
# window's own test, which settles it at step 512
READ_ORBITS = [(NEUTRAL_EXAMPLE, 2.0, 3.0, 5000, 1e-8), (UNIT_CYCLE_EXAMPLE, 2.0, 2.6, 5000, 1e-9)]


def test_empirical_reads_walked_ratios_as_it_would_walk_them(monkeypatch):
    seen = recording_checks(monkeypatch)
    for orbit in READ_ORBITS:
        reads_as_walked(seen, *orbit)


def reads_as_walked(seen, params, xm1, x0, budget, tol):
    """Check what the oracle read of one orbit against its trajectory, and
    that it reads the same floats from prefixes of the walk."""

    def checks(**kwargs):
        seen.clear()
        return empirical_class(params, xm1, x0, budget, tol, **kwargs), [*seen]

    walk = iterate_ratio(params, x0 / xm1, budget + 1000).values
    alone = checks()
    # the oracle's log10 |x_n / x_{-1}| come from chunk products, the
    # trajectory's log10 |x_n| from per-step sums, less log10 |x_{-1}| here;
    # |log10 |x_n|| stays under 3 here, so each errs by under
    # 5000 steps * 4 * 3 * 2^-53 < 1e-11, and the signs agree
    traj = iterate_solution(params, xm1, x0, budget)
    assert max(map(abs, traj.log_magnitudes)) < 3.0
    logs = [lm - math.log10(xm1) for lm in traj.log_magnitudes]  # x_n at index n + 1
    signs = traj.signs
    tests = [r for r in alone[1] if r[0] == "apart"]
    ends = [*range(256, budget, 256), budget][: len(tests)]
    # each chunk is read from its product, and the partial product at the
    # step the trend looks back to, or its first, at the start of its records
    reads = [alone[1][alone[1].index(r) - 1] for r in tests]
    lag = sys.modules["ratiodyn.simulate"]._trend_lag
    for d, c, (_, lm, last3, _), (_, size, first, (lb, lp), negative) in zip(
        [0, *ends], ends, tests, reads
    ):
        assert (size, first) == (c - d, max(0, c - lag(c + 1) - d - 1)), c
        assert abs(lm - logs[d + 1]) < 1e-11 and abs(lm + lp - logs[c + 1]) < 1e-11, c
        assert abs(lm + lb - logs[d + first + 2]) < 1e-11, c
        assert last3 == tuple(walk[c - 2 : c + 1]), c
        assert negative == (signs[c + 1] != signs[d + 1]), c
    fars = [r for r in alone[1] if r[0] == "far"]
    if params is NEUTRAL_EXAMPLE:
        assert alone[0] == UNDETERMINED and len(tests) == 20
        assert all(r[3] for r in tests) and fars == []
    else:
        assert alone[0] == CONVERGES_TO_TWO_CYCLE and ends[-1] == 512
        # the window's test runs at the chunk ends the pre-test leaves to it
        far_ends = [c for c, r in zip(ends, tests) if not r[3]]
        assert len(fars) == len(far_ends) > 0
        for c, (_, top, last, third, flip) in zip(far_ends, fars):
            assert abs(top - max(logs[c - 62 : c + 2])) < 1e-11, c
            assert abs(last - logs[c + 1]) < 1e-11 and abs(third - logs[c - 1]) < 1e-11, c
            assert flip == (signs[c + 1] != signs[c - 1]), c
    # prefixes that end inside a chunk, on its boundary, and past the
    # budget give the same floats at every check
    for k in (1, 2, 200, 256, 257, 700, budget + 1, budget + 1001):
        assert checks(values=walk[:k]) == alone, k
        assert checks(values=array("d", walk[:k])) == alone, k


@pytest.mark.parametrize("check", [256, 768], ids=["in_the_read_window", "before_it"])
def test_the_trend_looks_back_its_exact_lag(check):
    """|x_n| sits above 1e12 and shrinks by 1e-6 a step, but for one ratio
    of 10: the trend at a check rises only where that ratio comes after the
    step it looks back to.  At 256 that step lies in the chunk just read,
    at 768 in the one before it."""
    back = check - sys.modules["ratiodyn.simulate"]._trend_lag(check + 1)
    for step, want in [(back + 1, DIVERGES_TO_INFINITY), (back, UNDETERMINED)]:
        values = [1e13] + [1.0 - 1e-6] * 1000
        values[step] = 10.0
        assert empirical_class(None, 1.0, 1e13, 1000, values=values) == want, step


def test_a_budget_that_is_not_an_integer_is_rejected():
    for budget in (1e5, 2000.0, "2000"):
        with pytest.raises(TypeError, match="budget"):
            empirical_class(NEUTRAL_EXAMPLE, 1.0, 1.5, budget)
    with pytest.raises(ValueError, match="budget"):
        empirical_class(NEUTRAL_EXAMPLE, 1.0, 1.5, 999)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, -math.inf])
def test_a_tail_tolerance_that_cannot_work_is_rejected(tol):
    # this orbit converges to a 2-cycle; at tol = inf the oracle once read
    # it as settling on an equilibrium, and the detector a 2-cycle tail
    assert empirical_class(UNIT_CYCLE_EXAMPLE, 1.0, 1.0) == CONVERGES_TO_TWO_CYCLE
    with pytest.raises(ValueError, match="tol"):
        empirical_class(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        detect_ratio_limit(RatioTrajectory([1.0, 2.0] * 32, COMPLETED), tol)


def test_a_tail_without_a_finite_mean_does_not_settle():
    # an infinity, a NaN, or a sum that overflows; each once read as an
    # equilibrium at inf or nan at a positive tol
    tails = [
        [1.0] * 63 + [math.inf], [math.inf] + [1.0] * 63,
        [1.0, 2.0] * 31 + [math.inf, 1.0], [1e308] * 64, [2.0] + [math.nan] * 63,
    ]
    for tail in tails:
        for tol in (0.0, 1e-8, 0.2, 1e300):
            report = detect_ratio_limit(RatioTrajectory(tail, COMPLETED), tol)
            assert report.kind == "none", (tail, tol)


def test_the_detector_skips_a_tail_whose_last_values_lie_apart():
    module = sys.modules["ratiodyn.simulate"]
    assert module._far_apart(1.0, 1.0 + 1e-7, 1e-8)
    assert not module._far_apart(1.0, 1.0 + 1e-8, 1e-8)
    assert module._far_apart(-3.0, 3.0, 0.2) and not module._far_apart(-3.0, 3.0, 0.25)
    assert module._far_apart(1.0, math.nextafter(1.0, 2.0), 0.0)
    assert not module._far_apart(1.0, 1.0, 0.0)
    assert not module._far_apart(math.nan, 1.0, 1e-8) and not module._far_apart(1.0, math.nan, 1e-8)
    assert not module._far_apart(math.inf, 1.0, 1e-8) and not module._far_apart(math.inf, 1.0, 0.0)


@st.composite
def tails_near_the_reject_bound(draw):
    """(tail, tol): 64 ratios whose last value t and third-to-last s lie a
    few ulps either side of the reject's bound on |t - s|, or of the
    thresholds of the detector's own tests, from subnormal to 1e300 in
    size and of mixed signs."""
    tol = draw(st.sampled_from([0.0, 5e-324, 1e-8, 0.2]))
    t = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-320.0, 300.0))
    w = max(1.0, abs(t))
    pad = 1.0 + 2.0 ** -40
    gap = draw(st.sampled_from([
        tol * (w * pad / (1.0 - tol * pad)), tol * w, tol * w / (1.0 - tol),
    ]))
    for _ in range(draw(st.integers(0, 4))):
        gap = math.nextafter(gap, draw(st.sampled_from([0.0, math.inf])))
    # s on either side of t, which may cross 0
    s = t + draw(st.sampled_from([1.0, -1.0])) * gap
    for _ in range(draw(st.integers(0, 2))):
        s = math.nextafter(s, draw(st.sampled_from([-math.inf, math.inf])))
    lo, hi = min(t, s), max(t, s)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    layout = draw(st.sampled_from(["far", "between", "cycle"]))
    if layout == "far":  # the rest of the tail at s: its mean as far from t as can be
        rest = [s] * 62
    else:
        units = [rng.random() for _ in range(62)]
        rest = [lo + (hi - lo) * u for u in units]
    odd = rest[:30] + [s, t]
    even = rest[30:]
    if layout == "cycle":  # the even half sits elsewhere, and settles
        centre = t * draw(st.floats(-10.0, 10.0))
        even = [centre * (1.0 + tol * (u - 0.5)) for u in units[:32]]
    tail = [v for pair in zip(even, odd) for v in pair]
    assert tail[-1] == t and tail[-3] == s
    return tail, tol


@given(tails_near_the_reject_bound())
@settings(max_examples=500, deadline=None)
def test_the_reject_changes_no_report(case):
    tail, tol = case
    module = sys.modules["ratiodyn.simulate"]
    traj = RatioTrajectory(tail, COMPLETED)
    live = detect_ratio_limit(traj, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_far_apart", lambda t, s, tol: False)
        full = detect_ratio_limit(traj, tol)
    assert repr(live) == repr(full)


def test_empirical_budget_validation():
    with pytest.raises(ValueError):
        empirical_class(NEUTRAL_EXAMPLE, 1.0, 1.0, 10)
    # walked ratios must start at t_0 = x0 / x_minus1
    walked = iterate_ratio(NEUTRAL_EXAMPLE, 1.5, 300).values
    with pytest.raises(ValueError, match="x0 / x_minus1"):
        empirical_class(NEUTRAL_EXAMPLE, 1.0, 2.0, values=walked)
    with pytest.raises(ValueError, match="x0 / x_minus1"):
        empirical_class(NEUTRAL_EXAMPLE, 1.0, 1.5, values=walked[1:])
    with pytest.raises(ValueError, match="x0 / x_minus1"):
        empirical_class(NEUTRAL_EXAMPLE, 1.0, 1.5, values=[])


# from (1, x0) the floats of this orbit close on a cycle of period 52
PERIOD_52 = Parameters(
    1.0391039260950152, 1.4580025639722296, -2.342664582102998, 0.551781655299783
)
PERIOD_52_X0 = 4.568629937311743


def test_closed_period_edge_cases():
    # NaN equals nothing, not even the one NaN object a list may repeat
    assert closed_period([1.0, math.nan, math.nan]) is None
    assert closed_period([math.nan] * 3) is None
    # an inf is followed by NaN, never by an orbit
    assert closed_period([2.0, math.inf, 2.0, math.inf]) is None
    assert closed_period([1.5]) is None
    # the least period, up to TAIL_WINDOW and no further
    assert closed_period([1.0, 2.0, 1.0, 2.0, 1.0]) == 2
    assert closed_period(array("d", range(TAIL_WINDOW)) * 2) == TAIL_WINDOW
    assert closed_period(array("d", range(TAIL_WINDOW + 1)) * 2) is None


def test_a_start_that_recurs_closes():
    walk = iterate_ratio(UNIT_CYCLE_EXAMPLE, 3.0, 200).values
    k = closed_period(walk)
    assert k == 6
    # from a point of the float cycle, t_k is t_0 again
    again = iterate_ratio(UNIT_CYCLE_EXAMPLE, walk[-1], k).values
    assert again[-1] == again[0]
    assert closed_period(again) == k


def walk_in_chunks(params, walked, sizes):
    """``walked`` and the ratios ``walk_on`` gives after it, in chunks of the
    given sizes, each call seeing every ratio before it; the period it
    returned after each chunk; and whether the walk stopped."""
    walked, k, periods, stopped = list(walked), None, [], False
    for n in sizes:
        ratios, k, stopped = walk_on(params, walked, n, k)
        assert len(ratios) == n or stopped
        walked += ratios
        periods.append(k)
        if stopped:
            break
    return walked, periods, stopped


# chunk sizes that do not divide 52, and 52 itself
SIZES = [1, 5, 51, 52, 53, 100, 256] * 5


def test_walk_on_replays_a_closed_orbit_as_the_map_walks_it(monkeypatch):
    plain = iterate_ratio(PERIOD_52, PERIOD_52_X0, 2 * sum(SIZES)).values
    walked, periods, stopped = walk_in_chunks(PERIOD_52, [PERIOD_52_X0], SIZES)
    assert walked == plain[: len(walked)] and not stopped
    # it closes once, on the period 52, and keeps it
    first = periods.index(52)
    assert periods[:first] == [None] * first and set(periods[first:]) == {52}
    # once closed it replays a list or an array, in its type, without the map
    module = sys.modules["ratiodyn.simulate"]
    monkeypatch.setattr(module, "advance_ratio", None)
    end = sum(SIZES[: first + 1]) + 1
    for walked in (plain[:end], array("d", plain[:end])):
        for n in SIZES:
            ratios, k, stopped = walk_on(PERIOD_52, walked, n, 52)
            assert (type(ratios), k, stopped) == (type(walked), 52, False)
            walked += ratios
        assert list(walked) == plain[: len(walked)]
    # a given period is not looked for again: walked[-k:] starts over
    assert walk_on(None, [7.0, 1.0, 2.0, 3.0], 5, 2)[0] == [2.0, 3.0, 2.0, 3.0, 2.0]


def test_walk_on_walks_an_orbit_that_never_closes():
    plain = iterate_ratio(NEUTRAL_EXAMPLE, 1.5, sum(SIZES)).values
    walked, periods, stopped = walk_in_chunks(NEUTRAL_EXAMPLE, [1.5], SIZES)
    assert walked == plain and not stopped
    assert periods == [None] * len(SIZES)
    # the walk goes on from the last ratio of an array too
    ratios, k, stopped = walk_on(NEUTRAL_EXAMPLE, array("d", plain[:300]), 200)
    assert (ratios, k, stopped) == (plain[300:500], None, False)


def test_walk_on_stops_at_a_ratio_whose_cube_is_0():
    # 1e-110 cubes to 0, so no step is taken from it
    assert walk_on(NEUTRAL_EXAMPLE, [1e-110], 10) == ([], None, True)
    assert walk_in_chunks(NEUTRAL_EXAMPLE, [1.0, 1e-110], SIZES) == ([1.0, 1e-110], [None], True)
    # a ratio of exactly 0 is reached, and the walk stops after it
    assert walk_on(ZERO_RATIO, [1.0], 10) == ([0.0], None, True)
    assert walk_in_chunks(ZERO_RATIO, [1.0], SIZES)[0] == iterate_ratio(ZERO_RATIO, 1.0, 10).values


# (params, x0, period): from (1, x0) the oracle's own walk closes on a float
# cycle within 27 to 212 steps, and replays it for 8000 to 20000 more
LONG_REPLAYS = [
    (Parameters(1.523822121080855, 0.3801917485221793, -1.8637183729781555, 0.9604127481570914),
     1.9015858753781685, 1),
    (Parameters(1.0651005347469038, 0.9182086720406489, -2.26822755359521, 1.28758522395854),
     4.802892691631132, 2),
    (Parameters(1.652554301323255, 0.7308443235593814, -4.140564820306395, 2.4538792647061287),
     2.0208358596165454, 6),
]


def test_empirical_replay_gives_the_walked_answer(monkeypatch):
    module = sys.modules["ratiodyn.simulate"]
    closed, periods = module.closed_period, []
    seen = recording_checks(monkeypatch)

    def spy(ratios):
        periods.append(closed(ratios))
        return periods[-1]

    def answers(params, x0):
        """The oracle's answers, and what its checks decided from at each
        chunk end, from starts with t_0 = x0 and from prefixes of the walk
        that end before it closes, inside an oracle chunk after that, and
        on a chunk boundary.  A replayed chunk's product is read once per
        phase, so the products' logs are compared through the log each
        chunk starts from, which the pre-test records."""
        walk = iterate_ratio(params, x0, 3000).values
        starts = [(1.0, x0, None), (2.0, 2.0 * x0, None), (-1.0, -x0, None)]
        starts += [(1.0, x0, walk[:k]) for k in (20, 2500, 2561)]
        out = []
        for xm1, y0, values in starts:
            for budget, tol in [(100000, 1e-8), (5000, 1e-15), (20000, 0.0)]:
                seen.clear()
                answer = empirical_class(params, xm1, y0, budget, tol, values=values)
                out.append((answer, [r for r in seen if r[0] != "read"]))
        return out

    # past closure each chunk phase is read once and replayed; the floats
    # it reads are those of the walk that applies the map throughout
    monkeypatch.setattr(module, "closed_period", spy)
    replayed = [answers(params, x0) for params, x0, _ in LONG_REPLAYS]
    assert {k for k in periods if k} == {k for _, _, k in LONG_REPLAYS}
    # the pre-test reads each chunk's start
    assert any(records for runs in replayed for _, records in runs)
    monkeypatch.setattr(module, "closed_period", lambda ratios: None)
    assert [answers(params, x0) for params, x0, _ in LONG_REPLAYS] == replayed


# a tiny-a set whose ratio orbit reaches the 2-cycle {1e-35, 2e104}, of
# product 2e69; the kernel's cube of 2e104 overflows, and the walk stops
# at the 0 after it (ROADMAP item 11)
TINY_A_CYCLE = Parameters(1e-35, 0.3, -3.0, 0.2)


def test_a_product_that_leaves_the_normal_floats_keeps_its_exponent(monkeypatch):
    walk = iterate_ratio(TINY_A_CYCLE, 0.5, 20).values
    assert walk[-3:] == [1e-35, 2.0000000000000003e104, 0.0]
    # the walk as a ratio step that does not overflow would go on: the
    # 2-cycle, whose partial products pass 1e308 within the first chunk
    q = walk[-2]
    p = TINY_A_CYCLE.a + (TINY_A_CYCLE.b + (TINY_A_CYCLE.c + TINY_A_CYCLE.d / q) / q) / q
    assert p == 1e-35
    over = walk[:-1] + [p, q] * 600
    # and ratios whose running product falls below 2^-1022 and back
    dip = [1.0] + [1.1, 0.9] * 600
    dip[10:14] = [1e-160, 1e-160, 1e160, 1e160]
    module = sys.modules["ratiodyn.simulate"]
    frexp, rescaled = math.frexp, []
    monkeypatch.setattr(math, "frexp", lambda x: rescaled.append(x) or frexp(x))
    u = 2.0 ** -53
    # the plain product overflows, or keeps a normal float but has lost
    # digits below 2^-1022 on the way
    assert abs(math.prod(over[1:257])) == math.inf
    assert sys.float_info.min < math.prod(dip[1:257]) < 1.0 and 0.0 < 1e-160 * 1e-160 < sys.float_info.min
    for values in (over, dip):
        chunk = values[1:257]
        # the O(1) test declines both: the product overflows, and the dip
        # chunk's H * H is inf (H ** 2 would raise OverflowError)
        assert fast_read(chunk, 0) is None
        logs, negative = module._partial_logs(chunk, 0)
        assert rescaled  # the frexp path
        # within the roundings of 256 products and of the per-step logs
        steps = [math.log10(abs(t)) for t in chunk]
        for j, lp in enumerate(logs):
            exact = math.fsum(steps[: j + 1])
            assert abs(lp - exact) <= 8 * u * (j + 1 + math.fsum(map(abs, steps[: j + 1]))), j
        assert negative == (sum(t < 0.0 for t in chunk) % 2 == 1)
        rescaled.clear()
    assert empirical_class(TINY_A_CYCLE, 1.0, 0.5, 1000, values=over) == DIVERGES_TO_INFINITY
    assert empirical_class(None, 1.0, 1.0, 1000, values=dip) == UNDETERMINED


def fast_read(ratios, first):
    """simulate._chunk_read's read where its O(1) test proves every partial
    product normal, else None: where it falls back to _partial_logs."""
    module = sys.modules["ratiodyn.simulate"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_partial_logs", lambda ratios, first, every=True: None)
        return module._chunk_read(ratios, first)


def test_a_chunk_near_one_is_read_by_the_o1_test():
    module = sys.modules["ratiodyn.simulate"]
    walk = iterate_ratio(NEUTRAL_EXAMPLE, 1.5, 1000).values
    for d in (0, 256, 512):
        chunk = walk[d + 1 : d + 257]
        for first in (0, 100, 255):
            read = fast_read(chunk, first)
            assert read is not None, (d, first)
            assert read == module._partial_logs(chunk, first, every=False)


@st.composite
def product_chunks(draw):
    """(ratios, first) for a chunk of 1 to 256 finite nonzero ratios of
    random signs: sizes log-uniform over a drawn range within [1e-300,
    1e300], narrow enough near 1 for the O(1) test to pass, or a run whose
    product dips below 2^-1022 and comes back."""
    n = draw(st.integers(1, 256))
    if draw(st.booleans()):
        centre = draw(st.floats(-300.0, 300.0) | st.floats(-1.0, 1.0))
        width = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 2.0, 20.0, 600.0]))
        lo, hi = max(-300.0, centre - width / 2), min(300.0, centre + width / 2)
        exps = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    else:
        # down past 2^-1022 (10^-307.65) over k ratios, and back up over m
        # by as little as a few decades, the closest a dip comes to passing
        # the test, or by as much; ratios near 1 go before, between or after
        down, up = draw(st.floats(307.7, 330.0)), draw(st.floats(0.0, 340.0))
        k, m = draw(st.integers(2, 120)), draw(st.integers(math.ceil(up / 300.0) or 1, 120))
        exps = [-down / k] * k + [up / m] * m
        exps[draw(st.integers(0, len(exps))) : 0] = draw(
            st.lists(st.floats(-0.5, 0.5), max_size=256 - len(exps))
        )
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(exps), max_size=len(exps)))
    ratios = [s * 10.0 ** e for s, e in zip(signs, exps)]
    return ratios, draw(st.integers(0, len(ratios) - 1))


@given(product_chunks())
@settings(max_examples=400, deadline=None)
def test_the_o1_read_passes_only_chunks_whose_partial_products_stay_normal(chunk):
    ratios, first = chunk
    read = fast_read(ratios, first)
    if read is not None:
        assert all(sys.float_info.min <= abs(p) < math.inf for p in accumulate(ratios, mul))
        assert read == sys.modules["ratiodyn.simulate"]._partial_logs(ratios, first, every=False)


def window_from(xs):
    """(logs, signs) as the oracle keeps them, for a window of 2 TAIL_WINDOW
    values: xs twice over."""
    xs = list(xs) * 2
    return [math.log10(abs(x)) for x in xs], [1 if x > 0 else -1 for x in xs]


def settles_without_precheck(logs, signs, tol):
    module = sys.modules["ratiodyn.simulate"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_apart", lambda logs, signs, tol: False)
        return module._stabilized(logs, signs, tol)


def test_precheck_skips_a_tail_that_moves():
    module = sys.modules["ratiodyn.simulate"]
    cycle = [0.25, 4.0] * (TAIL_WINDOW // 2)
    assert not module._apart(*window_from(cycle), 1e-9)
    assert module._stabilized(*window_from(cycle), 1e-9) == CONVERGES_TO_TWO_CYCLE
    moving = [1.0 + 1e-6 * k for k in range(TAIL_WINDOW)]
    assert module._apart(*window_from(moving), 1e-9)
    # the whole window spreads by 6.3e-5, x[-1] and x[-3] by 2e-6
    assert not module._apart(*window_from(moving), 1e-6)
    assert module._stabilized(*window_from(moving), 1e-4) == CONVERGES_TO_EQUILIBRIUM


def test_precheck_allows_for_the_rounding_of_pow():
    # two adjacent floats whose powers of 10 are one float, while
    # 10^(l1 - l3) reads 1 - 1.1e-16: the window settles at tol = 0
    l1, l3 = 0.22876222127045265, 0.22876222127045268
    assert math.nextafter(l1, 1.0) == l3 and 10.0 ** l1 == 10.0 ** l3
    logs = [l1] * (2 * TAIL_WINDOW)
    logs[-3] = l3
    signs = [1] * len(logs)
    module = sys.modules["ratiodyn.simulate"]
    assert not module._apart(logs, signs, 0.0)
    assert module._stabilized(logs, signs, 0.0) == CONVERGES_TO_EQUILIBRIUM


@st.composite
def near_settling_windows(draw):
    """(logs, signs, tol) for an equilibrium or 2-cycle window whose halves
    spread by about tol, from 1e-200 to 1e200 in size, of mixed signs."""
    tol = draw(st.sampled_from([1e-6, 1e-9, 1e-15, 0.0]))
    even = draw(st.floats(-200.0, 200.0))
    # the odd half sits up to 30 decades away, or on the even half
    odd = min(200.0, max(-200.0, even + draw(st.just(0.0) | st.floats(-30.0, 30.0))))
    # a spread within 20% of tol, or a wider one that the precheck can skip
    spread = tol * draw(st.floats(0.8, 1.2) | st.floats(1.2, 4.0))
    offsets = draw(st.lists(st.floats(-0.5, 0.5), min_size=TAIL_WINDOW, max_size=TAIL_WINDOW))
    if draw(st.booleans()):  # the extremes at x[-3] and x[-1]
        offsets[-3], offsets[-1] = draw(st.permutations([-0.5, 0.5]))
    half_signs = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    flipped = draw(st.sets(st.integers(0, TAIL_WINDOW - 1), max_size=2))
    xs = [
        half_signs[i % 2] * (-1 if i in flipped else 1)
        * 10.0 ** (odd if i % 2 else even) * (1.0 + spread * off)
        for i, off in enumerate(offsets)
    ]
    return (*window_from(xs), tol)


@given(near_settling_windows())
@settings(max_examples=400, deadline=None)
def test_precheck_skips_only_tails_that_cannot_settle(window):
    logs, signs, tol = window
    module = sys.modules["ratiodyn.simulate"]
    if module._apart(logs, signs, tol):
        assert settles_without_precheck(logs, signs, tol) is None


@st.composite
def near_settling_chunks(draw):
    """(lm, ratios, tol) for a chunk of ORACLE_CHUNK ratios that starts at
    log10 |x| = lm and whose last values near an equilibrium or a 2-cycle,
    as near_settling_windows, from 1e-200 to 1e200 in size and up to 100
    decades from |x| at the start, of mixed signs."""
    module = sys.modules["ratiodyn.simulate"]
    tol = draw(st.sampled_from([0.1, 1e-6, 1e-9, 1e-15, 0.0]))
    # near 1, where the logs err least and values an ulp apart can convert
    # to one float
    even = draw(st.floats(-1.0, 1.0) | st.floats(-200.0, 200.0))
    # the odd half sits up to 30 decades away, or on the even half
    odd = min(200.0, max(-200.0, even + draw(st.just(0.0) | st.floats(-30.0, 30.0))))
    # a spread within 20% of tol, a wider one the pre-test can skip, or
    # one of a few ulps, which only tol = 0 can tell
    spread = draw(
        st.floats(0.8, 1.2).map(lambda f: tol * f)
        | st.floats(1.2, 4.0).map(lambda f: tol * f)
        | st.sampled_from([0.0, 2.0 ** -52, 2.0 ** -51, 2.0 ** -50])
    )
    # a half may also spread by tol times the other's size, where that is
    # the larger: a 2-cycle test that scales by the other half can pass
    widen = draw(st.booleans())
    spreads = [
        min(0.5, spread * 10.0 ** max(0.0, other - mine)) if widen else spread
        for mine, other in ((even, odd), (odd, even))
    ]
    size = module.ORACLE_CHUNK
    # the window's last TAIL_WINDOW values vary, the steps before sit still
    offsets = [0.0] * (size - TAIL_WINDOW) + draw(
        st.lists(st.floats(-0.5, 0.5), min_size=TAIL_WINDOW, max_size=TAIL_WINDOW)
    )
    # the extremes at the last two values of one half
    last = draw(st.sampled_from([None, -1, -2]))
    if last is not None:
        offsets[last - 2], offsets[last] = draw(st.permutations([-0.5, 0.5]))
    half_signs = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    flipped = draw(st.sets(st.integers(size - 6, size - 1), max_size=2))
    xs = [
        half_signs[i % 2] * (-1 if i in flipped else 1)
        * 10.0 ** (odd if i % 2 else even) * (1.0 + spreads[i % 2] * off)
        for i, off in enumerate(offsets)
    ]
    lm = even + draw(st.just(0.0) | st.floats(-100.0, 100.0))
    # the first ratio takes |x| from 10^lm to 10^even: the chunk's values
    # are xs times 10^even / xs[0]
    ratios = [10.0 ** (even - lm)] + [x / w for x, w in zip(xs[1:], xs)]
    return lm, ratios, tol


@given(near_settling_chunks())
@settings(max_examples=400, deadline=None)
def test_the_ratio_pretest_skips_only_tails_that_cannot_settle(chunk):
    lm, ratios, tol = chunk
    module = sys.modules["ratiodyn.simulate"]
    logs, signs = module._window([(0, lm, 1, ratios)])
    if module._ratios_apart(lm, ratios, tol):
        assert settles_without_precheck(logs, signs, tol) is None


def test_a_chunk_read_logs_only_what_a_check_reads(monkeypatch):
    """A chunk's read takes the logs of two of its partial products, the
    same floats _partial_logs gives for every step from the first of them,
    and the product up to a step is the partial product there.  A check
    that returns on the 12-decade test reads no window."""
    module = sys.modules["ratiodyn.simulate"]
    rng = random.Random(43)
    chunks = [
        [rng.uniform(0.5, 2.0) for _ in range(256)],
        [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) for _ in range(256)],
        [rng.uniform(0.9, 1.1) for _ in range(40)],
        [1e-35, 2e104] * 128,  # the frexp path
    ]
    for chunk in chunks:
        logs, negative = module._partial_logs(chunk, 0)
        for first in {len(chunk) - 1, max(0, len(chunk) - TAIL_WINDOW), len(chunk) // 2}:
            assert module._partial_logs(chunk, first) == (logs[first:], negative)
            two = module._partial_logs(chunk, first, every=False)
            assert two == ([logs[first], logs[-1]], negative)
        for j in (0, 1, len(chunk) // 3, len(chunk) - 2):
            assert module._partial_logs(chunk[: j + 1], j)[0] == [logs[j]]
    seen = recording_checks(monkeypatch)
    windows = []
    real = module._window
    monkeypatch.setattr(module, "_window", lambda recent: windows.append(1) or real(recent))
    # |x_n| passes 12 decades within the first chunk: its one read takes
    # two logs, at its end and at the step the trend looks back to, and no
    # window is read
    ones = Parameters(1.0, 1.0, 1.0, 1.0)
    assert empirical_class(ones, 1.0, 1.5) == DIVERGES_TO_INFINITY
    back = 255 - module._trend_lag(257)
    assert [(r[:3], len(r[3])) for r in seen] == [(("read", 256, back), 2)]
    assert windows == []
    # a bounded orbit reads its windows
    assert empirical_class(UNIT_CYCLE_EXAMPLE, 1.0, 1.3, 2000, 1e-9) == CONVERGES_TO_TWO_CYCLE
    assert windows
