import math
import sys
from array import array

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
    replay,
    subsequence_monotonicity,
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
    # an absurdly large guard forces the stop immediately
    traj = iterate_ratio(UNIT_CYCLE_EXAMPLE, 1.0, 10, zero_guard=10.0)
    assert traj.status == HIT_ZERO
    assert traj.values == [1.0]
    # 1e-110 passes the default guard, but its cube underflows to 0
    traj = iterate_ratio(NEUTRAL_EXAMPLE, 1e-110, 10)
    assert traj.status == HIT_ZERO
    assert traj.values == [1e-110]


def test_iterate_ratio_escaped_negative():
    # t = -1 is an attracting equilibrium here (phi'(-1) = 0.35)
    traj = iterate_ratio(Parameters(0.05, 2.5, 1.5, 0.05), -1.1, 200)
    assert traj.status == ESCAPED_NEGATIVE
    assert len(traj.values) == 201
    assert traj.values[-1] == pytest.approx(-1.0)


def test_solution_zero_guard_stop_keeps_ratios():
    # the odd ratios fall 0.89, 0.886, 0.882, 0.878: the guard 0.88 stops at
    # step 7, before phi is applied to the ratio under it
    traj = iterate_solution(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, 50, zero_guard=0.88)
    assert traj.status == STOPPED_DIVISION_BY_ZERO
    assert traj.ratios == iterate_ratio(UNIT_CYCLE_EXAMPLE, 1.0, 50, zero_guard=0.88).values
    assert len(traj.ratios) == 8
    assert abs(traj.ratios[-1]) < 0.88 <= min(abs(t) for t in traj.ratios[:-1])
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
    assert empirical_class(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, 1000, zero_guard=10.0) == ITERATION_STOPS
    # a stop inside the first block of steps, before any evidence is checked
    assert empirical_class(UNIT_CYCLE_EXAMPLE, 1.0, 1.0, 1000, zero_guard=0.88) == ITERATION_STOPS
    # a ratio of exactly 0 stops too: x_1 = 0, and log10 |x_1| does not exist
    assert empirical_class(ZERO_RATIO, 1.0, 1.0) == ITERATION_STOPS


def test_solution_stops_at_a_zero_ratio():
    for steps in (1, 10):
        traj = iterate_solution(ZERO_RATIO, 1.0, 1.0, steps)
        assert traj.status == STOPPED_DIVISION_BY_ZERO
        assert traj.ratios == [1.0, 0.0]
        # the logs stop before log10 |x_1| = log10 0
        assert traj.log_magnitudes == [0.0, 0.0]
        assert traj.signs == [1, 1]


def test_empirical_reads_walked_ratios_as_it_would_walk_them(monkeypatch):
    module = sys.modules["ratiodyn.simulate"]
    stabilized = module._stabilized

    def checks(**kwargs):
        """What the oracle decides on at each chunk: the step count, the last
        log10 |x_n| and the last sign."""
        seen = []

        def recording(logs, signs, tol):
            seen.append((len(logs), logs[-1], signs[-1]))
            return stabilized(logs, signs, tol)

        monkeypatch.setattr(module, "_stabilized", recording)
        return empirical_class(NEUTRAL_EXAMPLE, 2.0, 3.0, 5000, **kwargs), seen

    walk = iterate_ratio(NEUTRAL_EXAMPLE, 1.5, 6000).values
    alone = checks()
    assert alone[0] == UNDETERMINED and len(alone[1]) == 5000 // 256 + 1
    # the oracle's logs start at x_0, the trajectory's at x_{-1}
    traj = iterate_solution(NEUTRAL_EXAMPLE, 2.0, 3.0, 5000)
    assert alone[1] == [(n, traj.log_magnitudes[n], traj.signs[n]) for n, _, _ in alone[1]]
    # prefixes that end inside a chunk, on its boundary, and past the budget
    for k in (1, 2, 200, 256, 257, 700, 5001, 6001):
        assert checks(values=walk[:k]) == alone, k
        assert checks(values=array("d", walk[:k])) == alone, k


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


def test_replay_continues_the_walk_across_chunks():
    walk = iterate_ratio(PERIOD_52, PERIOD_52_X0, 4000).values
    end = next(j for j in range(2, len(walk)) if closed_period(walk[:j]))
    k = closed_period(walk[:end])
    assert k == 52
    cycle = walk[end - k : end]
    # chunk sizes that do not divide k, and k itself, from list and array
    for cyc in (cycle, array("d", cycle)):
        rest = []
        for n in [1, 5, 51, 52, 53, 100, 256] * 5:
            rest.extend(replay(cyc, len(rest), n))
        assert end + len(rest) <= len(walk)
        assert rest == walk[end : end + len(rest)]


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
    closed, stabilized = module.closed_period, module._stabilized
    periods, seen = [], []

    def spy(ratios):
        periods.append(closed(ratios))
        return periods[-1]

    def recording(logs, signs, tol):
        seen.append((len(logs), logs[-1], signs[-1]))
        return stabilized(logs, signs, tol)

    def answers(params, x0):
        """The oracle's answers, and the last log10 |x_n| and sign at each
        chunk, from starts with t_0 = x0 and from prefixes of the walk that
        end before it closes, inside an oracle chunk after that, and on a
        chunk boundary."""
        walk = iterate_ratio(params, x0, 3000).values
        starts = [(1.0, x0, None), (2.0, 2.0 * x0, None), (-1.0, -x0, None)]
        starts += [(1.0, x0, walk[:k]) for k in (20, 2500, 2561)]
        out = []
        for xm1, y0, values in starts:
            for budget, tol in [(100000, 1e-8), (5000, 1e-15), (20000, 0.0)]:
                seen.clear()
                answer = empirical_class(params, xm1, y0, budget, tol, values=values)
                out.append((answer, [*seen]))
        return out

    monkeypatch.setattr(module, "_stabilized", recording)
    monkeypatch.setattr(module, "closed_period", spy)
    replayed = [answers(params, x0) for params, x0, _ in LONG_REPLAYS]
    monkeypatch.setattr(module, "closed_period", lambda ratios: None)
    assert [answers(params, x0) for params, x0, _ in LONG_REPLAYS] == replayed
    assert {k for k in periods if k} == {k for _, _, k in LONG_REPLAYS}


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
