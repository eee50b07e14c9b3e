import math
import sys
from array import array

import pytest

from ratiodyn.outcomes import (
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
    detect_ratio_limit,
    empirical_class,
    iterate_ratio,
    iterate_solution,
    subsequence_monotonicity,
)

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
