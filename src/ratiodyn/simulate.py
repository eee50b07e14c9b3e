"""Brute-force iteration of both equations, with log-space magnitude tracking.

Solution magnitudes accumulate as log10 |x_n| (the ratio cycle with points
near 760 drives |x_n| across hundreds of orders of magnitude before any trend
is readable); direct-space values are reconstructed only on demand.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, islice, takewhile

from .outcomes import (
    CONVERGES_TO_EQUILIBRIUM,
    CONVERGES_TO_TWO_CYCLE,
    CONVERGES_TO_ZERO,
    DIVERGES_TO_INFINITY,
    ITERATION_STOPS,
    UNDETERMINED,
)
from .ratio_map import Parameters
from .tolerances import (
    DEFAULT_BUDGET, DEFAULT_ZERO_GUARD, ORACLE_MIN_BUDGET,
    TAIL_TOL, TAIL_WINDOW, THETA_DOWN, THETA_UP,
)

__all__ = [
    "RatioTrajectory",
    "SolutionTrajectory",
    "LimitReport",
    "advance_ratio",
    "closed_period",
    "replay",
    "iterate_ratio",
    "solution_trajectory",
    "iterate_solution",
    "detect_ratio_limit",
    "empirical_class",
    "subsequence_monotonicity",
    "INCREASING",
    "DECREASING",
    "MIXED",
]

COMPLETED = "completed"
HIT_ZERO = "hit_zero"
ESCAPED_NEGATIVE = "escaped_negative_unrecoverable"
STOPPED_DIVISION_BY_ZERO = "stopped_division_by_zero"
OVERFLOWED_BUDGET = "overflowed_budget"

INCREASING = "increasing"
DECREASING = "decreasing"
MIXED = "mixed"

#: the oracle's steps between checks, at least a detector window
ORACLE_CHUNK = max(TAIL_WINDOW, 256)
_LOG10_TIE = 5e-15  # |delta log10| below this is a tie (1e-14 relative per step)
#: absolute slack, in units of a window's largest |x|, of the log-space
#: precheck in _stabilized (its proof is there)
_SETTLE_SLACK = 1e-13


@dataclass(frozen=True)
class RatioTrajectory:
    values: list
    status: str


@dataclass(frozen=True)
class SolutionTrajectory:
    """Orbit of the second-order equation, stored as (sign, log10 |x|) pairs.

    Index 0 holds x_{-1}; index k holds x_{k-1}.  ``ratios[k]`` is t_k, so
    log_magnitudes[k + 1] = log_magnitudes[k] + log10 |t_k| for k >= 1.
    """

    log_magnitudes: list
    signs: list
    ratios: list
    status: str

    def __len__(self):
        return len(self.log_magnitudes)

    def value(self, n: int) -> float:
        """x_n in direct space; only representable while |log10| < 300."""
        lm = self.log_magnitudes[n + 1]
        if abs(lm) >= 300.0:
            raise OverflowError(f"|x_{n}| is 10^{lm:.1f}, not representable")
        return self.signs[n + 1] * 10.0 ** lm


@dataclass(frozen=True)
class LimitReport:
    kind: str  # "equilibrium" | "two_cycle" | "none"
    values: tuple
    residual: float


def advance_ratio(params, t, n, zero_guard, out):
    """Apply the ratio map up to n times from t, appending each new ratio to out.

    Before each step, |t| under zero_guard stops the walk, and so does a t
    whose cube underflows to 0 (|t| below ~1.7e-108, which the default guard
    of 1e-300 lets through).  Returns the last ratio and whether the walk
    stopped there.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    try:
        for _ in range(n):
            if abs(t) < zero_guard:
                return t, True
            t = (((a * t + b) * t + c) * t + d) / (t * t * t)
            out.append(t)
    except ZeroDivisionError:
        return t, True
    return t, False


def closed_period(ratios):
    """The period k of a float cycle the ratio orbit has closed on, or None.

    ``ratios`` are consecutive ratios of one ``advance_ratio`` walk, oldest
    first.  k is the least k <= TAIL_WINDOW with
    ``ratios[-1] == ratios[-1 - k]``.  From there on the walk repeats the
    floats ``ratios[-k:]`` for ever, whatever its budget:

    - ``advance_ratio`` maps the one float t to the next by a fixed sequence
      of float operations, each rounded by CPython on its own (no FMA
      contraction), so equal floats have equal successors;
    - its stops (the zero guard, and ZeroDivisionError when t^3 is 0) also
      depend on t alone, and none fired at ``ratios[-1 - k]`` or at the
      k - 1 ratios after it, which all have successors here;
    - float ``==`` holds only between equal floats, or between +0 and -0,
      and a zero never gets past the guard or the division; NaN equals
      nothing, and an inf is followed by NaN, so neither is looked up.
    """
    last = ratios[-1]
    if not math.isfinite(last):
        return None
    # a C-level search, newest first, of the window before the last ratio,
    # not a test per step
    try:
        return ratios[-1 - TAIL_WINDOW : -1][::-1].index(last) + 1
    except ValueError:
        return None


def replay(cycle, start, n):
    """Items start, ..., start + n - 1 of ``cycle`` repeated for ever.

    After a walk whose last k ratios are a closed ``cycle`` (see
    ``closed_period``), these are the n ratios that follow the first
    ``start`` ratios past its end: the walk itself, without the map.
    """
    k = len(cycle)
    start %= k
    return (cycle * ((start + n) // k + 1))[start : start + n]


def _log_magnitudes(lm0, ratios):
    """lm0, then each running sum lm0 + log10 |t| over the ratios, left to right."""
    return accumulate(map(math.log10, map(abs, ratios)), initial=lm0)


def _signs(s, ratios):
    """s, then the running sign, flipped at each ratio that is not positive."""
    return [s, *[(s := s if t > 0 else -s) for t in ratios]]


def iterate_ratio(
    params: Parameters,
    t0: float,
    n: int,
    zero_guard: float = DEFAULT_ZERO_GUARD,
) -> RatioTrajectory:
    """Iterate the ratio map up to n steps from t0.

    Stops with status ``hit_zero`` when |t| falls under zero_guard (the
    second-order iteration would divide by zero there).
    """
    if t0 == 0.0:
        raise ValueError("t0 must be nonzero")
    if zero_guard <= 0.0:
        raise ValueError("zero_guard must be positive")
    values = [t0]
    _, stopped = advance_ratio(params, t0, n, zero_guard, values)
    if stopped:
        status = HIT_ZERO
    elif len(values) > 3 and all(v < 0.0 for v in values[-4:]):
        # a long negative tail means the orbit is outside the recovery region
        status = ESCAPED_NEGATIVE
    else:
        status = COMPLETED
    return RatioTrajectory(values=values, status=status)


def solution_trajectory(x_minus1: float, x0: float, rt: RatioTrajectory) -> SolutionTrajectory:
    """The solution orbit from x_{-1}, x_0 whose ratios are ``rt.values``.

    The logs stop before the first magnitude that is not a finite float
    (status ``overflowed_budget``), or before an x_n of exactly 0, which the
    next step would divide by (status ``stopped_division_by_zero``); the
    ratios are kept whole.
    """
    mags = _log_magnitudes(math.log10(abs(x0)), islice(rt.values, 1, None))
    logs = [math.log10(abs(x_minus1)), next(mags)]
    zero = False
    try:
        logs.extend(takewhile(math.isfinite, mags))
    except ValueError:  # log10(0): a ratio of exactly 0; the logs before it stay
        zero = True
    kept = islice(rt.values, 1, len(logs) - 1)
    signs = [1 if x_minus1 > 0 else -1, *_signs(1 if x0 > 0 else -1, kept)]
    status = OVERFLOWED_BUDGET if len(logs) < len(rt.values) + 1 else COMPLETED
    if zero or rt.status == HIT_ZERO:
        status = STOPPED_DIVISION_BY_ZERO
    return SolutionTrajectory(
        log_magnitudes=logs, signs=signs, ratios=rt.values, status=status
    )


def iterate_solution(
    params: Parameters,
    x_minus1: float,
    x0: float,
    n: int,
    zero_guard: float = DEFAULT_ZERO_GUARD,
) -> SolutionTrajectory:
    """Orbit of the second-order equation in log-magnitude + sign form."""
    if x_minus1 == 0.0 or x0 == 0.0:
        raise ValueError("initial conditions must be nonzero")
    return solution_trajectory(
        x_minus1, x0, iterate_ratio(params, x0 / x_minus1, n, zero_guard)
    )


def _spread_ok(tail, tol):
    m = sum(tail) / len(tail)
    return (max(tail) - min(tail)) <= tol * max(1.0, abs(m)), m


def detect_ratio_limit(traj: RatioTrajectory, tol: float = TAIL_TOL) -> LimitReport:
    """Classify the tail of a ratio orbit as equilibrium, 2-cycle, or neither.

    Equilibrium: the last TAIL_WINDOW values agree to tol.  2-cycle: even and
    odd tails each agree to tol but sit more than 10 tol apart.  Reported
    values are tail means; the residual is the phi-closure defect.
    """
    vals = traj.values
    if len(vals) < TAIL_WINDOW:
        return LimitReport(kind="none", values=(), residual=math.inf)
    tail = vals[-TAIL_WINDOW:]
    ok, m = _spread_ok(tail, tol)
    if ok:
        return LimitReport(kind="equilibrium", values=(m,), residual=max(abs(v - m) for v in tail))
    even, odd = tail[0::2], tail[1::2]
    ok_e, me = _spread_ok(even, tol)
    ok_o, mo = _spread_ok(odd, tol)
    if ok_e and ok_o and abs(me - mo) > 10.0 * tol * max(1.0, abs(me), abs(mo)):
        lo, hi = sorted((me, mo))
        res = max(max(abs(v - me) for v in even), max(abs(v - mo) for v in odd))
        return LimitReport(kind="two_cycle", values=(lo, hi), residual=res)
    return LimitReport(kind="none", values=(), residual=math.inf)


def _trend(logs, frac=0.1):
    k = max(10, int(len(logs) * frac))
    k = min(k, len(logs) - 1)
    return logs[-1] - logs[-1 - k]


def _apart(logs, signs, tol):
    """Whether x[-1] and x[-3] lie too far apart for the last TAIL_WINDOW
    values to settle, read from logs and signs without converting the
    window: True only where the rest of _stabilized returns None.

    Let x be the window as _stabilized converts it, M its largest |x|,
    u = 2^-53 and tol >= 0 (a negative tol passes neither test below).

    x[-1] and x[-3] both sit in the odd half.  So the equilibrium test, and
    the odd half of the 2-cycle test, pass only if |x[-1] - x[-3]| is at
    most a float spread, which is at least (1 - u) times the exact one and
    at most tol times a float mean of 64 or 32 values of size <= M, which is
    at most M (1 + 64 u).  Both give |x[-1] - x[-3]| <= tol M (1 + 67 u).

    g below is |x[-1] - x[-3]| / 10^L, L = max(logs[-64:]), to within 20 u
    absolute: each x is s 10^l to the few-ulp accuracy of pow, and so
    M <= 10^L (1 + 4 u); the float l - L <= 0 is off by at most u |l - L|,
    which moves 10^(l - L) by at most max_D (D 10^-D) ln 10 u < 0.4 u; and
    g's own subtraction adds u g <= 2 u.  So a test that passes gives
    g <= tol (1 + 72 u) + 20 u < 2 tol + _SETTLE_SLACK, even after that sum
    is rounded.  Every l is finite here, and 10^(l - L) <= 1 cannot
    overflow.
    """
    top = max(logs[-TAIL_WINDOW:])
    g = abs(signs[-1] * 10.0 ** (logs[-1] - top) - signs[-3] * 10.0 ** (logs[-3] - top))
    return g > 2.0 * tol + _SETTLE_SLACK


def _stabilized(logs, signs, tol):
    if _apart(logs, signs, tol):
        return None
    if max(map(abs, logs[-2 * TAIL_WINDOW:])) >= 300.0:
        return None
    tail = [s * 10.0 ** lm for s, lm in zip(signs[-TAIL_WINDOW:], logs[-TAIL_WINDOW:])]
    m = sum(tail) / len(tail)
    if m != 0.0 and (max(tail) - min(tail)) <= tol * abs(m):
        return CONVERGES_TO_EQUILIBRIUM
    even, odd = tail[0::2], tail[1::2]
    me, mo = sum(even) / len(even), sum(odd) / len(odd)
    scale = max(abs(me), abs(mo))
    if scale > 0.0 and (
        max(even) - min(even) <= tol * scale
        and max(odd) - min(odd) <= tol * scale
        and abs(me - mo) > 10.0 * tol * scale
    ):
        return CONVERGES_TO_TWO_CYCLE
    return None


def empirical_class(
    params: Parameters,
    x_minus1: float,
    x0: float,
    budget: int = DEFAULT_BUDGET,
    tol: float = TAIL_TOL,
    zero_guard: float = DEFAULT_ZERO_GUARD,
    *,
    values=None,
) -> str:
    """Brute-force oracle: iterate and call the asymptotic class from evidence.

    Divergence / vanishing require crossing THETA_UP / THETA_DOWN decades with
    a confirming trend over the trailing 10% of steps; bounded orbits are
    called once their tail (or its even/odd split) stabilizes.

    ``values`` are ratios already walked from this start with these
    ``params`` and ``zero_guard``, ``t_0 = x0 / x_minus1`` first, as a list
    or an ``array("d")``.  The oracle reads them chunk by chunk and applies
    the ratio map only past their end, so its answer is the one a walk from
    the start gives.  Without them it knows only ``t_0``.

    Once the ratios it knows close on a float cycle (``closed_period``), it
    replays the cycle instead of applying the map: the same floats, whose
    log10 |t| it sums in the same order.  A check that the last values
    cannot pass (``_apart``) is skipped.  Neither changes an answer.
    """
    if budget < ORACLE_MIN_BUDGET:
        raise ValueError(f"need budget >= {ORACLE_MIN_BUDGET}")
    if x_minus1 == 0.0 or x0 == 0.0:
        raise ValueError("initial conditions must be nonzero")
    if values is None:
        values = [x0 / x_minus1]
    elif not values or values[0] != x0 / x_minus1:
        raise ValueError("values must start at x0 / x_minus1")
    t = values[-1]
    walked = values  # the latest ratios known, which end at t
    cycle = None  # the float cycle they closed on, once they have
    # flat arrays: a 1e5-step walk keeps ~0.9 MB here, not ~4 MB of objects
    logs = array("d", [math.log10(abs(x0))])
    signs = array("b", [1 if x0 > 0 else -1])
    for done in range(0, budget, ORACLE_CHUNK):
        n = min(ORACLE_CHUNK, budget - done)
        # a slice, not a copy of the whole walk; past its end, walk on from
        # t, or replay the cycle the walk closed on
        ratios = values[done + 1 : done + 1 + n]
        steps = None  # log10 |t| of each ratio, when the cycle's are at hand
        stopped = False
        if len(ratios) < n:
            if cycle is None and (k := closed_period(walked)):
                cycle, replayed = list(walked[-k:]), 0
                cycle_logs = [math.log10(abs(r)) for r in cycle]
            m = n - len(ratios)
            if cycle is None:
                ratios = walked = list(ratios)
                t, stopped = advance_ratio(params, t, m, zero_guard, ratios)
            elif ratios:  # the chunk across the end of values
                ratios = [*ratios, *replay(cycle, replayed, m)]
                replayed += m
            else:  # a chunk replayed whole, its log10 |t| too
                ratios = replay(cycle, replayed, m)
                steps = replay(cycle_logs, replayed, m)
                replayed += m
        if steps is None:
            steps = map(math.log10, map(abs, ratios))
        start = len(logs)
        try:
            # left to right, as a walk sums them
            logs.fromlist([*accumulate(steps, initial=logs.pop())])
        except ValueError:  # log10(0): x_n = 0, and the next step divides by it
            return ITERATION_STOPS
        if not math.isfinite(logs[-1]):
            # a sum that left the finite floats never returns; the first one decides
            lost = next(lm for lm in logs[start:] if not math.isfinite(lm))
            return DIVERGES_TO_INFINITY if lost > 0 else CONVERGES_TO_ZERO
        if stopped:
            return ITERATION_STOPS
        if min(ratios) > 0.0:
            signs.extend(array("b", [signs[-1]]) * len(ratios))
        else:
            signs.fromlist(_signs(signs.pop(), ratios))
        lm = logs[-1]
        if lm > THETA_UP and _trend(logs) > 0.0:
            return DIVERGES_TO_INFINITY
        if lm < THETA_DOWN and _trend(logs) < 0.0:
            return CONVERGES_TO_ZERO
        if len(logs) >= 2 * TAIL_WINDOW:
            verdict = _stabilized(logs, signs, tol)
            if verdict is not None:
                return verdict
    return UNDETERMINED


def _cmp_step(s1, l1, s2, l2):
    """Direction from x1 to x2 given (sign, log10 |x|) pairs: 1, -1, or 0 (tie)."""
    if s1 != s2:
        return 1 if s2 > s1 else -1
    if abs(l2 - l1) <= _LOG10_TIE:
        return 0
    if l2 > l1:
        return s1
    return -s1


def subsequence_monotonicity(traj: SolutionTrajectory, stride: int, offset: int) -> str:
    """Strict-majority direction of x_{stride*k + offset} over its trailing quarter.

    Steps smaller than 1e-14 relative count as ties; a subsequence shorter
    than 8 elements reports ``mixed``.
    """
    if stride not in (1, 2, 4):
        raise ValueError("stride must be 1, 2, or 4")
    if not 0 <= offset < stride:
        raise ValueError("need 0 <= offset < stride")
    # x_offset sits at position 1 + offset
    idx = list(range(1 + offset, len(traj.log_magnitudes), stride))
    if len(idx) < 8:
        return MIXED
    idx = idx[-max(2, len(idx) // 4):]
    inc = dec = 0
    for i, j in zip(idx, idx[1:]):
        step = _cmp_step(traj.signs[i], traj.log_magnitudes[i], traj.signs[j], traj.log_magnitudes[j])
        if step > 0:
            inc += 1
        elif step < 0:
            dec += 1
    pairs = len(idx) - 1
    if inc > dec and inc * 2 > pairs:
        return INCREASING
    if dec > inc and dec * 2 > pairs:
        return DECREASING
    return MIXED
