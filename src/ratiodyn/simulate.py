"""Brute-force iteration of both equations, with log-space magnitude tracking.

Solution magnitudes accumulate as log10 |x_n| (the ratio cycle with points
near 760 drives |x_n| across hundreds of orders of magnitude before any trend
is readable); direct-space values are reconstructed only on demand.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, islice, takewhile
from operator import add, mul

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
    DEFAULT_BUDGET, ORACLE_MIN_BUDGET, TAIL_TOL, TAIL_WINDOW, THETA_DOWN, THETA_UP,
)

__all__ = [
    "RatioTrajectory",
    "SolutionTrajectory",
    "LimitReport",
    "start_ratio",
    "advance_ratio",
    "closed_period",
    "walk_on",
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
#: the oracle's steps between looks for a closed float cycle
_PROBE_STEPS = 4 * ORACLE_CHUNK
_LOG10_TIE = 5e-15  # |delta log10| below this is a tie (1e-14 relative per step)
#: absolute slack, in units of a window's largest |x|, of the log-space
#: precheck in _stabilized (its proof is there)
_SETTLE_SLACK = 1e-13
#: slack, per decade of |lm| + 300, of _ratios_apart's test (its proof is there)
_RATIO_SLACK = 2.0 ** -45
#: _far_apart's factor on its bound of a passing test's mean, 1 + 2^-40
_MEAN_PAD = 1.0 + 2.0 ** -40
#: the least normal double, 2^-1022
_TINY = sys.float_info.min
_LOG10_2 = math.log10(2.0)
#: _chunk_read's test: log10 (4 2^-1022), and 1 / (2 e ln 10), which turns
#: H^2 / (2 e) into decades
_LOG10_4TINY = math.log10(4.0 * _TINY)
_AMGM_DECADES = 0.5 / (math.e * math.log(10.0))
#: a chunk whose last two ratios reach this size is read by _partial_logs
#: without _chunk_read's test, which such chunks almost always fail
_WIDE = 16.0


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


_NO_LIMIT = LimitReport(kind="none", values=(), residual=math.inf)


def start_ratio(x_minus1: float, x0: float) -> float:
    """t_0 = x0 / x_minus1, for a start that can be walked.

    x_{-1} and x_0 must be finite and nonzero, and so must their quotient: a
    t_0 that overflows to inf is followed by NaN ratios only, and one that
    underflows to 0 would stop the walk at once, though no x_n is 0.
    """
    if not (math.isfinite(x_minus1) and math.isfinite(x0)):
        raise ValueError("initial conditions must be finite")
    if x_minus1 == 0.0 or x0 == 0.0:
        raise ValueError("initial conditions must be nonzero")
    t0 = x0 / x_minus1
    if not 0.0 < abs(t0) < math.inf:
        raise ValueError(f"the start ratio x0 / x_minus1 = {t0!r} is not a finite nonzero float")
    return t0


def advance_ratio(params, t, n, out):
    """Apply the ratio map up to n times from t, appending each new ratio to out.

    A t whose cube is 0 (t = 0, or |t| below ~1.7e-108, where t^3
    underflows) stops the walk before the step that would divide by it.
    Returns the last ratio and whether the walk stopped there.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    try:
        for _ in range(n):
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
    - its one stop, ZeroDivisionError when t^3 is 0, also depends on t
      alone, and it did not fire at ``ratios[-1 - k]`` or at the k - 1
      ratios after it, which all have successors here;
    - float ``==`` holds only between equal floats, or between +0 and -0,
      and a zero never gets past the division; NaN equals nothing, and an
      inf is followed by NaN, so neither is looked up.
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


def walk_on(params, walked, n, k=None):
    """The next n ratios of the walk whose latest ratios are ``walked``.

    ``k`` is the period of the float cycle they closed on, or None, and then
    ``closed_period(walked)`` looks for one, or 0 to walk on without
    looking (a walk replays only as a shortcut).  A closed walk repeats
    ``walked[-k:]``, in its sequence type; any other goes on from
    ``walked[-1]`` with ``advance_ratio``, in a list.  Returns the ratios,
    k, and whether the walk stopped at a ratio whose cube is 0, short of n.
    """
    if k is None:
        k = closed_period(walked)
    if k:
        return (walked[-k:] * (n // k + 1))[:n], k, False
    ratios = []
    _, stopped = advance_ratio(params, walked[-1], n, ratios)
    return ratios, None, stopped


def _log_magnitudes(lm0, ratios):
    """lm0, then each running sum lm0 + log10 |t| over the ratios, left to right."""
    return accumulate(map(math.log10, map(abs, ratios)), initial=lm0)


def _signs(s, ratios):
    """s, then the running sign, flipped at each ratio that is not positive."""
    return [s, *[(s := s if t > 0 else -s) for t in ratios]]


def iterate_ratio(params: Parameters, t0: float, n: int) -> RatioTrajectory:
    """Iterate the ratio map up to n steps from t0.

    Stops with status ``hit_zero`` at a ratio whose cube is 0, where the
    next step would divide by zero (``advance_ratio``).  t0 must be a finite
    nonzero float, as for ``start_ratio``, and n at least 0.
    """
    start_ratio(1.0, t0)  # the start rule, for t_0 = t0 / 1
    if n < 0:
        raise ValueError(f"need n >= 0 steps, got {n!r}")
    values = [t0]
    _, stopped = advance_ratio(params, t0, n, values)
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
    params: Parameters, x_minus1: float, x0: float, n: int
) -> SolutionTrajectory:
    """Orbit of the second-order equation in log-magnitude + sign form."""
    return solution_trajectory(
        x_minus1, x0, iterate_ratio(params, start_ratio(x_minus1, x0), n)
    )


def _check_budget(budget, least):
    """Raise TypeError unless ``budget`` is an integer, and ValueError
    unless it is at least ``least``."""
    try:
        operator.index(budget)
    except TypeError:
        raise TypeError(f"budget must be an integer, got {budget!r}") from None
    if budget < least:
        raise ValueError(f"need budget >= {least}")


def _check_tail_tol(tol):
    """Raise ValueError unless ``tol`` is a tail tolerance that can work:
    finite and nonnegative.  An infinite one settles every finite tail, and
    a NaN or negative one none."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"need a finite tol >= 0, got {tol!r}")


def _spread_ok(tail, tol):
    """Whether ``tail`` spreads by at most tol relative about a finite mean,
    its mean m, and the largest distance of a value from m.

    That distance is max(hi - m, m - lo) for the least and largest values
    lo and hi, the same float as the largest |v - m| over a finite tail:
    rounding is monotone, so fl(v - m) is largest at v = hi and smallest at
    v = lo, and it is symmetric, so fl(m - v) = -fl(v - m).  A tail holding
    an infinity, or a NaN, or whose sum overflows, has no finite mean and
    does not settle.
    """
    m = sum(tail) / len(tail)
    lo, hi = min(tail), max(tail)
    ok = math.isfinite(m) and (hi - lo) <= tol * max(1.0, abs(m))
    return ok, m, max(hi - m, m - lo)


def _far_apart(t, s, tol):
    """Whether the last ratio t = t_N and s = t_(N-2) lie too far apart for
    the detector's window to settle: True only where both of its tests fail.

    Let u = 2^-53 and 0 <= tol < 1/4.  t and s both sit in the window and
    in its odd half.  So the equilibrium test, and the odd half of the
    2-cycle test, each pass only for a set S of 64 or 32 values, holding t
    and s, with a finite float mean m and with fl(hi - lo) <= fl(tol M),
    where lo and hi are the least and largest values of S and
    M = max(1, |m|).  A finite m means that every value of S is finite and
    that their sum did not overflow.  Let D = fl(|t - s|).

    - hi - lo >= |t - s|, and rounding is monotone, so D <= fl(hi - lo).
    - M <= W = w F / (1 - tol F), with w = max(1, |t|) and F = 1 + 2^-45.
      Where M = 1 this holds as w >= 1.  Where |m| > 1 the division by 64
      or 32 is exact, and CPython's sum, plain or compensated, errs by at
      most gamma = 63 u / (1 - 63 u) times the sum of |v| (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
      section 4.2).  So |m| <= (1 + gamma) V, V the largest |v|, and
      V <= |t| + (hi - lo), as t lies in [lo, hi].  A passing test gives
      hi - lo <= fl(hi - lo) / (1 - u) <= (tol M (1 + u) + eta) / (1 - u),
      with eta <= 2^-1075 for a product that underflows.  Solving for M,
      M (1 - tol c) <= (1 + gamma)(w + 2 eta) with c = (1 + gamma)(1 + u)
      / (1 - u) < F, and (1 + gamma)(1 + 2 eta) < F too, since w >= 1.
    - The float w * _MEAN_PAD / (1 - tol * _MEAN_PAD), with
      _MEAN_PAD = 1 + 2^-40, is at least W: its products and quotient
      round by (1 - u) at worst, a product of tol that underflows rounds
      to no less than tol, and the rounding of the difference leaves the
      denominator at most (1 + 3 u)(1 - tol F); and
      (1 + 2^-40)(1 - u)^2 / (1 + 3 u) > F.
    - So tol M <= tol W, and as rounding is monotone, a passing test has
      D <= fl(tol M) <= fl(tol W).

    So D > fl(tol W) means both tests fail.  A NaN t or s makes D NaN,
    which exceeds nothing; an infinite t makes W infinite, or tol W NaN
    where tol = 0; an infinite s sits in every S, which then has no finite
    mean.  A tol of 1/4 or more is left to the full tests.
    """
    if tol >= 0.25:
        return False
    bound = max(1.0, abs(t)) * _MEAN_PAD / (1.0 - tol * _MEAN_PAD)
    return abs(t - s) > tol * bound


def detect_ratio_limit(traj: RatioTrajectory, tol: float = TAIL_TOL) -> LimitReport:
    """Classify the tail of a ratio orbit as equilibrium, 2-cycle, or neither.

    Equilibrium: the last TAIL_WINDOW values agree to tol about a finite
    mean.  2-cycle: even and odd tails each agree to tol but sit more than
    10 tol apart.  Reported values are tail means; the residual is the
    largest distance of a tail value from its tail mean (for a 2-cycle,
    from the mean of its half).  ``tol`` must be finite and nonnegative.

    The tail is not read where its last value and the one two steps before
    lie too far apart for either test to pass (``_far_apart``).
    """
    _check_tail_tol(tol)
    vals = traj.values
    if len(vals) < TAIL_WINDOW or _far_apart(vals[-1], vals[-3], tol):
        return _NO_LIMIT
    tail = vals[-TAIL_WINDOW:]
    ok, m, res = _spread_ok(tail, tol)
    if ok:
        return LimitReport(kind="equilibrium", values=(m,), residual=res)
    ok_e, me, res_e = _spread_ok(tail[0::2], tol)
    ok_o, mo, res_o = _spread_ok(tail[1::2], tol)
    if ok_e and ok_o and abs(me - mo) > 10.0 * tol * max(1.0, abs(me), abs(mo)):
        lo, hi = sorted((me, mo))
        return LimitReport(kind="two_cycle", values=(lo, hi), residual=max(res_e, res_o))
    return _NO_LIMIT


def _trend_lag(length):
    """How many steps back the oracle's trend looks from step length - 1: a
    tenth of the steps, at least 10."""
    return min(max(10, int(length * 0.1)), length - 1)


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
    return _far(max(logs[-TAIL_WINDOW:]), logs[-1], logs[-3], signs[-1] != signs[-3], tol)


def _far(top, last, third, flip, tol):
    """_apart's test from the window's largest log ``top``, logs[-1],
    logs[-3] and whether signs[-1] and signs[-3] differ: g is the float
    |s 10^(last - top) - s' 10^(third - top)|, as negation is exact."""
    a, b = 10.0 ** (last - top), 10.0 ** (third - top)
    return (a + b if flip else abs(a - b)) > 2.0 * tol + _SETTLE_SLACK


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


def _partial_logs(ratios, first, every=True):
    """log10 |p_j| for the products p_j = ratios[0] * ... * ratios[j], from
    j = first on, or for j = first and the last j only where not ``every``,
    and whether the last p_j is negative.

    The p_j are the floats of a left-to-right product with exact exponents.
    Where every partial product stays a normal float they are the plain
    products; elsewhere _frexp_logs takes them by mantissa and exponent.  A
    p_j is read as log10 |p_j| where it is a normal float, else as
    log10 |m| + e log10 2 for p_j = m 2^e, m in [0.5, 1).  Raises
    ValueError where a ratio is 0 or not finite.

    Its guard costs O(n): a min over the ratios, and where that cannot
    tell, every partial product.  The oracle reads a chunk through
    _chunk_read, whose O(1) test proves most chunks normal first, and
    comes here for the rest.
    """
    least = min(ratios)
    if not least > 0.0:
        least = min(map(abs, ratios))
    # a product of n ratios of size >= least < 1 keeps a size of at least
    # least^n (1 - 2^-53)^n, so none falls below 2^-1022; else look at
    # every partial product
    plain = min(1.0, least) ** len(ratios) > 2.0 * _TINY
    if not plain and abs(math.prod(ratios)) < math.inf:
        plain = min(map(abs, accumulate(ratios, mul))) >= _TINY
    if plain:
        ps = _running(ratios, first, every)
        # an overflow stays inf to the last product
        if abs(ps[-1]) < math.inf:
            return [*map(math.log10, map(abs, ps))], ps[-1] < 0.0
    return _frexp_logs(ratios, first, every)


def _chunk_read(ratios, first):
    """_partial_logs(ratios, first, every=False): log10 |p_j| at j = first
    and at the last j, and whether the last p_j is negative, with one O(1)
    test in place of its guard where that test proves every partial
    product normal.

    Let P = math.prod(ratios), H = math.hypot(*ratios), T = 2^-1022 and
    u = 2^-53.  Where P is finite and nonzero, no ratio is 0, infinite or
    NaN, and no partial product overflowed, as an inf stays inf through
    nonzero factors.  The test is ln |P| - ln (4 T) > H^2 / (2 e), taken in
    decades: log10 |P| - log10 (4 T) > H^2 / (2 e ln 10).  Where it holds,
    every partial product is a normal float:

    - Suppose p_k is the first with |p_k| < T.  A float product with
      gradual underflow is at most |p t| (1 + u) + 2^-1075 in size (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
      section 2.1), and 2^-1075 = u T.  So by induction over the n ratios
      after it, |p_j| <= T (1 + u)^i (1 + i u) M_j after i of them, with M_j
      the product of max(1, |t|) over them, and |P| < 2 T M for n < 2^50.
    - Over the m of those ratios with |t| > 1, AM-GM gives
      prod |t| <= (S / m)^(m/2) for the sum S <= H^2 of their squares, and
      (m / 2) ln (S / m) is largest, S / (2 e), at m = S / e.  So
      M <= e^(H^2 / (2 e)), and ln |P| < ln (2 T) + H^2 / (2 e).
    - The float test pads that by ln 2, 0.30 decades.  Its left side, at
      most 616 in size, errs by under 1e-12 (log10 and the constant to
      within an ulp, and one subtraction).  Its right side is at least
      (1 - 12 u) times the exact one, or both are under 1e-300 (hypot to
      within an ulp, from Python 3.10 on, the constant to within 5 u, two
      products), so where it passes, below 616, it errs by under 1e-12
      too.  A passing test thus gives ln |P| > ln (2 T) + H^2 / (2 e),
      which no such p_k allows.

    There the read is the plain one: log10 |P|, P < 0, and the partial
    product at ``first``, which is ratios[0] or the product up to it.
    Elsewhere, and where the last two ratios reach _WIDE, _partial_logs
    reads the chunk.  H * H, not H ** 2, which raises OverflowError.
    """
    # ratios[-2 % n] is ratios[-2], or the one ratio of a chunk of one
    if abs(ratios[-1]) < _WIDE > abs(ratios[-2 % len(ratios)]):
        p = math.prod(ratios)
        if 0.0 < abs(p) < math.inf:
            h = math.hypot(*ratios)
            lp = math.log10(abs(p))
            if lp - _LOG10_4TINY > h * h * _AMGM_DECADES:
                head = ratios[0] if first == 0 else math.prod(ratios[: first + 1])
                return [math.log10(abs(head)), lp], p < 0.0
    return _partial_logs(ratios, first, every=False)


def _running(xs, first, every, op=mul, total=math.prod):
    """The running totals xs[0] op ... op xs[j], left to right, from
    j = first on, or for j = first and the last j only where not ``every``
    (the total of all, whose left-to-right roundings pass through the
    first)."""
    head = total(xs[: first + 1])
    return [*accumulate(xs[first + 1 :], op, initial=head)] if every else [head, total(xs)]


def _frexp_logs(ratios, first, every):
    """_partial_logs by mantissa and exponent, for ratios whose partial
    products leave the normal floats: p_j = q_j 2^(g_j) for the product q_j
    of the mantissas of ratios[0..j], left to right, and the sum g_j of
    their exponents.  Each mantissa lies in [0.5, 1), so for at most 1021
    ratios (a chunk holds ORACLE_CHUNK) every q_j is a normal float, and a
    product of normal floats rounds the same at any scale: q_j 2^(g_j) is
    the plain p_j wherever that stays normal."""
    fs, gs = zip(*map(math.frexp, ratios))
    # a 0, inf or nan mantissa makes the product 0, inf or nan
    if not 0.0 < abs(math.prod(fs)) < math.inf:
        raise ValueError("a ratio is 0 or not finite")
    logs = []
    for q, g in zip(_running(fs, first, every), _running(gs, first, every, add, sum)):
        m, h = math.frexp(q)
        e = g + h
        # m 2^e is a normal float for these e
        normal = -1021 <= e <= 1024
        logs.append(math.log10(abs(math.ldexp(m, e))) if normal else math.log10(abs(m)) + e * _LOG10_2)
    return logs, q < 0.0


def _ratios_apart(lm, ratios, tol):
    """Whether the last TAIL_WINDOW values of the window that ends with the
    chunk ``ratios`` (of TAIL_WINDOW or more, starting at log10 |x| = lm)
    lie too far apart to settle, read from its last three ratios alone:
    True only where _stabilized without _apart returns None.

    Let u = 2^-53, 0 <= tol < 1/8, and x the last 64 values as _stabilized
    converts them; each is finite with 10^-300 < |x| < 10^300, or it
    returns None.  x[-1] and x[-3] sit in the odd half, x[-2] and x[-4] in
    the even one.

    - A passing test keeps one half's last two values close.  The
      equilibrium test, and the odd half of the 2-cycle test where
      |mo| >= |me|, pass only where r = x[-1] / x[-3] has
      |1 - 1/r| <= B = (tol F + z) / (1 - tol F), with
      F = (1 + u)(1 + 63 u) / (1 - u)^2 and z = 1e-23; the even half where
      |me| > |mo| only where x[-2] / x[-4] does.  For the spread D of the
      window or half is at least |x[-1] - x[-3]|, a pass gives
      fl(D) <= fl(tol |m|), and the float mean m of at most 64 values errs
      by at most 63 u / (1 - 63 u) of their sizes (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, section 4.2),
      each at most |x[-1]| + D.  So D (1 - tol F) <= tol F |x[-1]| + 3
      2^-1075, and 3 2^-1075 < z |x[-1]|.  Then |r - 1| <= B / (1 - B)
      <= 2 tol + 2 z.
    - r is the exact product t t' of the last two ratios times 1 + rho, with
      |rho| <= u (8350 + 24 |lm|).  The chunk's partial products have
      p_c = p_(c-2) t t' (1 + d)(1 + d'), |d|, |d'| <= u, with exact
      exponents; each of their logs errs by at most 5 u |log10 |p|| + 2 u,
      the log L of a p in the window has |L| <= 300 + |lm| + 301 u, the
      sum l = fl(lm + L) errs by at most 301 u, and pow by 4 u.  So
      log10 |r / (t t')| is at most 3607 u + 10 u |lm| in size.
    - So a pass gives |t t' - 1| <= (2 tol + 2 z + |rho|) / (1 - |rho|)
      <= 2 tol + 2 z + 1.6 |rho|.  The float test below, with
      s = 2^-45 (300 + |lm|), implies after its five roundings
      |t t' - 1| > 2 tol + s (1 - 5 u) - 1.75 u, which exceeds that bound.

    A NaN, 0 or infinite ratio never reaches here.  A tol of 1/8 or more is
    left to the window.
    """
    if tol >= 0.125:
        return False
    bound = 2.0 * tol + _RATIO_SLACK * (300.0 + abs(lm))
    t3, t2, t1 = ratios[-3:]
    return abs(t2 * t1 - 1.0) > bound and abs(t3 * t2 - 1.0) > bound


def _log_at(recent, j):
    """log10 |x_j| for a step j in one of the chunks in ``recent``, as
    _window takes them."""
    d, lm, _, ratios = next(r for r in recent if j <= r[0] + len(r[3]))
    return lm + _partial_logs(ratios[: j - d], j - d - 1)[0][0]


def _window(recent):
    """The logs and signs of the last 2 TAIL_WINDOW steps of the chunks in
    ``recent``, each (d, lm, s, ratios): the chunk that starts at step d,
    with log10 |x_d| and the sign of x_d."""
    logs, signs = [], []
    for _, lm, s, ratios in reversed(recent):
        first = max(0, len(ratios) + len(logs) - 2 * TAIL_WINDOW)
        logs[:0] = [lm + lp for lp in _partial_logs(ratios, first)[0]]
        signs[:0] = _signs(s, ratios)[first + 1 :]
        if len(logs) == 2 * TAIL_WINDOW:
            return logs, signs


def empirical_class(
    params: Parameters,
    x_minus1: float,
    x0: float,
    budget: int = DEFAULT_BUDGET,
    tol: float = TAIL_TOL,
    *,
    values=None,
) -> str:
    """Brute-force oracle: iterate and call the asymptotic class from evidence.

    Divergence / vanishing require crossing THETA_UP / THETA_DOWN decades
    from |x_minus1| with a confirming trend over the trailing 10% of steps;
    bounded orbits are called once their tail (or its even/odd split)
    stabilizes.  The equation is homogeneous of degree 1, so the class, like
    the walk, is the same from (lambda x_minus1, lambda x0), lambda = 2^k.

    The checks run at the end c of each ORACLE_CHUNK-step chunk and at
    ``budget``.  They read one magnitude: l_c = log10 |x_c / x_minus1| is
    log10 |t_0| plus the float sum, chunk by chunk, of log10 |P| for the
    product P of each chunk's ratios, and at a step j inside the chunk that
    starts at d, l_j is l_d plus log10 |t_(d+1) ... t_j|.  The products are
    taken left to right with exact exponents (``_partial_logs``).

    A chunk's read is its product P alone (``_chunk_read``): one
    ``math.prod``, one ``math.hypot`` and one log10 where a test on those
    two proves that its partial products stay normal floats, which holds
    on chunks of ratios near 1; else ``_partial_logs`` reads it, with its
    O(n) guard.  P gives l_c, the sign of x_c and the 12-decade tests.
    Only where l_c lies past 12 decades does the trend look back, from c
    to step c - _trend_lag(c + 1), to the product up to that step, which
    the chunk's read takes too where that step lies in the chunk.  The
    tail check skips a window whose last values cannot settle from the
    chunk's last three ratios (``_ratios_apart``); only where those cannot
    tell does it read the logs of the last 2 TAIL_WINDOW steps, and test
    their last values (``_apart``) before the window's spread.

    ``values`` are ratios already walked from this start with these
    ``params``, ``t_0 = x0 / x_minus1`` first, as a list or an
    ``array("d")``.  The oracle reads them chunk by chunk and applies
    the ratio map only past their end, so its answer is the one a walk from
    the start gives.  Without them it knows only ``t_0``.  ``tol`` is the
    tail tolerance, finite and nonnegative.

    Every ratio past them comes from ``walk_on``, as in ``classify``.  Past
    a closed float cycle of period k, a chunk repeats the ratios of the
    chunk k / gcd(k, ORACLE_CHUNK) chunks before it: its product is read
    once per phase and replayed, which gives the floats a fresh read gives.
    """
    _check_budget(budget, ORACLE_MIN_BUDGET)
    _check_tail_tol(tol)
    t0 = start_ratio(x_minus1, x0)
    if values is None:
        values = [t0]
    elif not values or values[0] != t0:
        raise ValueError("values must start at x0 / x_minus1")
    walked = values  # the latest ratios known
    k = None  # the period of the float cycle they closed on, once they have
    reads = {}  # (length, first ratio) of a chunk that replays the cycle -> its read
    # the chunks a later check reads, as _window takes them: the trend looks
    # back at most _trend_lag(budget + 1) steps
    recent = deque(maxlen=_trend_lag(budget + 1) // ORACLE_CHUNK + 3)
    lm, s, done = math.log10(abs(t0)), (1 if x0 > 0 else -1), 0
    for c in chain(range(ORACLE_CHUNK, budget, ORACLE_CHUNK), (budget,)):
        n = c - done
        # a slice, not a copy of the whole walk; the walk goes on past its end
        ratios = values[done + 1 : c + 1]
        # the trend looks back to step c - lag, to the chunk's partial
        # product of index back where that is one
        lag = _trend_lag(c + 1)
        back = n - 1 - lag
        key = None
        if len(ratios) < n:
            # the walk looks for a closed cycle where it starts, and at every
            # _PROBE_STEPS-th step after
            probe = walked is values or c % _PROBE_STEPS == 0
            more, k, stopped = walk_on(params, walked, n - len(ratios), k if k or probe else 0)
            if k and not ratios:
                # a chunk of the cycle, whose k floats are distinct: its first
                # ratio tells its phase
                key = (n, more[0])
            ratios = walked = [*ratios, *more] if ratios else more
            if stopped:  # at a finite ratio: an inf is followed by nan, which never stops
                return ITERATION_STOPS
        # a chunk's read takes that partial product too, unless it is read
        # for every phase of a cycle
        first = 0 if key else max(0, back)
        read = reads.get(key)
        if read is None:
            try:
                read = _chunk_read(ratios, first)
            except ValueError:  # a 0 stops the walk: x_n = 0, and the next step divides by it
                if 0.0 in ratios:
                    return ITERATION_STOPS
                # else the first ratio that is not finite decides: inf overflows
                # x_n, and from nan no trend can be read
                lost = next(t for t in ratios if not math.isfinite(t))
                return UNDETERMINED if math.isnan(lost) else DIVERGES_TO_INFINITY
            if key:
                reads[key] = read
        (lb, lp), negative = read
        last = lm + lp  # log10 |x_c / x_minus1|
        recent.append((done, lm, s, ratios))
        if last > THETA_UP or last < THETA_DOWN:
            rise = last - (lm + lb if first == back else _log_at(recent, c - lag))
            if last > THETA_UP and rise > 0.0:
                return DIVERGES_TO_INFINITY
            if last < THETA_DOWN and rise < 0.0:
                return CONVERGES_TO_ZERO
        if n < TAIL_WINDOW or not _ratios_apart(lm, ratios, tol):
            verdict = _stabilized(*_window(recent), tol)
            if verdict is not None:
                return verdict
        lm, s, done = last, (-s if negative else s), c
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
