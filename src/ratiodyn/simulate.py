"""Brute-force iteration of both equations, with log-space magnitude tracking.

Solution magnitudes accumulate as log10 |x_n| (the ratio cycle with points
near 760 drives |x_n| across hundreds of orders of magnitude before any trend
is readable); direct-space values are reconstructed only on demand.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, islice, takewhile

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
_LOG10_TIE = 5e-15  # |delta log10| below this is a tie (1e-14 relative per step)
#: absolute slack, in units of a window's largest |x|, of the log-space
#: precheck in _stabilized (its proof is there)
_SETTLE_SLACK = 1e-13
#: the unit roundoff of a double, in the error bounds of _closed_class
_U = 2.0 ** -53
#: _closed_class takes a sign as certain only where |x| times this exceeds
#: the error bound of x, and scales its lower bounds by it
_SURE = 1.0 - 32 * _U
#: the most steps past the known ratios that _closed_class answers for: it
#: keeps steps * u <= 2^-13, which its bound on the oracle's summation error
#: needs
_CLOSED_MAX_STEPS = 2 ** 40
#: ln 10, for 1 - 10^-G = -expm1(-G ln 10) in _closed_class
_LN10 = math.log(10.0)
#: _far_apart's factor on its bound of a passing test's mean, 1 + 2^-40
_MEAN_PAD = 1.0 + 2.0 ** -40
#: _first_open_chunk decides a chunk only where every |t| in it lies in
#: [1 / _MODERATE, _MODERATE]: then no partial product of up to
#: ORACLE_CHUNK = 256 of them leaves the normal floats (256 * 3.9 < 1022)
_MODERATE = 2.0 ** 3.9


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
    ``closed_period(walked)`` looks for one.  A closed walk repeats
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
    nonzero float, as for ``start_ratio``.
    """
    start_ratio(1.0, t0)  # the start rule, for t_0 = t0 / 1
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
    """How many steps back _trend looks in logs of this length: a tenth of
    them, at least 10."""
    return min(max(10, int(length * 0.1)), length - 1)


def _trend(logs):
    return logs[-1] - logs[-1 - _trend_lag(len(logs))]


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


def _certain_sign(x, err):
    """The sign of a value within ``err`` of the float x, or 0 where ``err``
    leaves it open; |x| _SURE > err also covers the rounding of x itself."""
    if abs(x) * _SURE <= err:
        return 0
    return 1 if x > 0.0 else -1


def _surely_apart(scale, gap, tol):
    """Whether _apart's test passes for sure at a chunk end c, given floats
    within a few ulps of lower bounds on 10^(l_c - top) (``scale``) and on
    |1 - x_(c-2) / x_c| (``gap``), both taken in the loop's float logs l.

    The g of _apart is within 16 u of their product (see _closed_class),
    and _SURE = 1 - 32 u covers those few ulps and the product's roundings.
    """
    return scale * gap * _SURE - 16 * _U > 2.0 * tol + _SETTLE_SLACK


def _closed_class(logs, known, cycle, budget, tol):
    """The oracle's answer from the checks it has left once its ratios
    repeat a float cycle, or None where a margin is too thin to tell.

    ``logs`` are empirical_class's log10 |x_n|, up to the step ``done``
    where its current chunk starts.  ``known`` are the known ratios of that
    chunk, and every ratio after them repeats ``cycle``, oldest first.  The
    answer is the one the chunk loop gives: at each chunk end c left, up to
    ``budget``, the same tests in the same order, decided from the cycle
    without building the logs.  None is returned at the first test that
    cannot be decided, and then the loop runs as before.  The signs the
    tests need follow from the ratios.

    Closed form.  Let i0 be the step of the last known ratio, l0 the
    loop's log10 |x_i0|, k = len(cycle), L_j = log10 |cycle[j]| (the floats
    the loop adds) and n = c - i0 >= 1.  The loop's l_c = log10 |x_c| is
    the float sum, left to right, of l0 and L_(i mod k) for i < n.  With
    n = q k + r its exact value is S(n) = l0 + q D + P[r], where
    D = sum L_j and P[r] = L_0 + ... + L_(r-1).  Let u = 2^-53 and
    A(n) = |l0| + (n/k + 1) |D| + 130 sum |L_j|, which bounds |S(m)| for
    m <= n and twice any sum of up to 64 consecutive L_j.

    - Each of the loop's additions errs by at most u times its exact
      result (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
      ed., SIAM 2002, section 4.2), which lies within e of some S(m).  So
      e = max |l_m - S(m)| over the steps i0 < m <= c is at most
      n u (A(n) + e), and e <= 2 n u A(n), since n <= _CLOSED_MAX_STEPS
      keeps n u <= 2^-13.  So every such |l_m| is under 2 A(n).
    - The float (l0 + q fsum(L)) + H[r], with H the running float sums of
      L, errs from S(n) by at most 6 u A(n): fsum is correctly rounded,
      H[r] errs by at most k u sum |L_j| <= u A(n) / 2, and the product
      and the two sums add a rounding each.
    - err = (4 n + 256) u A(n) bounds the error of l_c - theta, and of
      l_c - l_(c - K) with l_(c - K) known exactly at or before i0 or in
      closed form past it (two errors of at most (2 n + 6) u A(n)), with
      room for the rounding of err.  A sign is taken as certain where
      |x| (1 - 32 u) > err (_certain_sign), which covers x's own rounding.

    Tests at each chunk end c, in the loop's order.

    - lm > THETA_UP and _trend > 0, then lm < THETA_DOWN and _trend < 0.
      The float a - b has the sign of a - b, so _trend's sign is that of
      l_c - l_(c - K), K = _trend_lag(c + 1).  A test whose outcome is
      open returns None; the second cannot fire where the first is open,
      since both read the same sign of _trend.
    - _stabilized, from c = 2 TAIL_WINDOW - 1 on, is certified to return
      None through _apart, whose g must then exceed
      thr = 2 tol + _SETTLE_SLACK.  Its g is within 16 u of
      |s_c 10^(l_c - top) - s_(c-2) 10^(l_(c-2) - top)|, with top the
      largest l over the window c - 63 .. c: each power is at most 1 and
      errs by 4 u from pow (as _apart's proof takes it) and 0.4 u from its
      rounded exponent, and their difference adds a rounding of at most
      2.1 u.  That is at least 10^-Y
      where x_c and x_(c-2) differ in sign, and 10^-Y (1 - 10^-G) where
      they agree, for any Y >= top - l_c and G <= |l_c - l_(c-2)|
      (x - 1 >= 1 - 1/x for x >= 1).  Their signs agree where the ratios at
      c and c - 1 have one sign.  Between i0 and c the loop's l_c - l_(c-j)
      is the exact sum B_j of the last j cycle logs up to j roundings of
      at most 2 u A(n) each; the float B_j adds at most 32 u A(n) more.  So
      Y = max_j (-B_j) + 256 u A(n) over j < 64: a per-phase maximum of
      partial sums, the same for every c with one n mod k.  Where the
      window reaches back to i0 the known logs l_m join in, as
      (l_m - l0) - B_n, with |max l_m - l0| added to A(n) to cover the
      rounding of that difference.  G = |L + L'| (1 - 32 u) - 4 u A(n)
      for the two cycle logs that end at c, off from l_c - l_(c-2) by the
      loop's two roundings.  The float 10^-Y (1 - 10^-G) (1 - 32 u) errs
      low, pow and expm1 erring by a few ulps, so g > thr where it
      exceeds thr + 16 u (_surely_apart).

    If every test passes through ``budget``, the answer is UNDETERMINED.
    """
    done = len(logs) - 1
    try:
        # summed left to right from logs[done], as the loop sums them
        prior = [*accumulate(map(math.log10, map(abs, known)), initial=logs[-1])]
    except ValueError:
        return None
    l0 = prior[-1]
    i0 = done + len(known)
    if not math.isfinite(l0) or budget - i0 > _CLOSED_MAX_STEPS:
        return None
    k = len(cycle)
    steps = [math.log10(abs(t)) for t in cycle]
    drift = math.fsum(steps)
    heads = [*accumulate(steps, initial=0.0)]
    size = 130 * math.fsum(map(abs, steps))
    # the cycle's logs newest first, long enough for a window from any phase
    back = steps[::-1] * (TAIL_WINDOW // k + 2)
    windows = {}  # n mod k -> (max_j -B_j, |L + L'|, whether x_c, x_(c-2) share a sign)

    def log_at(n):
        """l_(i0 + n): known exactly for n <= 0, in closed form past it."""
        if n <= 0:
            m = i0 + n
            return logs[m] if m <= done else prior[m - done]
        q, r = divmod(n, k)
        return l0 + q * drift + heads[r]

    for c in chain(range(done + ORACLE_CHUNK, budget, ORACLE_CHUNK), (budget,)):
        n = c - i0
        scale = abs(l0) + (n / k + 1) * abs(drift) + size
        err = (4 * n + 256) * _U * scale
        lm = log_at(n)
        rise = _certain_sign(lm - log_at(n - _trend_lag(c + 1)), err)
        high = _certain_sign(lm - THETA_UP, err)
        if high > 0 and rise > 0:
            return DIVERGES_TO_INFINITY
        low = _certain_sign(lm - THETA_DOWN, err)
        if low < 0 and rise < 0:
            return CONVERGES_TO_ZERO
        if not ((high < 0 or rise < 0) and (low > 0 or rise > 0)):
            return None
        if c + 1 < 2 * TAIL_WINDOW:
            continue
        phase = n % k
        window = windows.get(phase) if n >= TAIL_WINDOW else None
        if window is None:
            sums = [*accumulate(back[k - phase :][: min(n, TAIL_WINDOW - 1)], initial=0.0)]
            a, b = (phase - 1) % k, (phase - 2) % k
            window = (-min(sums), abs(steps[a] + steps[b]), (cycle[a] < 0.0) == (cycle[b] < 0.0))
            if n >= TAIL_WINDOW:
                windows[phase] = window
            else:  # the window reaches back to step i0: its known logs join in
                known_top = max(map(log_at, range(n - TAIL_WINDOW + 1, 1))) - l0
                scale += abs(known_top)
                window = (max(window[0], known_top - sums[-1]), *window[1:])
        drop, pair, same = window  # drop: how far l_c lies below the window's top
        apart = 1.0
        if same:
            dist = pair * _SURE - 4 * _U * scale
            if dist <= 0.0:
                return None
            apart = -math.expm1(-dist * _LN10)
        if not _surely_apart(10.0 ** -(drop + 256 * _U * scale), apart, tol):
            return None
    return UNDETERMINED


def _first_open_chunk(values, budget, tol, lm):
    """The step where the first oracle chunk starts whose checks the chunk
    products cannot decide, or ``budget`` where they decide every one.

    ``values`` are the walk's ratios, t_0 first, through step ``budget``
    at least, and ``lm`` is log10 |x_0|.  At each chunk end c the chunk
    loop of empirical_class tests lm > THETA_UP, lm < THETA_DOWN and
    _stabilized.  A chunk counts as decided where none of them can answer:
    the loop then only extends its logs and signs, which are rebuilt where
    it takes over.

    Let u = 2^-53, l_m the loop's float log10 |x_m|, and take math.log10
    to within 4 ulps, |fl(log10 y) - log10 y| <= 8 u |log10 y|, as _apart
    takes pow.  The estimate l of l_c starts at the loop's own l_0 and
    adds fl(log10 |P|), P = math.prod(chunk), per chunk.

    - A finite nonzero P means every ratio of the chunk is a finite
      nonzero float.  The chunk is decided only where every |t| lies in
      [1 / _MODERATE, _MODERATE], so |log10 |t|| < 1.175 and the sum of
      those of one chunk is under 302, and no partial product of its at
      most 256 ratios leaves the normal floats: P is the exact product up
      to a factor (1 + theta), |theta| <= 256 u.
    - Per chunk the loop's 256 or fewer additions err by at most
      u (|l_done| + 302) each (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., SIAM 2002, section 4.2), and its
      logs by 8 u 1.175 each.  The estimate errs by at most 112 u from
      theta, 8 u 302 from log10 and u (|l| + 302) from its addition.  So
      err grows by u (260 (|l| + err) + 2^17) per chunk, which also covers
      the rounding of err itself.
    - Where l - THETA_UP and l - THETA_DOWN have a certain sign within err
      (_certain_sign), -12 < l_c < 12 and neither THETA test fires.
    - _apart passes where g exceeds 2 tol + _SETTLE_SLACK (_surely_apart).
      Every ratio up to c passed the guard, and |l_c| < 12, so the window's
      logs stay under 86 in size, and l_c - l_j differs from the exact sum
      of the log10 |t| in between by at most 96 u per step: 6048 u over
      the window's 63 ratios, 192 u over the last two.  With m the least
      |t| of those 63, 10^(l_c - top) >= min(1, m)^63 (1 - 13,926 u),
      which the float pow times (1 - 2^14 u) stays below.  With
      r = 1 / (t_c t_(c-1)), |r| < 223, |1 - x_(c-2)/x_c| is
      |1 - r 10^-eta| for |eta| <= 192 u, at least |1 - r| - 99,400 u; the
      float |1 - r| errs by at most 674 u, so it stays above that less
      2^17 u, even after that subtraction's rounding.
    """
    err = 0.0
    for done in range(0, budget, ORACLE_CHUNK):
        c = min(done + ORACLE_CHUNK, budget)
        chunk = values[done + 1 : c + 1]
        p = math.prod(chunk)
        if not 0.0 < abs(p) < math.inf:
            return done
        err += (260 * (abs(lm) + err) + 2 ** 17) * _U
        lm += math.log10(abs(p))
        if not _certain_sign(lm - THETA_UP, err) < 0 < _certain_sign(lm - THETA_DOWN, err):
            return done
        lo, hi = min(chunk), max(chunk)
        if lo < 0.0:  # else every ratio is positive: these bound |t| too
            lo, hi = min(map(abs, chunk)), max(map(abs, chunk))
        if not (1.0 / _MODERATE <= lo and hi <= _MODERATE):
            return done
        least = min(map(abs, values[c - TAIL_WINDOW + 2 : c + 1]))
        scale = min(1.0, least) ** (TAIL_WINDOW - 1) * (1.0 - 2 ** 14 * _U)
        gap = abs(1.0 - 1.0 / (values[c] * values[c - 1])) - 2 ** 17 * _U
        if not _surely_apart(scale, gap, tol):
            return done
    return budget


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

    Divergence / vanishing require crossing THETA_UP / THETA_DOWN decades with
    a confirming trend over the trailing 10% of steps; bounded orbits are
    called once their tail (or its even/odd split) stabilizes.

    ``values`` are ratios already walked from this start with these
    ``params``, ``t_0 = x0 / x_minus1`` first, as a list or an
    ``array("d")``.  The oracle reads them chunk by chunk and applies
    the ratio map only past their end, so its answer is the one a walk from
    the start gives.  Without them it knows only ``t_0``.  ``tol`` is the
    tail tolerance, finite and nonnegative.

    Every ratio past them comes from ``walk_on``, as in ``classify``: a
    float cycle the ratios close on is replayed, and its log10 |t| summed in
    the same order.  A check that the last values cannot pass (``_apart``)
    is skipped.  Once the ratios past the known ones repeat a float cycle,
    the checks left are decided from the cycle's k ratios (_closed_class):
    log10 |x_n| gains the cycle's sum of log10 |t| every k steps, and each
    check is answered in closed form with a proven margin for the rounding
    of the sums it replaces.  Where a margin is too thin, the chunks are
    summed and checked as before.

    Where ``values`` cover the whole budget, as for a walk of ``classify``
    that never settled, the chunks are read first from their products
    alone (_first_open_chunk): a chunk counts as decided where log10 |x_n|,
    known within a proven bound from the products so far, stays inside
    (THETA_DOWN, THETA_UP), and the last two ratios and the least of the
    last 63 prove that ``_apart`` passes.  At the first chunk they cannot
    decide, the logs and signs up to it are summed as the loop sums them,
    and the loop runs from there.  None of these changes an answer.
    """
    if budget < ORACLE_MIN_BUDGET:
        raise ValueError(f"need budget >= {ORACLE_MIN_BUDGET}")
    _check_tail_tol(tol)
    t0 = start_ratio(x_minus1, x0)
    if values is None:
        values = [t0]
    elif not values or values[0] != t0:
        raise ValueError("values must start at x0 / x_minus1")
    walked = values  # the latest ratios known
    k = None  # the period of the float cycle they closed on, once they have
    # flat arrays: a 1e5-step walk keeps ~0.9 MB here, not ~4 MB of objects
    logs = array("d", [math.log10(abs(x0))])
    signs = array("b", [1 if x0 > 0 else -1])
    start = 0
    if len(values) > budget:
        # the walk covers the budget: chunk products decide the quiet chunks,
        # and the loop takes over, with its own logs and signs, at the first
        # chunk they cannot decide
        start = _first_open_chunk(values, budget, tol, logs[0])
        if start == budget:
            return UNDETERMINED
        known = values[1 : start + 1]
        logs.fromlist([*accumulate(map(math.log10, map(abs, known)), initial=logs.pop())])
        signs = array("b", _signs(signs[0], known))
    for done in range(start, budget, ORACLE_CHUNK):
        n = min(ORACLE_CHUNK, budget - done)
        # a slice, not a copy of the whole walk; the walk goes on past its end
        ratios = values[done + 1 : done + 1 + n]
        steps = None  # log10 |t| of each ratio, when the cycle's are at hand
        stopped = False
        if len(ratios) < n:
            closing = k is None
            more, k, stopped = walk_on(params, walked, n - len(ratios), k)
            if k and closing:
                # every ratio past ``ratios`` repeats the cycle walked[-k:]
                verdict = _closed_class(logs, ratios, walked[-k:], budget, tol)
                if verdict is not None:
                    return verdict
            if k and not ratios:  # a chunk replayed whole: its log10 |t| repeat with the cycle
                cycle_logs = [math.log10(abs(r)) for r in walked[-k:]]
                steps = (cycle_logs * (n // k + 1))[:n]
            ratios = walked = [*ratios, *more]
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
            if math.isnan(lost):  # a ratio that is not a number tells nothing
                return UNDETERMINED
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
