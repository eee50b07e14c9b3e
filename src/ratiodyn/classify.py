"""Decision trees mapping an identified ratio limit to a verdict for {x_n}.

The theorems only ever give sufficient conditions; every case they leave open
is reported as undetermined rather than guessed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import repeat

from .criteria import S_second_at_q, R_second_at_1, kappa, l_quantity
from .cycles import TwoCycle, find_two_cycles
from .outcomes import (
    ALL_CLASSES,
    CONVERGES_TO_EQUILIBRIUM,
    CONVERGES_TO_TWO_CYCLE,
    CONVERGES_TO_ZERO,
    DIVERGES_TO_INFINITY,
    HYPOTHESIS_VIOLATED,
    ITERATION_STOPS,
    UNDETERMINED,
)
from .ratio_map import (
    Equilibrium,
    Parameters,
    classify_multiplier,
    critical_points,
    equilibria,
    phi,
    phi_prime,
)
from .simulate import (
    DECREASING,
    INCREASING,
    RatioTrajectory,
    COMPLETED,
    _check_tail_tol,
    detect_ratio_limit,
    empirical_class,
    solution_trajectory,
    start_ratio,
    subsequence_monotonicity,
    walk_on,
)
from .tolerances import (
    DEFAULT_BUDGET, EPS_CRIT, EPS_SEARCHED, ORACLE_MIN_BUDGET, ROOT_TOL,
    TAIL_TOL, TAIL_WINDOW,
)

__all__ = [
    "Verdict",
    "classify_equilibrium_limit",
    "classify_cycle_limit",
    "classify_remark",
    "classify",
]

# monotonic-structure descriptors attached to verdicts
EVEN_ODD_OPPOSITE = "one_of_even_odd_increasing_other_decreasing"
WHOLE_MONOTONE = "whole_sequence_monotone"
WHOLE_INCREASING = "whole_sequence_increasing"
WHOLE_DECREASING = "whole_sequence_decreasing"
EVEN_AND_ODD_INCREASING = "even_and_odd_increasing"
EVEN_AND_ODD_MONOTONE = "even_and_odd_monotone"
FOUR_PHASE_ALTERNATING = "four_phase_two_increasing_two_decreasing"
FOUR_PHASE_INCREASING = "four_phase_increasing"
FOUR_PHASE_DECREASING = "four_phase_decreasing"

#: the ratio orbit must land on the limit within this many steps (and stay)
#: for the exact-landing (preimage set) branch to fire
LANDING_STEPS = 50
LANDING_TOL = 1e-12
#: classify checks the ratio orbit's tail after FIRST_CHECK steps, doubling
#: up to CHUNK, then every CHUNK steps; a check reads a detector window
FIRST_CHECK = TAIL_WINDOW
CHUNK = 1024
#: a detected tail names a known equilibrium or 2-cycle within this relative
#: distance
MATCH_TOL = 1e-3
#: a walk that closes on a float cycle stops at closure only where each of
#: the last two quarters of a walk to its budget would replay this many
#: whole periods: m / (m + 1) >= 21/22 then keeps the late quarter's mean
#: distance to any limit above 0.95 times the early one's
_WHOLE_PERIODS = 21

# the certificates' rounding (see _enclose): u = 2^-53 is the unit roundoff
# of a double, _PAD the pad on a float evaluation per unit of the absolute
# values of its terms, and _UP / _DOWN turn a float computed from bounds
# into a bound on the safe side
_U = 2.0 ** -53
_PAD = 16.0 * _U
_UP = 1.0 + _PAD
_DOWN = 1.0 - _PAD
#: a certificate declines unless a, b, d, a nonzero |c| and every window
#: end lie within [_TINY, _HUGE]: there no product or quotient it forms
#: leaves the normal floats
_TINY = 2.0 ** -50
_HUGE = 2.0 ** 50
#: _repels_everywhere follows each critical orbit at most this many steps
_ESCAPE_STEPS = 32


@dataclass(frozen=True, slots=True)
class Verdict:
    asymptotic_class: str
    rule: str
    monotonic_structure: str | None = None
    conditional: bool = False
    notes: str = ""


# one shared note string per oracle class, for callers that keep many verdicts
_ORACLE_NOTES = {c: f"oracle={c}" for c in ALL_CLASSES}


@functools.lru_cache(maxsize=1024)
def _noted(v, note):
    """``v`` with ``note`` appended to its notes.  classify's verdicts take
    few distinct values, so each is built once and shared, for callers that
    keep many verdicts."""
    return dataclasses.replace(v, notes=note if not v.notes else f"{v.notes}; {note}")


def _unit_band(params):
    """The band within which an equilibrium counts as t = 1: the searched band
    only when the quartic actually has a root at 1 (the coefficients sum to 1)."""
    at_one = abs(params.a + params.b + params.c + params.d - 1.0) <= EPS_CRIT
    return EPS_SEARCHED if at_one else EPS_CRIT


def classify_equilibrium_limit(
    params: Parameters,
    eq: Equilibrium,
    orbit_evidence: str | None = None,
) -> Verdict:
    """Verdict for an orbit whose ratios converge to the equilibrium ``eq``.

    ``orbit_evidence`` ("increasing" / "decreasing") is only consulted in the
    neutral case sigma = -1, where the theorem branches on the eventual
    monotonicity of {x_n} itself.
    """
    t = eq.value
    if abs(phi(params, t) - t) > EPS_SEARCHED * max(1.0, abs(t)):
        raise ValueError(f"{t!r} is not an equilibrium of the ratio map")
    band = _unit_band(params)
    if t > 1.0 + band:
        return Verdict(DIVERGES_TO_INFINITY, "T1.a")
    if t < 1.0 - band:
        return Verdict(CONVERGES_TO_ZERO, "T1.b")
    a, b, c, d = params.a, params.b, params.c, params.d
    if abs(a + b + c + d - 1.0) > EPS_CRIT:
        raise ValueError("equilibrium at 1 requires a + b + c + d = 1")
    sigma = b + 2.0 * c + 3.0 * d
    if abs(sigma) < 1.0 - EPS_CRIT:
        structure = EVEN_ODD_OPPOSITE if sigma > 0.0 else WHOLE_MONOTONE
        return Verdict(CONVERGES_TO_EQUILIBRIUM, "T1.c1", structure)
    if abs(sigma + 1.0) <= EPS_CRIT:
        if orbit_evidence == DECREASING:
            return Verdict(CONVERGES_TO_EQUILIBRIUM, "T1.c2", WHOLE_DECREASING)
        if orbit_evidence == INCREASING:
            if c > -3.0 * d:
                return Verdict(DIVERGES_TO_INFINITY, "T1.c2", WHOLE_INCREASING)
            return Verdict(
                UNDETERMINED, "T1.c2", WHOLE_INCREASING,
                notes="increasing with c <= -3d: outcome not covered",
            )
        return Verdict(UNDETERMINED, "T1.c2", notes="no orbit monotonicity evidence")
    if abs(sigma - 1.0) <= EPS_CRIT:
        if R_second_at_1(params) > 0.0:
            return Verdict(DIVERGES_TO_INFINITY, "T1.c3", EVEN_AND_ODD_INCREASING)
        return Verdict(
            UNDETERMINED, "T1.c3", EVEN_AND_ODD_INCREASING,
            notes="R''(1) <= 0: outcome not covered",
        )
    return Verdict(
        HYPOTHESIS_VIOLATED, "T1.c",
        notes="|phi'(1)| > 1: ratios cannot converge to 1 off the preimage set",
    )


def _as_unit(cycle):
    if cycle.unit_product:
        return cycle
    return dataclasses.replace(cycle, unit_product=True)


def classify_cycle_limit(
    params: Parameters,
    cycle: TwoCycle,
    orbit_evidence: str | None = None,
) -> Verdict:
    """Verdict for an orbit whose ratios converge to the 2-cycle ``cycle``.

    Its product and multiplier count as 1 within the searched band, since
    cycles come out of a root search.  ``orbit_evidence`` is only consulted
    when the multiplier equals 1, where the theorem branches on whether the
    even/odd subsequences increase."""
    p, q = cycle.p, cycle.q
    if (
        abs(phi(params, p) - q) > EPS_SEARCHED * max(1.0, q)
        or abs(phi(params, q) - p) > EPS_SEARCHED * max(1.0, p)
    ):
        raise ValueError(f"({p!r}, {q!r}) is not a 2-cycle of the ratio map")
    pq = cycle.product
    if pq > 1.0 + EPS_SEARCHED:
        return Verdict(DIVERGES_TO_INFINITY, "T2.a")
    if pq < 1.0 - EPS_SEARCHED:
        return Verdict(CONVERGES_TO_ZERO, "T2.b")
    mu = cycle.multiplier
    if abs(mu) < 1.0 - EPS_SEARCHED:
        structure = FOUR_PHASE_ALTERNATING if mu < 0.0 else EVEN_AND_ODD_MONOTONE
        return Verdict(CONVERGES_TO_TWO_CYCLE, "T2.c1", structure)
    if abs(mu - 1.0) <= EPS_SEARCHED:
        if orbit_evidence == DECREASING:
            return Verdict(CONVERGES_TO_TWO_CYCLE, "T2.c2", EVEN_AND_ODD_MONOTONE)
        if orbit_evidence == INCREASING:
            if kappa(params, _as_unit(cycle)) > 0.0:
                return Verdict(DIVERGES_TO_INFINITY, "T2.c2", EVEN_AND_ODD_MONOTONE)
            return Verdict(
                UNDETERMINED, "T2.c2", EVEN_AND_ODD_MONOTONE,
                notes="increasing with kappa <= 0: outcome not covered",
            )
        return Verdict(UNDETERMINED, "T2.c2", notes="no orbit monotonicity evidence")
    if abs(mu + 1.0) <= EPS_SEARCHED:
        unit = _as_unit(cycle)
        l = l_quantity(params, unit)
        if l < 0.0:
            return Verdict(CONVERGES_TO_TWO_CYCLE, "T2.c3", FOUR_PHASE_DECREASING)
        if l > 0.0:
            if S_second_at_q(params, unit) > 0.0:
                return Verdict(DIVERGES_TO_INFINITY, "T2.c3", FOUR_PHASE_INCREASING)
            return Verdict(
                UNDETERMINED, "T2.c3", FOUR_PHASE_INCREASING,
                notes="l > 0 with S''(q) <= 0: outcome not covered",
            )
        return Verdict(UNDETERMINED, "T2.c3", notes="l = 0: outcome not covered")
    return Verdict(
        HYPOTHESIS_VIOLATED, "T2.c",
        notes="|phi'(p) phi'(q)| > 1: ratios cannot converge to the cycle off the preimage set",
    )


def classify_remark(params: Parameters, tol: float = ROOT_TOL) -> Verdict | None:
    """Trapping-interval verdict for parameter regions where the ratio orbit
    need not converge; always conditional (its hypotheses come from results
    that cannot be checked here).

    Applies when positive critical points exist, every equilibrium sits below
    the minimum point x_m, and the trapping interval lies on the positive axis.
    """
    if critical_points(params) is None:
        return None
    return _trapping_remark(params, equilibria(params, tol))


def _trapping_remark(params, eqs):
    """classify_remark for a set whose positive equilibria ``eqs`` are
    already rooted."""
    cps = critical_points(params)
    if cps is None:
        return None
    if any(e.value >= cps.x_m for e in eqs):
        return None
    f1 = phi(params, cps.x_m)
    if f1 <= 0.0:
        return None
    if f1 >= 1.0:
        return Verdict(
            DIVERGES_TO_INFINITY, "R1", conditional=True,
            notes=f"phi(x_m) = {f1!r} >= 1",
        )
    f2 = phi(params, f1)
    if f2 <= 1.0:
        return Verdict(
            CONVERGES_TO_ZERO, "R1", conditional=True,
            notes=f"phi^2(x_m) = {f2!r} <= 1",
        )
    return None


def _landing_index(values, points):
    """First step at which the orbit sits on the limit set (1e-12 relative)
    and never leaves; None if it leaves again or lands too late."""
    def on_limit(t):
        return any(abs(t - v) <= LANDING_TOL * max(1.0, abs(v)) for v in points)

    window = values[: LANDING_STEPS + 1]
    first = next((k for k, t in enumerate(window) if on_limit(t)), None)
    if first is None or first > len(values) - 2:
        return None
    if all(on_limit(t) for t in values[first:]):
        return first
    return None


def _nearest_equilibrium(eqs, value):
    if not math.isfinite(value):  # inf - inf <= MATCH_TOL inf would match anything
        return None
    best = None
    for e in eqs:
        if abs(e.value - value) <= MATCH_TOL * max(1.0, abs(value)):
            if best is None or abs(e.value - value) < abs(best.value - value):
                best = e
    return best


def _nearest_cycle(cycles, lo, hi):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    for cyc in cycles:
        if (
            abs(cyc.p - lo) <= MATCH_TOL * max(1.0, abs(lo))
            and abs(cyc.q - hi) <= MATCH_TOL * max(1.0, abs(hi))
        ):
            return cyc
    return None


def _phi_padded(params, t):
    """phi(t) as the ratio walk computes it, and a pad that exceeds its
    rounding error (see _enclose)."""
    a, b, c, d = params.a, params.b, params.c, params.d
    f = (((a * t + b) * t + c) * t + d) / (t * t * t)
    return f, _PAD * (a + (b + (abs(c) + d / t) / t) / t)


def _slope_bound(params, lo, hi):
    """A float at least sup |phi'| over [lo, hi] (see _enclose).

    phi'(t) = -g(t) / t^4 with g(t) = b t^2 + 2 c t + 3 d.  g is convex
    (b > 0), so |g| on [lo, hi] peaks at an end, or at g's vertex -c / b,
    where -g = c^2 / b - 3 d, if the vertex lies in [lo, hi].  The vertex
    counts whenever its float quotient lies within 4 u of [lo, hi], as it
    does when the vertex itself lies in it; counting it needlessly only
    raises the bound.
    """
    b, c, d = params.b, params.c, params.d
    top = max(abs((b * lo + 2.0 * c) * lo + 3.0 * d), abs((b * hi + 2.0 * c) * hi + 3.0 * d))
    if lo * (1.0 - 4.0 * _U) <= -c / b <= hi * (1.0 + 4.0 * _U):
        top = max(top, c * c / b - 3.0 * d)
    top += _PAD * ((b * hi + 2.0 * abs(c)) * hi + 3.0 * d)
    return top / (lo * lo * lo * lo) * _UP


def _enclose(params, m, r):
    """One mean-value step of the window [m - r, m + r], m a float and
    r >= 0, rounded outward: (f, s, L, pad), with f the ratio walk's float
    phi(m) and pad >= |f - phi(m)|, whatever its sign (_phi_padded).
    lo = (m - r) _DOWN and hi = (m + r) _UP hold the window,
    L = _slope_bound(lo, hi) >= sup |phi'| on [lo, hi], and
    s = (L r + pad) _UP: by the mean value theorem, phi maps the window
    into [f - s, f + s].  None where lo or hi leaves [_TINY, _HUGE].  Every
    certificate steps through here, and this proof covers its bounds.

    Rounding.  Let u = 2^-53.  With a, b, d, a nonzero |c| and every window
    end in [_TINY, _HUGE], no product or quotient formed here leaves the
    normal floats, and a difference that comes out small is exact.  So
    each float operation errs by at most u relative to its exact result.
    Then (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., SIAM 2002, sections 3.1 and 5.1; for the enclosures, Moore,
    Kearfott and Cloud, *Introduction to Interval Analysis*, SIAM 2009):

    - phi(t) by the walk's Horner form and quotient (9 operations) errs by
      at most 10 u A, where A = a + b/t + |c|/t^2 + d/t^3 is the sum of the
      absolute values of its terms;
    - g(t) = b t^2 + 2 c t + 3 d (5 operations) errs by at most
      6 u B(t), B(t) = b t^2 + 2 |c| t + 3 d, and B(lo) <= B(hi);
    - c^2/b - 3 d errs by at most 4 u (c^2/b + 3 d), and c^2/b + 3 d is at
      most B(-c/b), which is under (1 + 11 u) B(hi) where the vertex counts.

    The pads are 16 u times the float A or B(hi).  That exceeds each error
    by at least 5 u A (or 5 u B), which covers the pad's own roundings and
    those of the sum it is added to.  Every other bound, here or in a
    certificate that reads these, is built from floats that are themselves
    bounds by at most 8 roundings of nonnegative values, each within a
    factor (1 + u)^(+-1) of exact, and then multiplied by _UP = 1 + 16 u or
    _DOWN = 1 - 16 u.  Since (1 + u)^-9 (1 + 16 u) > 1 > (1 + u)^9 (1 - 16 u),
    an upper bound times _UP, and a lower bound times _DOWN, stays on its
    safe side: lo, hi, L and s here, and a certificate's rates, residuals
    and window ends.  A lower end that comes out at or below 0, which
    _DOWN does not lower, fails the test that needs it positive (or, as the
    left end of a window a certificate must lie in, makes its test hold as
    it should).  A value that comes out inf or nan fails every test that
    accepts.
    """
    lo, hi = (m - r) * _DOWN, (m + r) * _UP
    if not (_TINY <= lo and hi <= _HUGE):
        return None
    f, pad = _phi_padded(params, m)
    slope = _slope_bound(params, lo, hi)
    return f, (slope * r + pad) * _UP, slope, pad


def _certify(values, params):
    """The equilibrium or 2-cycle that a settled tail's ``values``, (m,) or
    (p, q) with p < q, point at, where phi (or phi∘phi) provably contracts
    a window around the tail into itself and the limit lies off the unit
    band, with the rate L and the residual r below; else None.  It names
    the limit _identify's root matching would name, without rooting a
    polynomial, and only where the verdict is T1.a, T1.b, T2.a or T2.b.

    The contraction test.  Let x be the first value, G = phi for an
    equilibrium and phi∘phi for a 2-cycle, and I = [x - w, x + w] with
    w = MATCH_TOL max(1, x), the window _nearest_equilibrium and
    _nearest_cycle search around x.  _enclose(x, w) gives the float
    f = phi(x), its pad e, L_1 >= sup_I |phi'| and J = f +- s, which holds
    phi(I).  For an equilibrium, L = L_1 and r = |f - x| + e.  For a
    2-cycle, _enclose(f, s) gives the float f2 = phi(f), its pad e2 and
    L_J >= sup_J |phi'|; then L = L_1 L_J bounds sup_I |G'|, and
    r = |f2 - x| + e2 + L_J e bounds |G(x) - x|, as phi(x) and f both lie
    in J.  Where L < 1 and r <= (1 - L) w, |G(t) - x| <= L |t - x| + r <= w
    for t in I: G maps I into itself and contracts it, so I holds exactly
    one fixed point x* of G, with |G'| <= L there, which attracts.  The test
    takes L < 1 - EPS_SEARCHED, the margin the walk's early checks ask of
    an attracting limit.  Every bound is rounded outward (_enclose).

    Equilibrium, x = m.  x* is the one _nearest_equilibrium names, named as
    (m, phi'(m)) only where I, rounded outward, lies wholly above
    1 + _unit_band or wholly below 1 - _unit_band, a test that runs first.

    2-cycle, x = p.  Since |p - p*| <= |p - G(p)| + L |p - p*|, p* lies in
    P = p +- r / (1 - L), and q* = phi(p*) in Q = f +- (L_1 r / (1 - L) + e).
    If P lies below Q, then p* < q* and (p*, q*) is a 2-cycle.  If Q also
    lies in _nearest_cycle's window around q, it is the cycle that names.
    It is named, as (p, f, p f, phi'(p) phi'(f)), only where p* q*, which
    lies between lo(P) lo(Q) and hi(P) hi(Q), lies above 1 + EPS_SEARCHED
    or below 1 - EPS_SEARCHED.  p lies in P and f in Q, so p < f, and the
    float p f lies on the side of 1 that p* q* lies on.

    The certificate also declines where the value it names fails the
    phi-closure test that classify_equilibrium_limit or
    classify_cycle_limit makes of it, as it can at a coarse ``tol``.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    if not (
        _TINY <= min(a, b, d) and max(a, b, d, abs(c)) <= _HUGE
        and (c == 0.0 or _TINY <= abs(c))
    ):
        return None
    x = values[0]
    w = MATCH_TOL * max(1.0, x)
    period = len(values)
    if period == 1:
        band = _unit_band(params)
        if not ((x - w) * _DOWN > 1.0 + band or (x + w) * _UP < 1.0 - band):
            return None
    step = _enclose(params, x, w)
    if step is None:
        return None
    f, spread, rate, pad = step
    if period == 1:
        r = (abs(f - x) + pad) * _UP
    else:
        back = _enclose(params, f, spread)
        if back is None:
            return None
        f2, _, slope_j, pad2 = back
        slope_p, rate = rate, rate * slope_j * _UP
        r = (abs(f2 - x) + pad2 + slope_j * pad) * _UP
    if not (rate < 1.0 - EPS_SEARCHED and r <= (1.0 - rate) * w * _DOWN):
        return None
    if period == 1:
        if not abs(phi(params, x) - x) <= EPS_SEARCHED * max(1.0, x):
            return None
        mu = phi_prime(params, x)
        return Equilibrium(x, mu, classify_multiplier(mu)), rate, r

    p, q = values
    dp = r / ((1.0 - rate) * _DOWN) * _UP
    dq = (slope_p * dp + pad) * _UP
    p_hi, q_lo, q_hi = (p + dp) * _UP, (f - dq) * _DOWN, (f + dq) * _UP
    wq = MATCH_TOL * max(1.0, q)
    if not (
        p_hi < q_lo and (q - wq) * _UP <= q_lo and q_hi <= (q + wq) * _DOWN
        and (
            (p - dp) * q_lo * _DOWN > 1.0 + EPS_SEARCHED
            or p_hi * q_hi * _UP < 1.0 - EPS_SEARCHED
        )
        and abs(phi(params, p) - f) <= EPS_SEARCHED * max(1.0, f)
        and abs(phi(params, f) - p) <= EPS_SEARCHED * max(1.0, p)
    ):
        return None
    return TwoCycle(p, f, p * f, phi_prime(params, p) * phi_prime(params, f), False), rate, r


def _in_basin(params, values, done, budget, tol):
    """The equilibrium off the unit band that the walk's ratios converge to
    from t = values[-1], the ratio at the check c = ``done``, where the
    walk's verdict is provably that equilibrium's (T1.a or T1.b); else
    None.  It runs _certify((t,)) before the detector reads the check's
    window, and names the equilibrium only where the three conditions below
    hold, so that the walk may stop at c.

    Notation.  u = 2^-53, T = max(1, t), w = MATCH_TOL T, J = [t - w, t + w]
    and scale = T - w, rounded down.  A float mean of at most 64 finite
    values in [x, y] lies in [x - gamma V, y + gamma V], V the largest |v|
    and gamma = 64 u / (1 - 64 u) < 2^-46 (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., SIAM 2002, section 4.2; the division
    by 32 or 64 is exact).  The probe requires 32 tol <= MATCH_TOL, that is
    8 tol T <= w / 4, and a check at ``budget`` whose window starts g >= 0
    steps past c.  Every later check but the one at ``budget`` lies at
    least TAIL_WINDOW steps past the one before it, so every later window
    lies in steps c, c + 1, ....

    Contraction.  _certify((t,)) holds: J lies off the unit band on one
    side and holds exactly one equilibrium e*, and its L and r give
    |t - e*| <= r + L |t - e*|, so |t - e*| <= dev = r / (1 - L).  The
    walk's float phi(s) errs by at most 10 u A(s) for s in J, and A
    decreases in s, so by at most P, the pad _phi_padded gives at J's low
    end.  Let noise = P / (1 - L) and D = dev + noise.  Each bound below is
    rounded to its safe side (_enclose), and tol is a normal float, as
    condition 1 requires.

    1. |t - s| + 2^-45 T <= 7 tol T, s = values[-2]: this check reports no
       2-cycle.  Its 2-cycle test holds t in the window's odd half and s in
       the even half.  It passes only where each half spreads by at most
       fl(tol M_h) <= tol M (1 + 3u), M_h = max(1, |half mean|) <= M =
       max(1, |me|, |mo|), and |me - mo| > 10 tol M (1 - 3u).  The mean
       bound gives |mo - t| + |me - s| <= 2 tol M (1 + 3u)(1 + gamma) +
       gamma (|t| + |s|), and then M (1 + 1.01 tol) >= t (1 - gamma), so
       M >= 0.9999 T.  Together, |t - s| (1 + gamma) + 2 gamma t > 7.98 tol T,
       which the test rules out, as 2 gamma t < 2^-45 T.
    2. r + P <= (1 - L) w and D + 2^-45 T <= 4 tol scale: the float walk
       stays in J, and no later check reports a 2-cycle.  For a float s in
       J, |fl(phi(s)) - t| <= P + L |s - t| + r <= w, so every ratio from c
       on lies in J, none is 0 or not finite, and by induction
       |t_(c+g) - e*| <= L^g dev + P (1 + L + ... + L^(g-1)) <= L^g dev +
       noise <= D.  So a later window lies in [e* - D, e* + D], its half
       means differ by at most 2 D + 2 gamma (e* + D) < 8 tol scale, and
       each exceeds t - w, as D <= 4 tol T <= w / 8: so M >= scale, and
       10 tol M (1 - 3u) exceeds that difference.
    3. 2 (L^g dev + noise) <= tol scale, g = budget - 63 - c: the check at
       ``budget`` reports an equilibrium.  Its window lies in
       [e* - B, e* + B], B = L^g dev + noise, so it spreads by at most 2 B,
       and its mean, finite, exceeds t - w as above, so the equilibrium
       test's bound is at least tol scale (1 - u).

    The verdict.  By 1 to 3 the walk from c reports at each check no limit
    or an equilibrium, and an equilibrium at ``budget`` at the latest.  Any
    mean m it reports lies within w / 4 of t: at c, |m - t| <=
    1.0001 tol T + 1.01 gamma T <= w / 16; later, |m - e*| <= D + gamma
    (t + D) and |e* - t| <= dev, so |m - t| < 2 D + 2^-46 T < 8 tol T.
    Where _certify names a limit at m, its window and J share m, so it
    lies on J's side of the band.  Where it declines, the roots are
    matched: granted that the quartic's root search returns each positive
    equilibrium within w / 8 (the premise of _certify's claim), e*'s root
    lies within w / 2 of m, inside the match window of at least 0.99 w, and
    every other one, outside J, more than 5 w / 8 away, so
    _nearest_equilibrium names e*'s, which lies in J.  A
    named limit that an early check does not accept only lets the walk go
    on.  A float cycle the walk closes on lies within noise of e*, as its
    values recur at every later step, so every rotation of it settles (3),
    and _settles_nowhere declines.  At step CHUNK, e*'s root has |phi'| <= L,
    so a limit is a candidate.  So the walk ends at a detection that names
    an equilibrium on J's side, and its verdict is this one's.
    """
    t, s = values[-1], values[-2]
    big = t if t > 1.0 else 1.0
    # condition 1 first, as it rejects most walks that have not settled; a
    # nan t fails here, an infinite one in _certify, and tol = 0 here
    if not abs(t - s) + 2.0 ** -45 * big <= 7.0 * tol * big:
        return None
    g = budget - TAIL_WINDOW + 1 - done
    if not (g >= 0 and 32.0 * tol <= MATCH_TOL):
        return None
    w = MATCH_TOL * big
    certified = _certify((t,), params)
    if certified is None:
        return None
    eq, rate, r = certified
    gap = (1.0 - rate) * _DOWN  # at most 1 - L
    pad = _phi_padded(params, (t - w) * _DOWN)[1]
    dev, noise = r / gap * _UP, pad / gap * _UP
    scale = (big - w) * _DOWN
    if not (
        (r + pad) * _UP <= gap * w * _DOWN
        and (dev + noise) * _UP + 2.0 ** -45 * big <= 4.0 * tol * scale * _DOWN
        and 2.0 * (rate ** g * dev + noise) * _UP <= tol * scale * _DOWN
    ):
        return None
    return eq


def _flip_taylor(params):
    """The Taylor coefficients at t = 1, ascending, of N and of q for the
    surface point of _flips_to_one, as exact rationals.  They are formed
    as integers over a power of 2, D, that the float a and b share: D N
    and D^4 q have integer coefficients."""
    from fractions import Fraction  # only the flip band reads exact rationals

    (a, da), (b, db) = params.a.as_integer_ratio(), params.b.as_integer_ratio()
    D = max(da, db)
    a, b = a * (D // da), b * (D // db)
    c, d = 2 * D - 3 * a - 2 * b, 2 * a + b - D
    n = [a + b + c + d, 3 * a + 2 * b + c, 3 * a + b, a]  # D N(1 + e)
    # with a, b, c, d here D times a, b, c', d' and n = D N:
    # D^4 (M - t N^3) = (((a - D t) n + b D t^3) n + c D^2 t^6) n + d D^3 t^9,
    # whose terms of degree 0 to 2 in e vanish
    p = [a - D, -D]
    for coef, power in ((b * D, 3), (c * D * D, 6), (d * D ** 3, 9)):
        out = [coef * math.comb(power, j) for j in range(len(p) + 3)]  # p n + coef t^power
        for i, x in enumerate(p):
            for j, y in enumerate(n):
                out[i + j] += x * y
        p = out
    return [Fraction(x, D) for x in n], [Fraction(x, D ** 4) for x in p[3:]]


def _flips_to_one(taylor, values):
    """Whether the exact ratio orbit from t = values[-1], the walk's ratio
    at a check, provably converges to t = 1, on the flip band; ``taylor``
    is _flip_taylor's.  Where it does, the walk may end there with the
    equilibrium at 1, whose verdict is T1.c3's.

    Premise.  As the T1.c3 branch does, the probe takes
    |a + b + c + d - 1| <= EPS_CRIT and |sigma - 1| <= EPS_CRIT for the
    surface, and reasons about its one point with the float a and b:
    c' = 2 - 3a - 2b and d' = 2a + b - 1, on both surfaces.  Let
    N = a t^3 + b t^2 + c' t + d', so phi(t) = N / t^3, and g = phi∘phi.
    For t != 0 with N(t) != 0, g(t) = M / N^3 with
    M = a N^3 + b N^2 t^3 + c' N t^6 + d' t^9.  At the flip phi(1) = 1 and
    phi'(1) = -1, so g(1) = 1, g'(1) = 1 and g''(1) = 0: (t - 1)^3 divides
    M - t N^3, q is the quotient, of degree 7, and
    g(t) - t = (t - 1)^3 k(t) with k = q / N^3 (Dannan, Elaydi and
    Ponomarenko, *J. Difference Equ. Appl.* 9, 2003; Kuznetsov, *Elements
    of Applied Bifurcation Theory*, 3rd ed., 2004, ch. 4).  k(1) = q(1) is
    C = -(2 phi'''(1) + 3 phi''(1)^2) / 6.

    The window.  Let t = values[-1], delta the larger of |t - 1| and
    |phi(t) - 1|, both exact, and W = [1 - delta, 1 + delta].  With n_j and
    q_j the Taylor coefficients at 1, on W N is at least
    N_lo = n_0 - sum |n_j| delta^j (j >= 1), q at most
    q_0 + sum |q_j| delta^j and |q| at most Q = |q_0| + sum |q_j| delta^j.
    The probe requires N_lo > 0, that bound on q below 0, and
    delta^2 Q < N_lo^3.  As n_1 = N'(1) = 3a + 2b + c' = 2, N_lo > 0 gives
    delta < 1/2.  Then on W, t > 0 and N > 0, so g is defined and
    continuous, k < 0 and (t - 1)^2 |k| < 1.  So for t != 1 in W,
    g(t) - 1 = (t - 1) h(t) with h = 1 + (t - 1)^2 k in (0, 1): g(t) lies
    strictly between t and 1, in W.  The iterates of g from a point of W
    are monotone and stay in W, so they converge to a fixed point of g in
    W, which is 1, as h < 1 elsewhere.  t and phi(t) lie in W, so both
    parities of the orbit from t converge to 1.

    The probe also declines where one of the first LANDING_STEPS + 1
    ratios lies within LANDING_TOL of 1, so that the landing test still
    reads the whole walk there.
    """
    t = values[-1]
    n, q = taylor
    # a t outside (0, 2), nan or inf included, has delta >= 1 > 1/2
    if not (0.0 < t < 2.0 and q[0] < 0) or any(
        abs(v - 1.0) <= LANDING_TOL for v in values[: LANDING_STEPS + 1]
    ):
        return False
    from fractions import Fraction

    s = Fraction(t)
    e = s - 1
    at_t = ((n[3] * e + n[2]) * e + n[1]) * e + n[0]  # N(t)
    delta = max(abs(e), abs(at_t / s ** 3 - 1))

    def spread(coefs):  # the sum over j >= 1 of |coefs[j]| delta^j
        out = 0
        for x in reversed(coefs[1:]):
            out = (out + abs(x)) * delta
        return out

    n_lo, q_spread = n[0] - spread(n), spread(q)
    return n_lo > 0 and q[0] + q_spread < 0 and delta * delta * (q_spread - q[0]) < n_lo ** 3


def _turns_negative(params, m, r):
    """Whether the orbit of every point of [m - r, m + r] lies in
    [_TINY, _HUGE] for some steps and then wholly below 0, within
    _ESCAPE_STEPS steps; the enclosures are _repels_everywhere's."""
    # the float orbit of m, on which the enclosures are centred, finds the
    # step at which they must lie below 0, and declines at little cost
    t, steps = m, 0
    while not t < 0.0:
        if not (_TINY <= t <= _HUGE and steps < _ESCAPE_STEPS):
            return False
        t = _phi_padded(params, t)[0]
        steps += 1
    for _ in range(steps):
        step = _enclose(params, m, r)
        if step is None:
            return False
        m, r = step[:2]
    return m + r < 0.0


def _repels_everywhere(params):
    """True where every positive cycle of phi, of any period, provably
    repels (|multiplier| > 1), from the orbits of phi's two positive
    critical points x_m < x_M and of a = phi(inf); else False.  Then no
    positive equilibrium or 2-cycle is a limit the ratios can near without
    landing on it, and neither polynomial need be rooted to say so.

    The certificate holds where c < 0, c^2 > 3 b d, and each of x_m, x_M
    and a has an orbit that lies in [_TINY, _HUGE] for some steps and then
    below 0, within _ESCAPE_STEPS steps: it turns negative.

    Negative Schwarzian.  With s = 1/t, phi(t) = P(s) for
    P(s) = a + b s + c s^2 + d s^3, and 1/t is a Moebius map, so the chain
    rule S(f o g) = (S f o g) g'^2 + S g gives
    S(phi)(t) = S(P)(1/t) / t^4 = -6 Q(1/t) / (P'(1/t)^2 t^4), where
    Q(s) = 6 d^2 s^2 + 4 c d s + c^2 - b d.  Q's discriminant is
    8 d^2 (3 b d - c^2) < 0, so Q > 0 on the whole line, and S(phi) < 0 at
    every t != 0 where phi' != 0; by the chain rule, S(phi^n) < 0 wherever
    phi^n is defined and (phi^n)' != 0.  Where S(G) < 0 and G' > 0 on an
    interval, v = G'^(-1/2) has v'' = -v S(G) / 2 > 0 there: v is strictly
    convex.  For c < 0 the positive critical points, the roots of
    b t^2 + 2 c t + 3 d, are x_M = (-c + sqrt(c^2 - 3 b d)) / b and
    x_m = 3 d / (-c + sqrt(c^2 - 3 b d)), neither of which cancels.

    The immediate basin (after Singer, *SIAM J. Appl. Math.* 35, 1978; de
    Melo and van Strien, *One-Dimensional Dynamics*, Springer 1993,
    section II.6).  Let O = {p_0, ..., p_(k-1)} be a positive cycle with
    multiplier mu, |mu| <= 1.  Call a component of O's basin (the t whose
    every iterate is defined and whose orbit converges to O) immediate
    where its closure meets O.  An immediate component C is connected,
    misses 0 and has a positive point of O in its closure, so C lies in
    (0, inf); phi(C) is connected, lies in the basin and has a point of O
    in its closure, so it lies in an immediate component.  Let K be the
    union of their closures, within [0, inf].  Where x in K is positive
    and finite, phi is continuous at x, so phi(x) lies in K too: an orbit
    from K is never negative while it lasts.  So none of x_m, x_M and a,
    each of which the certificate shows turns negative, lies in K.  Yet
    one of them does:

    - mu = 0.  Some p_i is a critical point, and O lies in K.
    - Else let G = phi^(2k), G(p) = p for p = p_0, and G'(p) = mu^2 in
      (0, 1].  If mu^2 < 1, p attracts.  If mu^2 = 1, S(G)(p) < 0 gives
      G''(p) != 0, or G''(p) = 0 and G'''(p) < 0; either way G(t) - t has
      the sign of p - t on one side of p at least, whose points G moves
      monotonically to p.  So an open interval with p in its closure
      lies in the basin B of p under G.  Let W = (l, r) be the component
      of B's interior that holds it.  W lies in the basin of O and p in
      its closure, so W lies in an immediate component.
    - A critical point z of G in W.  Then phi^j(z) is a critical point of
      phi for some j < 2k, positive as the orbit of z stays in immediate
      components, so it is x_m or x_M, and lies in K.
    - Else G' > 0 on W, and G maps W onto an open interval in B, so in
      its interior, that meets W: G(W) lies in W.  An end e of W that is
      0, inf or a pole of G (phi^j(e) = 0 for some 1 <= j < 2k).  As
      t -> e within W, phi^i(t) -> 0 for the least such i (0 for e = 0),
      then phi^(i+1)(t) -> +-inf and phi^(i+2)(t) -> a, as
      phi(s) = P(1/s) -> P(0) = a; for e = inf, phi(t) -> a.  The image of W under that iterate is connected, lies
      in the basin and has a point of O in its closure, so it lies in an
      immediate component, and a lies in K.
    - Else G is continuous at both ends, in (0, inf).  G(l) lies in the
      closure of W, and not in W: else a neighbourhood of l would map
      into W, lie in B, and widen W.  So G(l), G(r) lie in {l, r}, and
      G(l) < G(r) as G increases: G(l) = l and G(r) = r.  If G' = 0 at an
      end e, phi^j(e) is x_m or x_M, positive and in K as above.  Else
      v is strictly convex on [l, r].  By the mean value theorem G' = 1 at
      some s in (p, r), and at some s' in (l, p) where l < p.  If p lies
      in W, then v(s') = v(s) = 1 <= v(p) contradicts convexity.  If p is
      an end, say p = l, then v(p) = v(s) = 1 puts G' > 1 on (p, s), so
      G(t) > t there, and no point of W near p moves towards p.

    So O is no limit the ratios can near without landing on it.  _nearable
    counts a rooted equilibrium or 2-cycle as one where its rooted
    |multiplier| is at most 1 + EPS_SEARCHED, the root search's error:
    the certificate proves |multiplier| > 1 for the exact cycle, so the
    two can differ only on a cycle within about EPS_SEARCHED of neutral.
    The tests check on thousands of sets where it holds that no rooted
    limit lies in that band.

    Rounding, with u = 2^-53 and _enclose's _PAD, _UP and _DOWN.  With a,
    b, d and -c in [_TINY, _HUGE], c^2 and 3 b d are normal floats, and
    fl(c^2 - 3 b d), four roundings, errs by at most 4 u (c^2 + 3 b d);
    slack = _PAD (c^2 + 3 b d) exceeds that by at least
    11 u (c^2 + 3 b d), which covers the roundings of slack itself.  So
    c^2 - 3 b d lies in [disc - slack, disc + slack], and disc > slack
    proves c^2 > 3 b d.  The square roots (correctly rounded) of those
    ends, and the critical points formed from them, are bounds built from
    nonnegative floats by at most 4 roundings and then multiplied by _UP
    or _DOWN, which stays on the safe side (_enclose).  An orbit is
    enclosed by [m - r, m + r]: from the critical points' enclosure, m its
    float midpoint and r the larger distance to an end, times _UP; from a,
    m = a and r = 0.  Each step is _enclose's, whose [f - s, f + s] holds
    the next iterate.  The float sum f + s is negative exactly where the
    exact one is, as a sum of two floats rounds to 0 only when it is 0.
    The centres are the float orbit of m under the walk's own phi, and the
    step at which it turns negative is the one at which the enclosure must
    lie below 0.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    if not (c < 0.0 and _TINY <= min(a, b, d, -c) and max(a, b, d, -c) <= _HUGE):
        return False
    cc, bd3 = c * c, 3.0 * b * d
    disc, slack = cc - bd3, _PAD * (cc + bd3)
    if not disc > slack:
        return False
    root_lo = math.sqrt((disc - slack) * _DOWN) * _DOWN
    root_hi = math.sqrt((disc + slack) * _UP) * _UP
    if not _turns_negative(params, a, 0.0):
        return False
    for lo, hi in (
        (3.0 * d / (root_hi - c) * _DOWN, 3.0 * d / (root_lo - c) * _UP),  # x_m
        ((root_lo - c) / b * _DOWN, (root_hi - c) / b * _UP),  # x_M
    ):
        m = (lo + hi) * 0.5
        if not _turns_negative(params, m, max(hi - m, m - lo) * _UP):
            return False
    return True


def _nearable(limit):
    """Whether a rooted equilibrium or 2-cycle is a limit the orbit can near
    without landing on it: |multiplier| <= 1 + EPS_SEARCHED, the root
    search's error."""
    return abs(limit.multiplier) <= 1.0 + EPS_SEARCHED


class _Limits:
    """The positive equilibria and 2-cycles of one parameter set, each
    polynomial rooted once, on first use: most orbits settle on an
    equilibrium and never read the 2-cycles, or the other way round.  The
    critical-orbit certificate and the flip probe's polynomials are
    likewise taken once, where the walk first reads them."""

    __slots__ = ("params", "_eqs", "_cycles", "_candidate", "_repels", "_flip")

    def __init__(self, params):
        self.params = params
        self._eqs = self._cycles = self._candidate = self._repels = self._flip = None

    def eqs(self):
        if self._eqs is None:
            self._eqs = equilibria(self.params)
        return self._eqs

    def cycles(self):
        if self._cycles is None:
            self._cycles = find_two_cycles(self.params)
        return self._cycles

    def repels(self):
        """_repels_everywhere, decided once."""
        if self._repels is None:
            self._repels = _repels_everywhere(self.params)
        return self._repels

    def flip(self):
        """_flip_taylor, computed once."""
        if self._flip is None:
            self._flip = _flip_taylor(self.params)
        return self._flip

    def candidate(self):
        """Whether some limit is one the orbit can near without landing on
        it, decided once.  Where the critical orbits show that every
        positive cycle repels (repels), no; else from the roots, and the
        2-cycles are rooted only when no equilibrium is one."""
        if self._candidate is None:
            self._candidate = not self.repels() and any(
                _nearable(o) for limits in (self.eqs, self.cycles) for o in limits()
            )
        return self._candidate


def _identify(det, limits):
    """The (equilibrium, 2-cycle) pair a tail detection points at, or
    (None, None) when it names no known one.  The contraction certificate
    names a hyperbolic limit off the unit band without rooting; the roots
    are matched only where it declines.  A tail value e < -MATCH_TOL
    matches no positive limit m, as |m - e| > |e| > MATCH_TOL max(1, |e|),
    so such a tail roots nothing."""
    if min(det.values) < -MATCH_TOL:
        return None, None
    certified = _certify(det.values, limits.params)
    named = certified and certified[0]
    if det.kind == "equilibrium":
        # ``limits.eqs()`` holds every positive equilibrium, and a ratio orbit
        # from a positive start never settles on a negative one t = -s.  For
        # c > 0, phi maps (0, inf) into itself.  For c <= 0, -s is a root of
        # the quartic, so s^4 = b s^2 + |c| s + d - a s^3 < b s^2 + 2|c| s + 3d,
        # and |phi'(-s)| = (b s^2 + 2|c| s + 3d) / s^4 > 1: -s repels.
        return named or _nearest_equilibrium(limits.eqs(), det.values[0]), None
    return None, named or _nearest_cycle(limits.cycles(), *det.values)


def _mean_distance(vals, pts):
    """Mean over ``vals`` of the distance from each t to the nearest of
    ``pts`` (one equilibrium, or a 2-cycle's p and q), as floats."""
    dists = [map(abs, map(operator.sub, vals, repeat(v))) for v in pts]
    return sum(map(min, *dists) if len(dists) > 1 else dists[0]) / len(vals)


def _proximity_identify(values, eqs, cycles):
    """Identify a slowly-approached limit by shrinking distance to a known
    attractor; used when the tail-spread detector has not converged yet
    (neutral multipliers approach their limit only polynomially fast).

    Only the limits the orbit can near without landing on them
    (_nearable) are measured.  One is named where e_late < 0.02 scale and
    e_late <= 0.95 e_early, the float mean distances of the last and the
    second-to-last quarter of the walk.

    A walk that closed on a float cycle of period 3 or more, early in its
    budget and with no settled tail at any later check, stops at closure
    instead and never gets here (_settles_nowhere).
    """
    n = len(values)
    if n < 64:
        return None
    quarter = n // 4
    early = values[n - 2 * quarter : n - quarter]
    late = values[n - quarter :]
    best = None
    for obj in filter(_nearable, [*eqs, *cycles]):
        pts = (obj.value,) if isinstance(obj, Equilibrium) else (obj.p, obj.q)
        scale = max(1.0, max(abs(v) for v in pts))
        e_late = _mean_distance(late, pts)
        if e_late < 0.02 * scale and e_late <= 0.95 * _mean_distance(early, pts):
            if best is None or e_late / scale < best[1]:
                best = (obj, e_late / scale)
    return None if best is None else best[0]


def classify(
    params: Parameters,
    x_minus1: float,
    x0: float,
    budget: int = DEFAULT_BUDGET,
    tol: float = TAIL_TOL,
) -> Verdict:
    """Simulate the ratio orbit, identify its limit, apply the theorems, and
    note the empirical oracle's class on the verdict.

    Two steps.  ``_theorem_verdict`` walks the orbit, names its limit and
    applies the theorem branches.  Where it identifies no limit it asks the
    oracle, whose class is then the verdict, with rule ``oracle``; a walk
    that the zero guard stops gets rule ``oracle`` too, without asking it.
    Every other verdict is a theorem's, and classify then asks the oracle,
    which reads the walked ratios and walks on only past them, and appends
    ``oracle=<class>`` to the verdict's notes.  ``ratiodyn sweep`` prints
    only class and rule, so its rows take the first step alone.

    ``tol`` is the tail tolerance of the walk and of the oracle, as is
    ``--tol`` of ``ratiodyn classify`` and ``ratiodyn sweep``; it must be
    finite and nonnegative.

    The start must be positive, and must pass ``start_ratio``: finite, with
    a finite nonzero ``x0 / x_minus1``.
    """
    v, values = _theorem_verdict(params, x_minus1, x0, budget, tol)
    if v.rule == "oracle":  # the oracle's own class, or the zero-guard stop
        return v
    return _noted(v, _ORACLE_NOTES[_oracle(params, x_minus1, x0, budget, tol, values)])


def _oracle(params, x_minus1, x0, budget, tol, values):
    """The oracle's class for this start, read from the walked ``values``."""
    return empirical_class(
        params, x_minus1, x0, max(budget, ORACLE_MIN_BUDGET), tol=tol, values=values,
    )


def _check_steps(done, budget):
    """The steps after ``done`` at which the walk checks its tail: 64, 128,
    256, 512 and 1024, then every CHUNK steps, and ``budget``."""
    while done < budget:
        done += min(max(done, FIRST_CHECK), CHUNK, budget - done)
        yield done


def _settles_nowhere(values, since, k, done, budget, tol):
    """Whether a walk that closed on a float cycle of period k in the chunk
    that ends at step ``done``, and whose check there found no settled
    tail, would find none at any later check through ``budget`` either,
    and would leave the proximity pass nothing to name.  Where it returns
    True, classify's verdict is the oracle's class, whatever the walk does
    past ``done``; the oracle then reads the ratios walked so far, and its
    class is the one it reads from a walk to the budget (see
    empirical_class).

    values[i + k] == values[i] from i = since on, for every i the walk
    reaches (closed_period).  The k floats of the cycle
    values[since : since + k] are distinct: were two equal, the walk would
    repeat with a shorter period, which closed_period would have found
    first.

    - Later checks.  The window of a check at step c, values[c - 63 .. c],
      lies past ``since``: closed_period found the cycle as the chunk
      began, at step since + k, and a check that is not the last lies at
      least 64 steps past the one before it.  The window starts at index
      (c - 63 - since) mod k of the cycle, and the detector reads only
      those 64 floats.  So it is run once for each such phase that the
      later checks visit, on the rotated cycle, and where every run answers
      none, so does every later check.  A cycle's floats are finite, so
      the walk would then break only at step CHUNK, where no limit is a
      candidate, or at the budget.
    - The proximity pass.  Take n = budget + 1 ratios and quarter = n // 4,
      with since <= n - 2 quarter and m = quarter // k >= _WHOLE_PERIODS.
      Then each of the last two quarters holds m whole periods and fewer
      than k values more.  For a limit of one point, or a 2-cycle's two,
      each value's float distance depends on the value alone; let S be
      their sum over one period.  A float difference is 0 only between
      equal floats, and at most two of the k >= 3 distinct cycle values
      sit on a limit point: so S > 0.  Each quarter's exact sum of
      distances lies between m S and (m + 1) S, so
      e_late >= (m / (m + 1)) e_early > 0 up to the roundings.  A float
      sum of Q <= n terms of one sign errs by at most
      (Q - 1) u / (1 - (Q - 1) u) relative (u = 2^-53; Higham, *Accuracy
      and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, 4.2).
      So for n u <= 2^-20, any walk of under 8e9 ratios, the roundings
      move the test by a factor within 1 +- 2^-18, and 21/22 = 0.9545
      exceeds 0.95 by more: the pass names no limit, whatever limits the
      set has.
    - The verdict.  With no settled tail at any later check, the walk
      would have gone on to step CHUNK and stopped there where no limit is
      a candidate, or on to the budget and the proximity pass, which names
      none: either way it would have asked the oracle, as this stop does.
    """
    n = budget + 1  # the ratios of a walk to the budget
    quarter = n // 4
    if k < 3 or quarter // k < _WHOLE_PERIODS or since > n - 2 * quarter:
        return False
    cycle = values[since : since + k]
    start = done - TAIL_WINDOW + 1
    phases = {(start - since) % k} if start >= since else set()
    for c in _check_steps(done, budget):
        r = (c - TAIL_WINDOW + 1 - since) % k
        if r in phases:
            continue
        phases.add(r)
        window = ((cycle[r:] + cycle[:r]) * (TAIL_WINDOW // k + 1))[:TAIL_WINDOW]
        if detect_ratio_limit(RatioTrajectory(window, COMPLETED), tol).kind != "none":
            return False
        if len(phases) == k:
            break
    return True


def _oracle_verdict(params, x_minus1, x0, budget, tol, values):
    """The verdict where no limit is identified: the oracle's class."""
    oracle = _oracle(params, x_minus1, x0, budget, tol, values)
    return _noted(Verdict(oracle, "oracle"), "no ratio limit identified within budget"), values


def _check_walk(x_minus1, x0, budget, tol):
    """The start ratio of classify's walk, once its arguments pass
    classify's checks; else ValueError."""
    t = start_ratio(x_minus1, x0)
    if not (x_minus1 > 0.0 and x0 > 0.0):
        raise ValueError("initial conditions must be positive")
    if budget < 1:
        raise ValueError("need budget >= 1")
    _check_tail_tol(tol)
    return t


def _mirrored_orbit(values):
    """The solution orbit from x_{-1} = 1 whose ratios are ``values``, as
    -x_n where its last x_n is negative.  The equation is odd and
    homogeneous of degree 1, so x_n / x_{-1} and -x_n solve it too, with the
    same ratios; a T1.c2 or T2.c2 verdict reads the monotonicity of that
    orbit, the same at every scale of the start, not that of a signed one
    that runs to -inf."""
    straj = solution_trajectory(1.0, values[0], RatioTrajectory(values, COMPLETED))
    if straj.signs[-1] > 0:
        return straj
    return dataclasses.replace(straj, signs=[-s for s in straj.signs])


def _theorem_verdict(params, x_minus1, x0, budget, tol):
    """classify's verdict before the oracle's note, and the walked ratios.

    The ratio orbit is checked after 64, 128, 256, 512 and 1024 steps, then
    every 1024 steps, and the walk stops as soon as its tail stabilizes or a
    ratio is not finite.  Before step 1024 a stable tail counts only at an
    attracting limit: a stay near a repelling one can end later.  A ratio
    orbit converges to a repelling equilibrium or 2-cycle only by landing on
    it, which the first 1024 steps show; so when every limit is repelling
    the walk stops there.  That every limit repels is read first, without
    rooting, from the orbits of phi's critical points and of a
    (_repels_everywhere).  A settled tail names a limit off the unit band
    without rooting where a contraction certificate holds (_certify), with
    verdict T1.a, T1.b, T2.a or T2.b.  Before the detector reads a check's
    window, the walk stops with an equilibrium's verdict where the
    certificate on the window around the last ratio proves that the walk
    would reach it later (_in_basin).  On the flip band, where the T1.c3
    branch's tests hold, it also stops with the equilibrium at 1 where the
    exact orbit from the last ratio provably converges to it
    (_flips_to_one); the landing test and the theorem branch then read the
    walk so far, without rooting.  Otherwise each polynomial is rooted
    at most once, and only when the walk first reads it: the fixed-point
    quartic when a tail the certificate declines names an equilibrium, or
    when the walk reaches step 1024 (or ends sooner) with no settled tail
    and _repels_everywhere declines; the 2-cycle sextic when such a tail
    names a 2-cycle, when no equilibrium is non-repelling at that point, or
    for the proximity pass, which measures only the non-repelling limits
    (_nearable).  A tail below -MATCH_TOL roots nothing.  So a set whose
    2-cycle search fails still gets a verdict from an orbit that never
    roots the sextic.  An orbit that lands exactly on the limit within a few steps (the preimage-set
    case) gets the exact-landing verdict.  If no limit can be identified
    within the budget the empirical oracle's class is returned, with rule
    ``oracle``; only then does this step run the oracle.  The oracle reads
    the walked ratios and walks on only past them.  Both take every new
    ratio from ``walk_on``: once the float orbit repeats a value it is
    periodic for ever, and the walker replays that cycle instead of
    applying the map, with the same answers.

    The walk also stops at the first check after it closes on a float
    cycle of period 3 or more, where its answer at every later check is
    already known (_settles_nowhere): where the detector finds no settled
    tail on any rotation of the cycle that a later window reads, and a walk
    to the budget would replay at least 21 whole periods in each of its
    last two quarters, no later check and no proximity pass can name a
    limit.  The verdict is then the oracle's class, without rooting either
    polynomial or replaying the cycle to the budget.  A cycle of period 1
    or 2, or one whose rotations settle, is walked on as before.  At step
    1024 the critical-orbit certificate runs before those rotation checks,
    and where it holds the walk stops as it would after them.

    Arguments and their checks are classify's.
    """
    t = _check_walk(x_minus1, x0, budget, tol)
    limits = _Limits(params)
    a, b, c, d = params.a, params.b, params.c, params.d
    # the T1.c3 branch's own tests: only there does the flip probe run
    at_flip = abs(a + b + c + d - 1.0) <= EPS_CRIT and abs(b + 2.0 * c + 3.0 * d - 1.0) <= EPS_CRIT

    # flat doubles: a 1e5-step walk keeps ~0.8 MB here, not ~3.2 MB of objects
    values = array("d", [t])
    done = 0
    k = None  # the period of the float cycle the ratios closed on, once they have
    eq = cyc = None
    for check in _check_steps(0, budget):
        closing = k is None
        chunk, k, stopped = walk_on(params, values, check - done, k)
        # where the ratios closed in this chunk: the step from which they repeat
        since = len(values) - 1 - k if k and closing else None
        values += array("d", chunk)  # from a list as fast as fromlist, an array by memcpy
        if stopped:
            return Verdict(ITERATION_STOPS, "oracle", notes="ratio reached the zero guard"), values
        done = check
        eq = _in_basin(params, values, done, budget, tol)
        if eq is not None:
            return classify_equilibrium_limit(params, eq), values
        if at_flip and _flips_to_one(limits.flip(), values):
            mu = phi_prime(params, 1.0)
            eq = Equilibrium(1.0, mu, classify_multiplier(mu))
            break
        det = detect_ratio_limit(RatioTrajectory(values, COMPLETED), tol)
        if det.kind != "none":
            eq, cyc = _identify(det, limits)
            limit = eq or cyc
            # an early check accepts only an attracting limit, which the orbit
            # does not leave again; a stay near a repelling one can end later
            if done >= CHUNK or done == budget or (
                limit is not None and abs(limit.multiplier) < 1.0 - EPS_SEARCHED
            ):
                break
            eq = cyc = None
        elif done == CHUNK and limits.repels():
            break  # the stop at step CHUNK below, before the closure's rotation checks
        elif since is not None and _settles_nowhere(values, since, k, done, budget, tol):
            return _oracle_verdict(params, x_minus1, x0, budget, tol, values)
        if not math.isfinite(values[-1]):
            break
        # the walk reaches step CHUNK exactly, once, when the budget allows
        if done == CHUNK and not limits.candidate():
            break

    if eq is None and det.kind == "none" and limits.candidate():
        hit = _proximity_identify(values, limits.eqs(), limits.cycles())
        eq, cyc = (hit, None) if isinstance(hit, Equilibrium) else (None, hit)

    if eq is not None:
        at_one = abs(eq.value - 1.0) <= _unit_band(params)
        landed = _landing_index(values, (eq.value,)) if at_one else None
        if landed is not None:
            return Verdict(
                CONVERGES_TO_EQUILIBRIUM, "T1.cS",
                notes=f"landed on the equilibrium at step {landed}",
            ), values
        evidence = None
        sigma = params.b + 2.0 * params.c + 3.0 * params.d
        # only sigma = -1 (T1.c2) reads the evidence
        if at_one and abs(sigma + 1.0) <= EPS_CRIT:
            evidence = subsequence_monotonicity(_mirrored_orbit(values), 1, 0)
        return classify_equilibrium_limit(params, eq, evidence), values

    if cyc is not None:
        landed = _landing_index(values, (cyc.p, cyc.q)) if cyc.unit_product else None
        if landed is not None:
            return Verdict(
                CONVERGES_TO_TWO_CYCLE, "T2.cS",
                notes=f"landed on the 2-cycle at step {landed}",
            ), values
        evidence = None
        # only a multiplier of +1 (T2.c2) reads the evidence
        if cyc.unit_product and abs(cyc.multiplier - 1.0) <= EPS_SEARCHED:
            straj = _mirrored_orbit(values)
            ev0 = subsequence_monotonicity(straj, 2, 0)
            ev1 = subsequence_monotonicity(straj, 2, 1)
            evidence = ev0 if ev0 == ev1 else None
        return classify_cycle_limit(params, cyc, evidence), values

    return _oracle_verdict(params, x_minus1, x0, budget, tol, values)
