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
    critical_points,
    equilibria,
    phi,
)
from .simulate import (
    DECREASING,
    INCREASING,
    RatioTrajectory,
    COMPLETED,
    advance_ratio,
    closed_period,
    detect_ratio_limit,
    empirical_class,
    replay,
    solution_trajectory,
    subsequence_monotonicity,
)
from .tolerances import (
    DEFAULT_BUDGET, DEFAULT_ZERO_GUARD, EPS_CRIT, EPS_SEARCHED,
    ORACLE_MIN_BUDGET, ROOT_TOL, TAIL_TOL, TAIL_WINDOW,
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
    cps = critical_points(params)
    if cps is None:
        return None
    eqs = equilibria(params, tol)
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
    best = None
    for e in eqs:
        if abs(e.value - value) <= MATCH_TOL * max(1.0, abs(value)):
            if best is None or abs(e.value - value) < abs(best.value - value):
                best = e
    return best


def _nearest_cycle(cycles, lo, hi):
    for cyc in cycles:
        if (
            abs(cyc.p - lo) <= MATCH_TOL * max(1.0, abs(lo))
            and abs(cyc.q - hi) <= MATCH_TOL * max(1.0, abs(hi))
        ):
            return cyc
    return None


def _identify(det, eqs, cycles):
    """The (equilibrium, 2-cycle) pair a tail detection points at, or
    (None, None) when it names no known one."""
    if det.kind == "equilibrium":
        # ``eqs`` holds every positive equilibrium, and a ratio orbit from a
        # positive start never settles on a negative one t = -s.  For c > 0,
        # phi maps (0, inf) into itself.  For c <= 0, -s is a root of the
        # quartic, so s^4 = b s^2 + |c| s + d - a s^3 < b s^2 + 2|c| s + 3d,
        # and |phi'(-s)| = (b s^2 + 2|c| s + 3d) / s^4 > 1: -s repels.
        return _nearest_equilibrium(eqs, det.values[0]), None
    return None, _nearest_cycle(cycles, *det.values)


def _mean_distance(vals, pts):
    """Mean over ``vals`` of the distance from each t to the nearest of
    ``pts`` (one equilibrium, or a 2-cycle's p < q), as floats."""
    if len(pts) == 2:
        p, q = pts
        lo, hi = min(vals), max(vals)
        # Rounding is monotone and symmetric in sign.  So if hi - p < q - hi
        # in floats, then for every t <= hi the float |t - p| is at most
        # the float |t - q|: for p <= t, fl(t - p) <= fl(hi - p) <
        # fl(q - hi) <= fl(q - t), since t - p <= hi - p and q - hi <= q - t
        # exactly; for t < p, p - t < q - t exactly.  The float min of the
        # two is then |t - p| for every t, and the mirror holds for q.  A
        # non-finite t is as far from p as from q.  min and max pass over a
        # nan unless it comes first, and then both tests fail.
        if hi - p < q - hi:
            pts = (p,)
        elif q - lo < lo - p:
            pts = (q,)
    dists = [map(abs, map(operator.sub, vals, repeat(v))) for v in pts]
    return sum(map(min, *dists) if len(dists) > 1 else dists[0]) / len(vals)


def _proximity_identify(values, eqs, cycles):
    """Identify a slowly-approached limit by shrinking distance to a known
    attractor; used when the tail-spread detector has not converged yet
    (neutral multipliers approach their limit only polynomially fast)."""
    n = len(values)
    if n < 64:
        return None
    quarter = n // 4
    early = values[n - 2 * quarter : n - quarter]
    late = values[n - quarter :]

    best = None
    for obj, pts in [(e, (e.value,)) for e in eqs] + [
        (c, (c.p, c.q)) for c in cycles
    ]:
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
    zero_guard: float = DEFAULT_ZERO_GUARD,
) -> Verdict:
    """Simulate the ratio orbit, identify its limit, and apply the theorems.

    The ratio orbit is checked after 64, 128, 256, 512 and 1024 steps, then
    every 1024 steps, and the walk stops as soon as its tail stabilizes or a
    ratio is not finite.  Before step 1024 a stable tail counts only at an
    attracting limit: a stay near a repelling one can end later.  A ratio
    orbit converges to a repelling equilibrium or 2-cycle only by landing on
    it, which the first 1024 steps show; so when every limit is repelling
    the walk stops there.  An orbit that lands exactly on the limit within a
    few steps (the preimage-set case) gets the exact-landing verdict.  If no
    limit can be identified within the budget the empirical oracle's class
    is returned.  The oracle reads the walked ratios and walks on only past
    them.  Once the float orbit repeats a value it is periodic for ever, so
    the walk and the oracle replay that cycle instead of applying the map,
    with the same checks and the same answers.

    ``tol`` is the tail tolerance of the walk and of the oracle.  Its
    default is ``TAIL_TOL`` (1e-8), while ``ratiodyn classify`` and
    ``ratiodyn sweep`` pass ``--tol``, whose default is 1e-9.
    """
    if not (math.isfinite(x_minus1) and math.isfinite(x0)):
        raise ValueError("initial conditions must be finite")
    if not (x_minus1 > 0.0 and x0 > 0.0):
        raise ValueError("initial conditions must be positive")
    if budget < 1:
        raise ValueError("need budget >= 1")
    eqs = equilibria(params)
    cycles = find_two_cycles(params)
    # a limit the orbit can near without landing on it
    candidate = any(abs(o.multiplier) <= 1.0 + EPS_SEARCHED for o in [*eqs, *cycles])
    walk = budget if candidate else min(budget, CHUNK)

    t = x0 / x_minus1
    # flat doubles: a 1e5-step walk keeps ~0.8 MB here, not ~3.2 MB of objects
    values = array("d", [t])
    done = 0
    k = None  # the period of the float cycle the ratios closed on, once they have
    eq = cyc = None
    while done < walk:
        n = min(max(done, FIRST_CHECK), CHUNK, walk - done)
        if k is None:
            chunk = []
            t, stopped = advance_ratio(params, t, n, zero_guard, chunk)
            values.fromlist(chunk)
            if stopped:
                return Verdict(ITERATION_STOPS, "oracle", notes="ratio reached the zero guard")
            k = closed_period(values)
        else:
            # values end with the cycle, so its next n ratios start it over
            values.extend(replay(values[-k:], 0, n))
        done += n
        det = detect_ratio_limit(RatioTrajectory(values, COMPLETED), tol)
        if det.kind != "none":
            eq, cyc = _identify(det, eqs, cycles)
            limit = eq or cyc
            # an early check accepts only an attracting limit, which the orbit
            # does not leave again; a stay near a repelling one can end later
            if done >= CHUNK or done == walk or (
                limit is not None and abs(limit.multiplier) < 1.0 - EPS_SEARCHED
            ):
                break
            eq = cyc = None
        if not math.isfinite(t):
            break

    if det.kind == "none" and candidate:
        hit = _proximity_identify(values, eqs, cycles)
        if isinstance(hit, Equilibrium):
            eq = hit
        elif isinstance(hit, TwoCycle):
            cyc = hit

    oracle = empirical_class(
        params, x_minus1, x0, max(budget, ORACLE_MIN_BUDGET), tol=tol,
        zero_guard=zero_guard, values=values,
    )
    note = _ORACLE_NOTES[oracle]

    if eq is not None:
        at_one = abs(eq.value - 1.0) <= _unit_band(params)
        landed = _landing_index(values, (eq.value,)) if at_one else None
        if landed is not None:
            return Verdict(
                CONVERGES_TO_EQUILIBRIUM, "T1.cS",
                notes=f"landed on the equilibrium at step {landed}; {note}",
            )
        evidence = None
        sigma = params.b + 2.0 * params.c + 3.0 * params.d
        # only sigma = -1 (T1.c2) reads the evidence
        if at_one and abs(sigma + 1.0) <= EPS_CRIT:
            evidence = subsequence_monotonicity(
                solution_trajectory(x_minus1, x0, RatioTrajectory(values, COMPLETED)), 1, 0
            )
        v = classify_equilibrium_limit(params, eq, evidence)
        return _noted(v, note)

    if cyc is not None:
        landed = _landing_index(values, (cyc.p, cyc.q)) if cyc.unit_product else None
        if landed is not None:
            return Verdict(
                CONVERGES_TO_TWO_CYCLE, "T2.cS",
                notes=f"landed on the 2-cycle at step {landed}; {note}",
            )
        evidence = None
        # only a multiplier of +1 (T2.c2) reads the evidence
        if cyc.unit_product and abs(cyc.multiplier - 1.0) <= EPS_SEARCHED:
            straj = solution_trajectory(x_minus1, x0, RatioTrajectory(values, COMPLETED))
            ev0 = subsequence_monotonicity(straj, 2, 0)
            ev1 = subsequence_monotonicity(straj, 2, 1)
            evidence = ev0 if ev0 == ev1 else None
        v = classify_cycle_limit(params, cyc, evidence)
        return _noted(v, note)

    return _noted(Verdict(oracle, "oracle"), "no ratio limit identified within budget")
