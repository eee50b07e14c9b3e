"""2-cycles of the ratio map: exhaustive enumeration and the unit-product cycle.

A 2-cycle is a pair p < q with phi(p) = q and phi(q) = p.  All of them are
positive roots of an explicit degree-6 polynomial, so the enumeration is
complete - which matters, because the classifier's verdict for an orbit
depends on knowing every cycle, not just the one an iteration happens to find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polynomial import Polynomial, real_roots_flagged
from .ratio_map import Parameters, phi, phi_prime
from .tolerances import EPS_SEARCHED, ROOT_TOL

__all__ = [
    "TwoCycle",
    "PairingError",
    "two_cycle_poly",
    "find_two_cycles",
    "unit_product_cycle",
    "lemma1b_signs",
    "eq2_cycle_family",
]

#: a root pairs with the root nearest its phi-image within this relative distance
PAIR_TOL = 1e-4


class PairingError(Exception):
    """A periodic-point root whose phi-image is not among the roots."""


@dataclass(frozen=True)
class TwoCycle:
    p: float
    q: float
    product: float
    multiplier: float
    unit_product: bool


def _make_cycle(params, p, q, unit_product=None):
    if p > q:
        p, q = q, p
    if unit_product is None:
        unit_product = abs(p * q - 1.0) <= EPS_SEARCHED
    return TwoCycle(
        p=p,
        q=q,
        product=p * q,
        multiplier=phi_prime(params, p) * phi_prime(params, q),
        unit_product=unit_product,
    )


def _two_cycle_coeffs(a, b, c, d):
    """The ascending coefficients of the 2-cycle sextic, in plain arithmetic
    that works on floats and on symbols alike."""
    return (
        a * d * d,
        d * (2 * a * c - d),
        2 * a * b * d + a * c * c - 2 * c * d,
        2 * a * a * d + 2 * a * b * c - b * d - c * c,
        2 * a * a * c + a * b * b - a * d - b * c,
        2 * a * a * b - a * c - d,
        a * a * a,
    )


def two_cycle_poly(params: Parameters) -> Polynomial:
    """The degree-6 polynomial whose positive roots are the 2-cycle points.

    Clearing denominators in phi(phi(t)) = t gives the degree-10 polynomial
    t*N^3 - a*N^3 - b*N^2*t^3 - c*N*t^6 - d*t^9 (N the numerator of phi).
    The fixed-point quartic divides it exactly, and the quotient is
    returned in closed form (the tests check the product symbolically).
    """
    return Polynomial(_two_cycle_coeffs(params.a, params.b, params.c, params.d))


def _polish_cycle_point(params, t):
    """Newton on phi(phi(t)) - t.  Clustered sextic roots come out of the
    bracketing pass with their accuracy eaten by the polynomial's
    conditioning; the second-iterate fixed-point equation is far better
    behaved there and restores full precision."""
    def residual(x):
        u = phi(params, x)
        return math.inf if u == 0.0 else abs(phi(params, u) - x)

    best = residual(t)
    for _ in range(4):
        u = phi(params, t)
        if u == 0.0:
            break
        f = phi(params, u) - t
        df = phi_prime(params, t) * phi_prime(params, u) - 1.0
        # df, the multiplier minus 1, vanishes at neutral cycles and at the
        # boundary double root; Newton is meaningless there
        if abs(df) < EPS_SEARCHED:
            break
        step = f / df
        if not abs(step) <= 0.1 * max(1.0, abs(t)):
            break  # too far from a well-separated root to trust Newton
        cand = t - step
        r = residual(cand)
        if not r < best:
            break
        t, best = cand, r
        if step == 0.0:
            break
    return t


def find_two_cycles(params: Parameters, tol: float = ROOT_TOL):
    """All positive 2-cycles of phi, canonicalized to p < q and sorted by p.

    The degree-6 polynomial is rooted over the whole real line because a
    positive periodic point can have a negative partner; pairing via
    q = phi(p) then always closes.  Fixed points (the quartic re-entering
    as a multiple root on the (a-c)/d = 2 boundary) are discarded, cycles
    with a nonpositive point are dropped after pairing, and a root whose
    image matches no other root is a hard error rather than a silent
    omission.
    """
    poly = two_cycle_poly(params)
    roots = [r for r, _ in real_roots_flagged(poly, -math.inf, 0.0, tol)]
    roots += [r for r, _ in real_roots_flagged(poly, 0.0, math.inf, tol)]
    roots = [_polish_cycle_point(params, r) for r in roots]
    points = [
        r
        for r in roots
        if abs(phi(params, r) - r) > EPS_SEARCHED * max(1.0, abs(r))
    ]
    cycles = []
    used = set()
    for i, p in enumerate(points):
        if i in used:
            continue
        image = phi(params, p)
        match = None
        err = math.inf
        for j, r in enumerate(points):
            if j == i or j in used:
                continue
            e = abs(r - image)
            if e <= PAIR_TOL * max(1.0, abs(image)) and e < err:
                match, err = j, e
        if match is None:
            raise PairingError(
                f"root {p!r} maps to {image!r}, which is not among the "
                f"periodic-point roots {points!r}"
            )
        used.update((i, match))
        if p > 0.0 and points[match] > 0.0:
            cycles.append(_make_cycle(params, p, points[match]))
    cycles.sort(key=lambda cyc: cyc.p)
    return cycles


def unit_product_cycle(params: Parameters, tol: float = ROOT_TOL):
    """The unique 2-cycle with p*q = 1, built from X^2 - ((a-c)/d) X + 1 = 0.

    Exists exactly when (a-c)/d = (d-b+1)/a > 2; the boundary value 2 gives a
    double root at the fixed point 1, not a cycle, and reports absent.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    k1 = (a - c) / d
    k2 = (d - b + 1.0) / a
    if abs(k1 - k2) > tol or not k1 > 2.0 + tol:
        return None
    s = math.sqrt(k1 * k1 - 4.0)
    q = 0.5 * (k1 + s)
    p = 1.0 / q  # avoids the cancellation in (k1 - s) / 2
    cyc = _make_cycle(params, p, q, unit_product=True)
    return cyc


def lemma1b_signs(params: Parameters, cycle: TwoCycle):
    """(q + p*phi'(p), p + q*phi'(q)); negative and positive respectively for
    any attractive unit-product cycle."""
    if not cycle.unit_product:
        raise ValueError("sign lemma applies to unit-product cycles only")
    p, q = cycle.p, cycle.q
    return (q + p * phi_prime(params, p), p + q * phi_prime(params, q))


def eq2_cycle_family(cycle: TwoCycle, x: float):
    """The period-2 solution of the second-order equation through x.

    Any unit-product ratio cycle lifts to infinitely many solution 2-cycles:
    (x, x/p) alternates with ratio p, q = 1/p.
    """
    if not cycle.unit_product:
        raise ValueError("only unit-product ratio cycles lift to solution 2-cycles")
    if not x > 0.0:
        raise ValueError("need x > 0")
    return (x, x / cycle.p)
