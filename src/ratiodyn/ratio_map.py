"""The first-order ratio map phi(t) = (a t^3 + b t^2 + c t + d) / t^3.

Successive ratios x_n / x_{n-1} of the second-order recurrence evolve under
this map, so its equilibria, critical points and second iterate carry all the
analytic information the classifier needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polynomial import Polynomial, real_roots_flagged
from .tolerances import EPS_CRIT, ROOT_TOL

__all__ = [
    "Parameters",
    "Equilibrium",
    "CriticalPoints",
    "ATTRACTING",
    "REPELLING",
    "NEUTRAL",
    "phi",
    "phi_prime",
    "phi_double_prime",
    "numerator_poly",
    "fixed_point_poly",
    "equilibria",
    "critical_points",
    "second_iterate",
    "second_iterate_second_derivative",
    "negative_escape_region",
]

ATTRACTING = "attracting"
REPELLING = "repelling"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class Parameters:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise ValueError("parameters a, b, c, d must be finite")
        if not (self.a > 0.0 and self.b > 0.0 and self.d > 0.0):
            raise ValueError("parameters a, b, d must be positive")


@dataclass(frozen=True)
class Equilibrium:
    value: float
    multiplier: float
    stability: str


@dataclass(frozen=True)
class CriticalPoints:
    x_m: float  # local minimum of phi
    x_M: float  # local maximum of phi


def _check_t(t):
    if t == 0.0:
        raise ValueError("t = 0 is a pole of the ratio map")


def phi(params: Parameters, t: float) -> float:
    _check_t(t)
    a, b, c, d = params.a, params.b, params.c, params.d
    return (((a * t + b) * t + c) * t + d) / t ** 3


def phi_prime(params: Parameters, t: float) -> float:
    """phi'(t) = -(b t^2 + 2 c t + 3 d) / t^4; at t = 1 this is -(b + 2c + 3d)."""
    _check_t(t)
    b, c, d = params.b, params.c, params.d
    return -((b * t + 2.0 * c) * t + 3.0 * d) / t ** 4


def phi_double_prime(params: Parameters, t: float) -> float:
    """phi''(t) = (2 b t^2 + 6 c t + 12 d) / t^5."""
    _check_t(t)
    b, c, d = params.b, params.c, params.d
    return ((2.0 * b * t + 6.0 * c) * t + 12.0 * d) / t ** 5


def numerator_poly(params: Parameters) -> Polynomial:
    """N(t) = a t^3 + b t^2 + c t + d, the numerator of phi."""
    return Polynomial([params.d, params.c, params.b, params.a])


def fixed_point_poly(params: Parameters) -> Polynomial:
    """phi(t) = t cleared of denominators: t^4 - a t^3 - b t^2 - c t - d."""
    return Polynomial([-params.d, -params.c, -params.b, -params.a, 1.0])


def classify_multiplier(multiplier: float) -> str:
    m = abs(multiplier)
    if m < 1.0 - EPS_CRIT:
        return ATTRACTING
    if m > 1.0 + EPS_CRIT:
        return REPELLING
    return NEUTRAL


def equilibria(params: Parameters, tol: float = ROOT_TOL):
    """All positive equilibria of phi, ascending, with multiplier and stability."""
    roots = real_roots_flagged(fixed_point_poly(params), 0.0, math.inf, tol)
    out = []
    for value, _simple in roots:
        m = phi_prime(params, value)
        out.append(Equilibrium(value=value, multiplier=m, stability=classify_multiplier(m)))
    return out


def critical_points(params: Parameters):
    """Positive critical points of phi, present exactly when c < -sqrt(3 b d).

    They are the roots of b t^2 + 2 c t + 3 d; the boundary c = -sqrt(3 b d)
    (double root) reports absent since downstream results need x_m < x_M.
    """
    b, c, d = params.b, params.c, params.d
    if not c < -math.sqrt(3.0 * b * d):
        return None
    disc = c * c - 3.0 * b * d
    if disc <= 0.0:
        return None
    s = math.sqrt(disc)
    return CriticalPoints(x_m=(-c - s) / b, x_M=(-c + s) / b)


def second_iterate(params: Parameters, t: float) -> float:
    u = phi(params, t)
    if u == 0.0:
        raise ValueError("orbit passes through the pole at 0")
    return phi(params, u)


def second_iterate_second_derivative(params: Parameters, p: float, q: float) -> float:
    """(phi^2)''(q) for a 2-cycle point q with partner p = phi(q), by the chain rule."""
    return (
        phi_double_prime(params, p) * phi_prime(params, q) ** 2
        + phi_prime(params, p) * phi_double_prime(params, q)
    )


def negative_escape_region(params: Parameters, tol: float = ROOT_TOL):
    """The pair (r, r') with phi(r) = 0 and phi(r') = r on the negative axis.

    Ratios starting in (-inf, r) or (r', 0) turn positive within three steps.
    Returns None unless N has exactly one negative root and phi(t) = r has a
    unique solution in (r, 0).
    """
    n_poly = numerator_poly(params)
    neg = [x for x, _ in real_roots_flagged(n_poly, -math.inf, 0.0, tol)]
    if len(neg) != 1:
        return None
    r = neg[0]
    # phi(t) = r  <=>  N(t) - r t^3 = 0
    shifted = Polynomial([params.d, params.c, params.b, params.a - r])
    inner = [x for x, _ in real_roots_flagged(shifted, r, 0.0, tol)]
    if len(inner) != 1:
        return None
    return (r, inner[0])
