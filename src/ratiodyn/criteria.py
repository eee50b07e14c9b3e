"""Scalar criterion quantities that drive the neutral-case verdicts.

Each function is a pure closed-form evaluation in (params, cycle, t); orbit
indices live with the caller's trajectory.  The only numerical derivatives are
s'(q) and s''(q), for which no closed form is available; s'(q) is cross-checked
against its closed-form counterpart ``kappa`` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cycles import TwoCycle, unit_product_cycle
from .ratio_map import (
    Parameters,
    phi,
    phi_prime,
    phi_double_prime,
    second_iterate_second_derivative,
)
from .tolerances import EPS_CRIT, ROOT_TOL

__all__ = [
    "CriterionReport",
    "DegeneracyError",
    "r_of",
    "rho_of",
    "R_second_at_1",
    "gamma_of",
    "theta_of",
    "lambda_prime_of",
    "xi_prime_of",
    "kappa",
    "l_quantity",
    "s_of",
    "S_second_at_q",
    "criterion_report",
]

#: s(t) is evaluated only where |its denominator| >= S_DENOM_FLOOR * max(1, |t|)
S_DENOM_FLOOR = 1e-12
#: the central-difference step for s'(q) and s''(q), relative to q
S_STEP = 1e-4


class DegeneracyError(Exception):
    """The denominator of s(t) vanishes where a value is needed."""


def _check_pos(t):
    if not t > 0.0:
        raise ValueError("need t > 0")


def r_of(params: Parameters, t: float) -> float:
    """Slope of the first-difference recursion x_{n+1} - x_n = r_n (x_n - x_{n-1});
    valid whenever a + b + c + d = 1."""
    _check_pos(t)
    b, c, d = params.b, params.c, params.d
    return -(b + c + d + (c + d) / t + d / (t * t))


def rho_of(params: Parameters, t: float) -> float:
    """Slope of x_{n+1} - x_{n-1} = rho_n (x_n - x_{n-1});
    valid when a + b + c + d = b + 2c + 3d = 1."""
    _check_pos(t)
    c, d = params.c, params.d
    return c + 2.0 * d - (c + d) / t - d / (t * t)


def R_second_at_1(params: Parameters) -> float:
    """The published curvature criterion 2(b+c)(a+d) + 4d for R(t) = r(t) r(phi(t))
    at t = 1.

    Positive exactly when c > -2d/(a+d) - b; decides divergence in the
    doubly-neutral equilibrium case.  (This is the closed form the source
    states and uses; it differs from the literal second derivative of the
    displayed R by 2 r'(1)^2, which does not change the sign test on the
    worked example.)"""
    a, b, c, d = params.a, params.b, params.c, params.d
    return 2.0 * (b + c) * (a + d) + 4.0 * d


def gamma_of(params: Parameters, p: float, t: float) -> float:
    """Slope in t_{n+1} - q = gamma_n (t_n - p) for a 2-cycle (p, q)."""
    _check_pos(t)
    b, c, d = params.b, params.c, params.d
    return -(
        b / (p * t)
        + c * (t + p) / (p * p * t * t)
        + d * (t * t + p * t + p * p) / (p ** 3 * t ** 3)
    )


def theta_of(params: Parameters, q: float, t: float) -> float:
    """Slope in t_{n+1} - p = theta_n (t_n - q) for a 2-cycle (p, q)."""
    return gamma_of(params, q, t)


def lambda_prime_of(params: Parameters, cycle: TwoCycle, t: float) -> float:
    """lambda'_n = t_{n+1} theta(t_{n+1}) + p, as a function of t_n;
    x_{n+2}/x_n - 1 = lambda'_n (t_{n+1} - q) along unit-product orbits."""
    _check_pos(t)
    u = phi(params, t)
    if u == 0.0:
        raise ValueError("orbit point maps to the pole at 0")
    return u * theta_of(params, cycle.q, u) + cycle.p


def xi_prime_of(params: Parameters, cycle: TwoCycle, t: float) -> float:
    """xi'_n = t_{n+1} gamma(t_{n+1}) + q, the companion slope off t_{n+1} - p."""
    _check_pos(t)
    u = phi(params, t)
    if u == 0.0:
        raise ValueError("orbit point maps to the pole at 0")
    return u * gamma_of(params, cycle.p, u) + cycle.q


def _require_unit(cycle):
    if not cycle.unit_product:
        raise ValueError("requires a unit-product cycle")


def kappa(params: Parameters, cycle: TwoCycle) -> float:
    """p + q phi'(q) + (phi'(q))^2 phi''(p)/2 + phi'(p) phi''(q)/2.

    Equals s'(q) when the cycle multiplier is 1; positive kappa turns an
    eventually-increasing orbit into divergence."""
    _require_unit(cycle)
    p, q = cycle.p, cycle.q
    dp, dq = phi_prime(params, p), phi_prime(params, q)
    return p + q * dq + dq * dq * phi_double_prime(params, p) / 2.0 + dp * phi_double_prime(params, q) / 2.0


def l_quantity(params: Parameters, cycle: TwoCycle) -> float:
    """The slope whose sign splits the multiplier -1 case:
    l = -(p^2 + (phi'(q))^2 q^2) + (q + p phi'(p)) phi''(q)/2
        + (p + q phi'(q)) (phi'(q))^2 phi''(p)/2."""
    _require_unit(cycle)
    p, q = cycle.p, cycle.q
    dp, dq = phi_prime(params, p), phi_prime(params, q)
    return (
        -(p * p + dq * dq * q * q)
        + (q + p * dp) * phi_double_prime(params, q) / 2.0
        + (p + q * dq) * dq * dq * phi_double_prime(params, p) / 2.0
    )


def s_of(params: Parameters, cycle: TwoCycle, t: float) -> float:
    """s(t) = t phi(t) gamma(phi(t)) theta(t) [phi^2(t) theta(phi^2(t)) + p]
             / (t theta(t) + p);
    the one-step ratio of the difference sequence D_{n+2} = s_n D_n."""
    _require_unit(cycle)
    _check_pos(t)
    p, q = cycle.p, cycle.q
    u = phi(params, t)
    u2 = phi(params, u)
    denom = t * theta_of(params, q, t) + p
    if abs(denom) < S_DENOM_FLOOR * max(1.0, abs(t)):
        raise DegeneracyError(f"denominator of s vanishes at t={t!r}")
    return (
        t
        * u
        * gamma_of(params, p, u)
        * theta_of(params, q, t)
        * (u2 * theta_of(params, q, u2) + p)
        / denom
    )


def _s_derivatives_at_q(params, cycle):
    """(s'(q), s''(q)) by Richardson-extrapolated central differences."""
    q = cycle.q
    h = S_STEP * q

    def d1(step):
        return (s_of(params, cycle, q + step) - s_of(params, cycle, q - step)) / (2.0 * step)

    def d2(step):
        return (
            s_of(params, cycle, q + step)
            - 2.0 * s_of(params, cycle, q)
            + s_of(params, cycle, q - step)
        ) / (step * step)

    s1 = (4.0 * d1(h / 2.0) - d1(h)) / 3.0
    s2 = (4.0 * d2(h / 2.0) - d2(h)) / 3.0
    return s1, s2


def S_second_at_q(params: Parameters, cycle: TwoCycle) -> float:
    """S''(q) = -2 s''(q) - 2 (s'(q))^2 - s'(q) (phi^2)''(q) for S(t) = s(t) s(phi^2(t));
    positive S''(q) turns the increasing multiplier -1 case into divergence."""
    _require_unit(cycle)
    s1, s2 = _s_derivatives_at_q(params, cycle)
    chain = second_iterate_second_derivative(params, cycle.p, cycle.q)
    return -2.0 * s2 - 2.0 * s1 * s1 - s1 * chain


@dataclass(frozen=True)
class CriterionReport:
    sigma: float
    r_second_at_1: float
    kappa: float | None
    l_value: float | None
    s_second_at_q: float | None
    applicable: dict = field(default_factory=dict)


def criterion_report(params: Parameters, tol: float = ROOT_TOL):
    """Evaluate every criterion quantity, gating each behind its hypothesis.

    kappa applies only at a unit-product cycle with multiplier 1; l and S''(q)
    only at multiplier -1.  Values outside their band are still reported (they
    are plain evaluations) but flagged inapplicable.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    sigma = b + 2.0 * c + 3.0 * d
    # the band classify decides a + b + c + d = 1 in, whatever the root tol
    at_one = abs(a + b + c + d - 1.0) <= EPS_CRIT
    cyc = unit_product_cycle(params, tol)
    kap = lv = s2q = None
    applicable = {
        "sigma": at_one,
        "r_second_at_1": at_one and abs(sigma - 1.0) <= EPS_CRIT,
        "kappa": False,
        "l_value": False,
        "s_second_at_q": False,
    }
    if cyc is not None:
        kap = kappa(params, cyc)
        lv = l_quantity(params, cyc)
        applicable["kappa"] = abs(cyc.multiplier - 1.0) <= EPS_CRIT
        applicable["l_value"] = abs(cyc.multiplier + 1.0) <= EPS_CRIT
        if applicable["l_value"]:
            s2q = S_second_at_q(params, cyc)
            applicable["s_second_at_q"] = True
    return CriterionReport(
        sigma=sigma,
        r_second_at_1=R_second_at_1(params),
        kappa=kap,
        l_value=lv,
        s_second_at_q=s2q,
        applicable=applicable,
    )
