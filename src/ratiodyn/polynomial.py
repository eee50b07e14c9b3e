"""Real univariate polynomials with robust real-root isolation.

Coefficients are stored in ascending degree order, so ``Polynomial([d, c, b, a])``
is ``d + c*t + b*t**2 + a*t**3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .tolerances import ROOT_TOL

__all__ = [
    "Polynomial",
    "RootIsolationError",
    "real_roots_in",
    "real_roots_flagged",
]


#: |p(x)| at or under this share of the evaluation scale at x counts as zero
NOISE_FLOOR = 1e-9


class RootIsolationError(Exception):
    """Raised when two sign changes cannot be separated at the requested tolerance."""


def _strip(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return c


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple = field(default=(0.0,))

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(float(x) for x in _strip(coeffs)))

    @property
    def degree(self):
        if len(self.coeffs) == 1 and self.coeffs[0] == 0.0:
            return -1  # zero polynomial
        return len(self.coeffs) - 1

    def __call__(self, t: float) -> float:
        return _horner(self.coeffs, t)

    def cauchy_bound(self) -> float:
        """All real roots lie in (-B, B) with B = 1 + max |c_i / c_n|."""
        lead = self.coeffs[-1]
        if lead == 0.0:
            return 1.0
        return 1.0 + max(abs(c / lead) for c in self.coeffs[:-1])


def _horner(coeffs, x):
    """p(x) from the ascending coefficients."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _value_and_slope(rev, x):
    """p(x) and p'(x) in one Horner pass; ``rev`` holds p's coefficients
    from the highest degree down."""
    f = df = 0.0
    for c in rev:
        df = df * x + f
        f = f * x + c
    return f, df


def _refine(coeffs, a, b, fa, fb, tol):
    """The root of p in the sign-change bracket (a, b), p(a) = fa, p(b) = fb.

    Safeguarded Newton from the secant point: every evaluation shrinks the
    bracket to the side of the sign change, and a step that would leave it
    becomes a bisection step.  Once a step falls under the relative tol, at
    most three plain Newton steps, kept inside the original bracket, take a
    simple root to machine precision.
    """
    rev = coeffs[::-1]
    lo, hi = a, b
    neg = fa < 0.0
    x = a - fa * (b - a) / (fb - fa)
    if not a < x < b:
        x = 0.5 * (a + b)
    for _ in range(200):
        f, df = _value_and_slope(rev, x)
        if f == 0.0:
            return x
        if (f < 0.0) == neg:
            a = x
        else:
            b = x
        xn = x - f / df if df != 0.0 else math.nan
        if not a < xn < b:  # nan fails too
            xn = 0.5 * (a + b)
        eps = tol * max(1.0, abs(xn))
        converged = abs(xn - x) <= eps or b - a <= eps
        x = xn
        if converged:
            break
    for _ in range(3):
        f, df = _value_and_slope(rev, x)
        if df == 0.0:
            break
        xn = x - f / df
        # a step too small to move x would be repeated unchanged
        if xn == x or not lo <= xn <= hi:
            break
        x = xn
    return x


def _scale_at(coeffs, x):
    ax, s, t = abs(x), 0.0, 1.0
    for c in coeffs:
        s += abs(c) * t
        t *= ax
    return max(s, 1.0)


def _roots(coeffs, lo, hi, tol):
    """real_roots_flagged on a coefficient tuple of degree >= 1 with a
    nonzero leading coefficient, over a finite (lo, hi)."""
    if len(coeffs) == 2:
        r = -coeffs[0] / coeffs[1]
        return [(r, True)] if lo < r < hi else []
    crit = [r for r, _ in _roots(tuple(i * c for i, c in enumerate(coeffs))[1:], lo, hi, tol)]
    pts = [lo] + crit + [hi]
    vals = [_horner(coeffs, x) for x in pts]
    roots = []
    for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
        if b - a <= tol * max(1.0, abs(a), abs(b)):
            # two critical points closer than the resolution: signs next to a
            # potential root in between cannot be trusted
            m = 0.5 * (a + b)
            if abs(_horner(coeffs, m)) <= NOISE_FLOOR * _scale_at(coeffs, m):
                raise RootIsolationError(
                    f"cannot separate roots near {m!r} at tol={tol!r}"
                )
            continue
        if (fa < 0.0) != (fb < 0.0):
            r = a if fa == 0.0 else _refine(coeffs, a, b, fa, fb, tol)
            if lo < r < hi:
                roots.append((r, True))
    # even-multiplicity roots sit at critical points without a sign change
    for x, fx in zip(crit, vals[1:]):
        if abs(fx) <= NOISE_FLOOR * _scale_at(coeffs, x):
            if not any(abs(x - r) <= 10.0 * tol * max(1.0, abs(x)) for r, _ in roots):
                roots.append((x, False))
    roots.sort(key=lambda rs: rs[0])
    return roots


def real_roots_flagged(p: Polynomial, lo: float, hi: float, tol: float = ROOT_TOL):
    """All real roots of p in (lo, hi) as (root, simple) pairs, ascending.

    Roots of the derivative partition (lo, hi) into intervals on which p is
    monotone; each monotone interval holds at most one root, bracketed by a
    sign change and refined by safeguarded Newton (each step bisects
    instead when Newton would leave the bracket).  A derivative root where
    |p| falls below the evaluation noise floor is reported as a non-simple
    root (even multiplicity: no sign change to bracket).
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if tol <= 0.0:
        raise ValueError("need tol > 0")
    if math.isinf(hi):
        hi = p.cauchy_bound()
        if hi <= lo:
            return []
    if math.isinf(lo):
        lo = -p.cauchy_bound()
        if hi <= lo:
            return []
    if p.degree <= 0:
        return []
    return _roots(p.coeffs, lo, hi, tol)


def real_roots_in(p: Polynomial, lo: float, hi: float, tol: float = ROOT_TOL):
    """Sorted real roots of p in (lo, hi), including even-multiplicity ones."""
    return [r for r, _ in real_roots_flagged(p, lo, hi, tol)]
