"""Real univariate polynomials with robust real-root isolation.

A polynomial is the sequence of its coefficients in ascending degree order,
so ``(d, c, b, a)`` is ``d + c*t + b*t**2 + a*t**3``.
"""

from __future__ import annotations

import math

from .tolerances import ROOT_TOL

__all__ = [
    "RootIsolationError",
    "real_roots_flagged",
]


#: |p(x)| at or under this share of the evaluation scale at x counts as zero
NOISE_FLOOR = 1e-9


class RootIsolationError(Exception):
    """Raised when two sign changes cannot be separated at the requested tolerance."""


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
    """real_roots_flagged on float coefficients of degree >= 1 with a
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


def real_roots_flagged(coeffs, lo: float, hi: float, tol: float = ROOT_TOL):
    """All real roots in (lo, hi) of the polynomial with the ascending
    coefficients ``coeffs``, as (root, simple) pairs, ascending.

    The coefficients are taken as floats, and zeros at the top are dropped,
    so a leading coefficient that underflowed lowers the degree.  An
    infinite end becomes the Cauchy bound: every real root lies in (-B, B)
    with B = 1 + max |c_i / c_n|.

    Roots of the derivative partition (lo, hi) into intervals on which p is
    monotone; each monotone interval holds at most one root, bracketed by a
    sign change and refined by safeguarded Newton (each step bisects
    instead when Newton would leave the bracket).  A derivative root where
    |p| falls below the evaluation noise floor is reported as a non-simple
    root (even multiplicity: no sign change to bracket).
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not 0.0 < tol < math.inf:  # a nan fails too
        raise ValueError(f"need 0 < tol < inf, got {tol!r}")
    coeffs = list(map(float, coeffs))
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) < 2:
        return []
    bound = 1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])
    if math.isinf(hi):
        hi = bound
    if math.isinf(lo):
        lo = -bound
    if hi <= lo:
        return []
    return _roots(coeffs, lo, hi, tol)
