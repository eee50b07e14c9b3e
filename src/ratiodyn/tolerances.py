"""The thresholds that more than one part of the package reads.

Every verdict turns on an "equals 1" decision (a + b + c + d = 1, sigma = +-1,
p*q = 1, a multiplier of +-1) or on a "the tail has settled" decision; the
numbers behind them live here.  A threshold that one algorithm alone reads
stays in its module as a named constant.  This module imports nothing.
"""

#: resolution of a root bracket, relative to the root; the default ``tol`` of
#: the analytic layer and of ``--tol``
ROOT_TOL = 1e-9

#: closed-form quantities (a + b + c + d, sigma, the unit-product cycle's
#: multiplier) count as equal to 1 within this band
EPS_CRIT = 1e-9

#: values that come out of a root search carry about this much relative
#: error: within it a product or multiplier counts as +-1, and a point counts
#: as a fixed point or 2-cycle point of phi
EPS_SEARCHED = 1e-6

#: a tail has settled when its last TAIL_WINDOW values (or their even and odd
#: halves) spread by at most TAIL_TOL relative
TAIL_TOL = 1e-8
TAIL_WINDOW = 64

#: steps an orbit is walked unless the caller says otherwise
DEFAULT_BUDGET = 100000
#: the least budget the oracle takes; classify raises its cross-check to it
ORACLE_MIN_BUDGET = 1000

#: |t| under this stops a walk: the next step would divide by about zero
DEFAULT_ZERO_GUARD = 1e-300

#: log10 |x_n| past which, with a confirming trend, the oracle calls
#: divergence (THETA_UP) or vanishing (THETA_DOWN)
THETA_UP = 12.0
THETA_DOWN = -12.0
