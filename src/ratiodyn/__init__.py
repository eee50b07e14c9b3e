"""Asymptotics of a cubic-over-quadratic rational second-order recurrence.

The solution sequence is steered entirely by the orbit of its consecutive
ratios under a one-dimensional rational map; this package enumerates that
map's equilibria and 2-cycles, evaluates the stability criteria that decide
the neutral cases, and classifies orbits analytically with an empirical
cross-check.
"""

from .classify import (
    Verdict,
    classify,
    classify_cycle_limit,
    classify_equilibrium_limit,
    classify_remark,
)
from .criteria import (
    CriterionReport,
    DegeneracyError,
    R_second_at_1,
    S_second_at_q,
    criterion_report,
    gamma_of,
    kappa,
    l_quantity,
    lambda_prime_of,
    r_of,
    rho_of,
    s_of,
    theta_of,
    xi_prime_of,
)
from .cycles import (
    PairingError,
    TwoCycle,
    eq2_cycle_family,
    find_two_cycles,
    lemma1b_signs,
    two_cycle_poly,
    unit_product_cycle,
)
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
from .polynomial import RootIsolationError
from .ratio_map import (
    CriticalPoints,
    Equilibrium,
    Parameters,
    critical_points,
    equilibria,
    fixed_point_poly,
    negative_escape_region,
    numerator_poly,
    phi,
    phi_double_prime,
    phi_prime,
    second_iterate,
)
from .simulate import (
    LimitReport,
    RatioTrajectory,
    SolutionTrajectory,
    detect_ratio_limit,
    empirical_class,
    iterate_ratio,
    iterate_solution,
    subsequence_monotonicity,
)

__version__ = "0.1.0"
