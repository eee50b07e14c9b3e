"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the captured
output of a failure).  Frozen reference values were computed with independent
straightforward implementations (direct iteration, dense scanning) and are
quoted to their stable digits.
"""

import math
import random

from ratiodyn.classify import classify
from ratiodyn.criteria import (
    DegeneracyError,
    R_second_at_1,
    gamma_of,
    kappa,
    lambda_prime_of,
    r_of,
    rho_of,
    s_of,
    theta_of,
)
from ratiodyn.cycles import find_two_cycles, lemma1b_signs, unit_product_cycle
from ratiodyn.outcomes import (
    CONVERGES_TO_EQUILIBRIUM,
    CONVERGES_TO_TWO_CYCLE,
    CONVERGES_TO_ZERO,
    DIVERGES_TO_INFINITY,
    UNDETERMINED,
)
from ratiodyn.ratio_map import (
    Parameters,
    equilibria,
    negative_escape_region,
    phi,
    phi_double_prime,
    phi_prime,
    second_iterate,
)
from ratiodyn.simulate import empirical_class, iterate_solution
from tests.test_cli import run_cli

NEUTRAL_EXAMPLE = Parameters(0.2, 1.7, -2.0, 1.1)
UNIT_CYCLE_EXAMPLE = Parameters(0.1, 1.79, -2.0, 1.0)

DEFINITE = (
    CONVERGES_TO_EQUILIBRIUM,
    CONVERGES_TO_TWO_CYCLE,
    CONVERGES_TO_ZERO,
    DIVERGES_TO_INFINITY,
)


def report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status}")
    assert not failures, failures


def approx(x, ref, rel=0.0, abs_=0.0):
    return abs(x - ref) <= max(rel * abs(ref), abs_)


def random_unit_instance(rng):
    """(params, cycle) with an exact-product 2-cycle, built via the closed form."""
    while True:
        a, b, d = (rng.uniform(0.05, 3.0) for _ in range(3))
        k = (d - b + 1.0) / a
        if k > 2.05:
            break
    params = Parameters(a, b, a - d * k, d)
    return params, unit_product_cycle(params)


def test_criterion_1_neutral_example_reproduction():
    failures = []
    params = NEUTRAL_EXAMPLE
    eqs = equilibria(params)
    if not (len(eqs) == 1 and approx(eqs[0].value, 1.0, abs_=1e-6)):
        failures.append(f"equilibria {[(e.value) for e in eqs]}")
    cycles = find_two_cycles(params)
    refs = ((0.2262, 63.6517), (0.5110, 4.1111))
    if len(cycles) != 2 or not all(
        approx(c.p, pr, rel=1e-3) and approx(c.q, qr, rel=1e-3)
        for c, (pr, qr) in zip(cycles, refs)
    ):
        failures.append(f"cycles {[(c.p, c.q) for c in cycles]}")
    sigma = params.b + 2.0 * params.c + 3.0 * params.d
    if not approx(sigma, 1.0, abs_=1e-12):  # "exact" up to float evaluation
        failures.append(f"sigma {sigma!r}")
    if not approx(R_second_at_1(params), 3.62, abs_=1e-12):
        failures.append(f"R''(1) {R_second_at_1(params)!r}")
    rng = random.Random(20)
    p2, q2 = cycles[1].p, cycles[1].q
    starts = [1.5]
    while len(starts) < 21:
        t0 = rng.uniform(p2 + 1e-3, q2 - 1e-3)
        if abs(t0 - 1.0) > 1e-2:
            starts.append(t0)
    for t0 in starts:
        v = classify(params, 1.0, t0)
        if (v.asymptotic_class, v.rule) != (DIVERGES_TO_INFINITY, "T1.c3"):
            failures.append(f"classify({t0}) -> {v.asymptotic_class}/{v.rule}")
    report(1, "neutral example reproduction", failures)


def test_criterion_1_oracle_divergence_confirmation():
    """The empirical confirmation half of criterion 1: from these starts the
    orbit magnitude should cross 12 decades within 1e5 steps.

    This check fails, and the failure is real, not a tolerance artifact: the
    divergence proved for this doubly-neutral case is polynomial.  The ratios
    approach 1 like 1 + 0.92/sqrt(n), so log |x_n| grows like sqrt(n) times a
    vanishing factor (measured: |x_n| ~ n^0.55, reaching only ~2.4 decades at
    n = 1e5; 12 decades would need on the order of 1e21 steps).  The theorem
    verdict (divergence) and the oracle threshold are simply incompatible at
    this budget, and weakening either side would falsify the check, so it is
    left failing.
    """
    traj = iterate_solution(NEUTRAL_EXAMPLE, 1.0, 1.5, 100000)
    peak = max(traj.log_magnitudes)
    failures = []
    if peak <= 12.0:
        failures.append(
            f"log10 |x_n| peaked at {peak:.3f} within 1e5 steps; "
            "polynomial divergence cannot reach 12 decades at this budget"
        )
    report(1, "oracle confirms divergence past 12 decades", failures)


def test_criterion_2_unit_cycle_example_reproduction():
    failures = []
    params = UNIT_CYCLE_EXAMPLE
    eqs = equilibria(params)
    if not (len(eqs) == 1 and approx(eqs[0].value, 0.9423, abs_=1e-3)):
        failures.append(f"equilibria {[(e.value) for e in eqs]}")
    cycles = find_two_cycles(params)
    refs = ((0.1024, 759.2585), (0.6021, 2.1370), (0.7298, 1.3702))
    if len(cycles) != 3 or not all(
        approx(c.p, pr, rel=1e-3) and approx(c.q, qr, rel=1e-3)
        for c, (pr, qr) in zip(cycles, refs)
    ):
        failures.append(f"cycles {[(c.p, c.q) for c in cycles]}")
    unit = unit_product_cycle(params)
    if unit is None or not approx(unit.product, 1.0, abs_=1e-9):
        failures.append(f"unit cycle {unit}")
    elif not 0.0 < unit.multiplier < 1.0:
        failures.append(f"unit multiplier {unit.multiplier!r}")
    expected = [
        (0.7, CONVERGES_TO_TWO_CYCLE, "T2.c1"),
        (1.0, CONVERGES_TO_TWO_CYCLE, "T2.c1"),
        (2.0, CONVERGES_TO_TWO_CYCLE, "T2.c1"),
        (0.3, DIVERGES_TO_INFINITY, "T2.a"),
        (3.0, DIVERGES_TO_INFINITY, "T2.a"),
    ]
    for t0, want_class, want_rule in expected:
        v = classify(params, 1.0, t0)
        if (v.asymptotic_class, v.rule) != (want_class, want_rule):
            failures.append(f"classify({t0}) -> {v.asymptotic_class}/{v.rule}")
        oracle = empirical_class(params, 1.0, t0, 100000)
        if oracle != want_class:
            failures.append(f"oracle({t0}) -> {oracle}")
    report(2, "unit-cycle example reproduction", failures)


def test_criterion_3_unit_cycle_roundtrip():
    failures = []
    rng = random.Random(42)
    for _ in range(100):
        params, cyc = random_unit_instance(rng)
        if cyc is None:
            failures.append(f"no unit cycle for {params}")
            continue
        p, q = cyc.p, cyc.q
        if abs(phi(params, p) - q) > 1e-9 or abs(phi(params, q) - p) > 1e-9:
            failures.append(f"closure {params}")
        found = find_two_cycles(params)
        if not any(
            approx(c.p, p, abs_=1e-6 * max(1.0, p))
            and approx(c.q, q, abs_=1e-6 * max(1.0, q))
            for c in found
        ):
            failures.append(f"enumeration missed unit cycle for {params}")
        lhs = p * p * phi_prime(params, p) + q * q * phi_prime(params, q)
        a, c, d = params.a, params.c, params.d
        rhs = -(2.0 + ((a - c) ** 2 - 4.0 * d * d) / d)
        if not approx(lhs, rhs, rel=1e-8, abs_=1e-8):
            failures.append(f"closed form {lhs!r} vs {rhs!r} for {params}")
        if not lhs < -2.0:
            failures.append(f"bound {lhs!r} for {params}")
    report(3, "unit-cycle construction roundtrip", failures)


def test_criterion_4_sign_lemma():
    failures = []
    rng = random.Random(42)  # same stream as criterion 3
    checked = 0
    for _ in range(5000):  # contracting cycles are rare under this sampling
        if checked == 50:
            break
        params, cyc = random_unit_instance(rng)
        if cyc is None or abs(cyc.multiplier) > 1.0:
            continue
        checked += 1
        left, right = lemma1b_signs(params, cyc)
        if not left < 0.0 < right:
            failures.append(f"signs ({left!r}, {right!r}) for {params}")
    if checked < 50:
        failures.append(f"only {checked} contracting instances sampled")
    report(4, "sign lemma on contracting unit cycles", failures)


def _orbit(params, t0, n):
    ts = [t0]
    t = t0
    for _ in range(n):
        if not 1e-9 < abs(t) < 1e9:
            break
        t = phi(params, t)
        ts.append(t)
    return ts


def test_criterion_5_identity_suite():
    failures = []
    rng = random.Random(5)
    for i in range(200):
        kind = i % 4
        if kind == 0:
            # a+b+c+d = 1: first-difference slope identity
            a, b, d = (rng.uniform(0.05, 0.8) for _ in range(3))
            params = Parameters(a, b, 1.0 - a - b - d, d)
            ts = _orbit(params, rng.uniform(0.3, 2.5), 100)
            for t, t1 in zip(ts, ts[1:]):
                if t <= 1e-6:
                    break
                lhs = t1 * t - t  # (x_{n+1} - x_n) / x_{n-1}
                rhs = r_of(params, t) * (t - 1.0)
                if not approx(lhs, rhs, rel=1e-8, abs_=1e-8):
                    failures.append(f"f12 at {t!r} for {params}")
                    break
        elif kind == 1:
            # a+b+c+d = sigma = 1: second-difference slope identity
            d = rng.uniform(0.05, 1.0)
            a = rng.uniform(0.05, 0.45 * (1.0 + d))
            params = Parameters(a, 1.0 - 2.0 * a + d, a - 2.0 * d, d)
            ts = _orbit(params, rng.uniform(0.3, 2.5), 100)
            for t, t1 in zip(ts, ts[1:]):
                if t <= 1e-6:
                    break
                lhs = t1 * t - 1.0  # (x_{n+1} - x_{n-1}) / x_{n-1}
                rhs = rho_of(params, t) * (t - 1.0)
                if not approx(lhs, rhs, rel=1e-8, abs_=1e-8):
                    failures.append(f"f15 at {t!r} for {params}")
                    break
        elif kind == 2:
            # generic parameters: secant-slope identities at every 2-cycle
            a, b, d = (rng.uniform(0.05, 2.0) for _ in range(3))
            params = Parameters(a, b, rng.uniform(-3.0, 1.0), d)
            for cyc in find_two_cycles(params):
                for _ in range(5):
                    t = rng.uniform(0.2, 3.0)
                    scale = max(1.0, abs(phi(params, t)), cyc.q)
                    lhs = phi(params, t) - cyc.q
                    rhs = gamma_of(params, cyc.p, t) * (t - cyc.p)
                    if abs(lhs - rhs) > 1e-8 * scale:
                        failures.append(f"f23 at {t!r} for {params}")
                    lhs = phi(params, t) - cyc.p
                    rhs = theta_of(params, cyc.q, t) * (t - cyc.q)
                    if abs(lhs - rhs) > 1e-8 * scale:
                        failures.append(f"f24 at {t!r} for {params}")
        else:
            # unit-product instance: cross-step and double-difference identities
            params, cyc = random_unit_instance(rng)
            ts = _orbit(params, rng.uniform(0.3, 2.5), 100)
            for n in range(len(ts) - 3):
                u0, u1, u2, u3 = ts[n : n + 4]
                if min(u0, u1, u2, u3) <= 1e-6:
                    break
                lhs = u2 * u1 - 1.0  # x_{n+2}/x_n - 1
                rhs = lambda_prime_of(params, cyc, u0) * (u1 - cyc.q)
                if not approx(lhs, rhs, rel=1e-8, abs_=1e-8):
                    failures.append(f"f31 at {u0!r} for {params}")
                    break
                try:
                    s = s_of(params, cyc, u0)
                except DegeneracyError:
                    continue
                lhs = u3 * u2 * u1 * u0 - u1 * u0  # D_{n+2} / x_{n-2}
                rhs = s * (u1 * u0 - 1.0)
                if not approx(lhs, rhs, rel=1e-8, abs_=1e-8):
                    failures.append(f"f33 at {u0!r} for {params}")
                    break
            # endpoint identities of the secant slopes
            p, q = cyc.p, cyc.q
            if not approx(gamma_of(params, p, p), phi_prime(params, p), rel=1e-8):
                failures.append(f"gamma endpoint for {params}")
            if not approx(theta_of(params, q, q), phi_prime(params, q), rel=1e-8):
                failures.append(f"theta endpoint for {params}")
            h = 1e-6 * p
            fd = (gamma_of(params, p, p + h) - gamma_of(params, p, p - h)) / (2.0 * h)
            if not approx(fd, phi_double_prime(params, p) / 2.0, rel=1e-5, abs_=1e-5):
                failures.append(f"gamma' endpoint for {params}")
            h = 1e-6 * q
            fd = (theta_of(params, q, q + h) - theta_of(params, q, q - h)) / (2.0 * h)
            if not approx(fd, phi_double_prime(params, q) / 2.0, rel=1e-5, abs_=1e-5):
                failures.append(f"theta' endpoint for {params}")
    report(5, "orbit identity suite", failures)


def test_criterion_6_s_machinery():
    failures = []
    # multiplier exactly 1 (closed-form member of the family)
    d, k = 0.5, 3.0
    a = (-1.5 + math.sqrt(3.25)) / 2.0
    params = Parameters(a, d + 1.0 - a * k, a - d * k, d)
    cyc = unit_product_cycle(params)
    if not approx(cyc.multiplier, 1.0, abs_=1e-9):
        failures.append(f"multiplier {cyc.multiplier!r} not 1")
    if not approx(s_of(params, cyc, cyc.q), 1.0, abs_=1e-8):
        failures.append(f"s(q) {s_of(params, cyc, cyc.q)!r}")
    q = cyc.q
    h = 1e-5 * q
    fd = (s_of(params, cyc, q + h) - s_of(params, cyc, q - h)) / (2.0 * h)
    if not approx(fd, kappa(params, cyc), rel=1e-4):
        failures.append(f"s'(q) {fd!r} vs kappa {kappa(params, cyc)!r}")

    # multiplier exactly -1
    d, k = 1.0, 3.0
    a = (-3.0 + math.sqrt(10.6)) / 2.0
    params = Parameters(a, d + 1.0 - a * k, a - d * k, d)
    cyc = unit_product_cycle(params)
    if not approx(cyc.multiplier, -1.0, abs_=1e-9):
        failures.append(f"multiplier {cyc.multiplier!r} not -1")

    def S(t):
        return s_of(params, cyc, t) * s_of(params, cyc, second_iterate(params, t))

    q = cyc.q
    if not approx(S(q), 1.0, abs_=1e-6):
        failures.append(f"S(q) {S(q)!r}")
    h = 1e-5 * q
    fd = (S(q + h) - S(q - h)) / (2.0 * h)
    if not approx(fd, 0.0, abs_=1e-6):
        failures.append(f"S'(q) {fd!r}")
    report(6, "s/S machinery on constructed neutral cycles", failures)


def test_criterion_7_oracle_equivalence():
    failures = []
    definite = 0
    for i in range(200):
        c = -3.0 + i * 2.0 / 199.0
        params = Parameters(0.1, 1.79, c, 1.0)
        v = classify(params, 1.0, 1.3, budget=10000)
        if v.conditional or v.rule == "oracle" or v.asymptotic_class not in DEFINITE:
            continue
        definite += 1
        oracle = empirical_class(params, 1.0, 1.3, 100000)
        if oracle != v.asymptotic_class:
            failures.append(
                f"c={c!r}: verdict {v.asymptotic_class}/{v.rule} vs oracle {oracle}"
            )
    if definite < 100:
        failures.append(f"only {definite} definite verdicts over the sweep")
    report(7, "theorem verdicts match the oracle over the c sweep", failures)


def test_criterion_8_negative_start_escape():
    failures = []
    params = NEUTRAL_EXAMPLE
    region = negative_escape_region(params)
    if region is None:
        report(8, "negative starts escape", ["escape region absent"])
        return
    r, r_prime = region
    rng = random.Random(8)
    samples = [r - math.exp(rng.uniform(-3.0, 5.0)) for _ in range(50)]
    samples += [r_prime * rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(50)]
    for s in samples:
        t = s
        for _ in range(3):
            t = phi(params, t)
            if t > 0.0:
                break
        else:
            failures.append(f"{s!r} still negative after 3 steps")
    report(8, "negative starts escape within 3 steps", failures)


def test_criterion_9_structural_invariants():
    failures = []
    # sign symmetry: negating both seeds negates the orbit pointwise
    rng = random.Random(9)
    for _ in range(20):
        a, b, d = (rng.uniform(0.05, 2.0) for _ in range(3))
        params = Parameters(a, b, rng.uniform(-2.0, 1.0), d)
        x_m1, x0 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        pos = iterate_solution(params, x_m1, x0, 60)
        neg = iterate_solution(params, -x_m1, -x0, 60)
        if pos.ratios != neg.ratios or pos.log_magnitudes != neg.log_magnitudes:
            failures.append(f"sign symmetry magnitudes for {params}")
        if any(sp != -sn for sp, sn in zip(pos.signs, neg.signs)):
            failures.append(f"sign symmetry signs for {params}")

    # constancy exactly when a+b+c+d = 1 and the two seeds agree
    for _ in range(20):
        a, b, d = (rng.uniform(0.05, 0.8) for _ in range(3))
        x = rng.uniform(0.2, 5.0)
        unit_sum = Parameters(a, b, 1.0 - a - b - d, d)
        # short horizon: when the fixed ratio is repelling, float rounding in
        # the constant orbit grows geometrically and exact arithmetic is the
        # only regime where constancy holds forever
        traj = iterate_solution(unit_sum, x, x, 10)
        lx = math.log10(x)
        if any(abs(lm - lx) > 1e-12 * max(1.0, abs(lx)) for lm in traj.log_magnitudes):
            failures.append(f"constant orbit drifts for {unit_sum}")
        off_sum = Parameters(a, b, 1.2 - a - b - d, d)
        traj = iterate_solution(off_sum, x, x, 5)
        if abs(traj.log_magnitudes[2] - lx) <= 1e-13:
            failures.append(f"orbit constant despite sum != 1 for {off_sum}")

    # CLI determinism across repeated runs and thread counts
    argv = [
        "sweep", "--params", "0.1,1.79,C,1", "--c-range", "-3:-1:10",
        "--x0-ratio", "1.3", "--steps", "5000",
    ]
    first = run_cli(*argv, "--threads", "1")
    if first != run_cli(*argv, "--threads", "1"):
        failures.append("sweep not reproducible across runs")
    if first[1] != run_cli(*argv, "--threads", "4")[1]:
        failures.append("sweep differs across thread counts")
    if run_cli("analyze", "--params", "0.2,1.7,-2,1.1", "--format", "json") != run_cli(
        "analyze", "--params", "0.2,1.7,-2,1.1", "--format", "json"
    ):
        failures.append("analyze not reproducible")
    report(9, "structural invariants", failures)
