"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Several criteria assert published reference numbers that the faithful
formulas do not reproduce; those tests fail honestly rather than bending
the implementation to match.  The printed line carries the measured value
so the gap is visible in the test log.
"""

import csv
import io
import math
import time
from itertools import product

import pytest

from ricbounds import asymptotic, covering, empirical, finite
from ricbounds.rates import (
    _net_max_raw,
    _net_min_log_lambda,
    binet_log_gamma_lower,
    log_binomial_bounds,
    shannon_entropy,
)


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


TABLE_UPPER = [
    (100, 200, 2000, 1e-3, 2.9e-2),
    (200, 400, 4000, 1e-3, 9.5e-3),
    (400, 800, 8000, 1e-3, 2.9e-3),
    (100, 200, 2000, 1e-10, 3.2e-2),
    (200, 400, 4000, 1e-10, 1.1e-2),
    (400, 800, 8000, 1e-10, 4.0e-3),
]

TABLE_LOWER = [
    (100, 200, 2000, 1e-5, 2.8e-18),
    (200, 400, 4000, 1e-5, 9.1e-32),
    (400, 800, 8000, 1e-5, 2.8e-58),
]


def test_criterion_1_upper_table_reproduction():
    t0 = time.monotonic()
    ratios = []
    for k, n, N, eps, printed in TABLE_UPPER:
        tb = finite.tail_prob_upper(finite.FiniteInstance(k, n, N, eps))
        ratios.append(tb.total / printed)
    elapsed = time.monotonic() - t0
    ok = all(0.5 <= r <= 2.0 for r in ratios) and elapsed < 1.0
    _criterion(
        1,
        "upper-tail table values within factor 2",
        ok,
        f"ratios computed/printed: {['%.2e' % r for r in ratios]}, {elapsed:.2f}s",
    )


def test_criterion_2_lower_table_reproduction():
    t0 = time.monotonic()
    log10_ratios = []
    for k, n, N, eps, printed in TABLE_LOWER:
        tb = finite.tail_prob_lower(finite.FiniteInstance(k, n, N, eps))
        log10_ratios.append(tb.log_total / math.log(10) - math.log10(printed))
    elapsed = time.monotonic() - t0
    ok = all(abs(r) <= 0.31 for r in log10_ratios) and elapsed < 1.0
    _criterion(
        2,
        "lower-tail table values within factor 2 in log space",
        ok,
        f"log10 ratios: {['%.1f' % r for r in log10_ratios]}, {elapsed:.2f}s",
    )


def test_criterion_3_root_correctness(interior_grid):
    t0 = time.monotonic()
    worst = 0.0
    violations = 0
    for d in interior_grid["deltas"]:
        for r in interior_grid["rhos"]:
            bt = interior_grid["bt"][(d, r)]
            checks = [
                ("max", solve_gamma := bt.gamma_min, bt.lambda_max),
                ("max", r, math.exp(asymptotic.solve_lambda_max(d, r, r))),
            ]
            for _, g, lam in checks:
                resid = abs(_net_max_raw(lam, d, r, g))
                worst = max(worst, resid)
                if resid >= 1e-12 or lam < 1.0 + g:
                    violations += 1
            for g, log_lam in [
                (bt.gamma_max, bt.log_lambda_min),
                (r, asymptotic.solve_lambda_min(d, r, r)),
            ]:
                resid = abs(_net_min_log_lambda(log_lam, d, r, g))
                worst = max(worst, resid)
                if resid >= 1e-12 or log_lam > math.log1p(-g):
                    violations += 1
    elapsed = time.monotonic() - t0 + interior_grid["build_seconds"]
    ok = violations == 0 and elapsed < 30.0
    _criterion(
        3,
        "all solved lambdas have |net exponent| < 1e-12 and obey side constraints",
        ok,
        f"violations={violations}, worst residual={worst:.2e}, {elapsed:.1f}s incl. grid build",
    )


# Stop width of solve_lambda_min in ln(lambda): two lower bounds that
# differ by less than this are the same root to the solver's resolution.
LOG_LAMBDA_MIN_WIDTH = 1e-13


def test_criterion_4_strict_improvement(interior_grid):
    not_strict = 0
    max_ratio = 0.0
    for d in interior_grid["deltas"]:
        for r in interior_grid["rhos"]:
            bt = interior_grid["bt"][(d, r)]
            bct = interior_grid["bct"][(d, r)]
            # U_BT < U_BCT iff lambda_max ordering; L_BT < L_BCT iff
            # log lambda_min ordering (larger lambda_min means smaller L).
            if not (bt.lambda_max < bct.lambda_max):
                not_strict += 1
            # BT's gain in ln lambda_min over gamma = rho is 2 (gamma - rho)
            # / (1 - rho) to first order.  Where that is below the solver's
            # resolution the two roots cannot be told apart, so the lower
            # side is held strict only where the gain is resolvable, and
            # elsewhere must not fall below BCT by more than the resolution.
            gain = 2.0 * math.exp(bt.log_gamma_offset_max) / (1.0 - r)
            lower_gap = bt.log_lambda_min - bct.log_lambda_min
            if gain > LOG_LAMBDA_MIN_WIDTH:
                if not (lower_gap > 0.0):
                    not_strict += 1
            elif lower_gap < -LOG_LAMBDA_MIN_WIDTH:
                not_strict += 1
            max_ratio = max(max_ratio, bct.U / bt.U)
    ok = not_strict == 0 and 1.05 <= max_ratio <= 1.25
    _criterion(
        4,
        "gamma-optimized bounds strictly improve, max U ratio in [1.05, 1.25]",
        ok,
        f"non-strict points={not_strict}, max U ratio={max_ratio:.4f}",
    )


def test_criterion_5_stationarity(interior_grid):
    bad = 0
    worst_resid = 0.0
    min_log_offset = math.inf
    for d in interior_grid["deltas"]:
        for r in interior_grid["rhos"]:
            bt = interior_grid["bt"][(d, r)]
            # (side, edge flag, carried ln(gamma - rho), sign the first-order
            # expression must take when the optimum sits on the edge).
            for side, at_edge, log_offset, edge_sign in (
                ("upper", bt.boundary_upper, bt.log_gamma_offset_min, -1.0),
                ("lower", bt.boundary_lower, bt.log_gamma_offset_max, 1.0),
            ):
                v = asymptotic.stationarity_residual(bt, side)
                if at_edge:
                    # KKT at the edge: the objective still decreases towards it.
                    if not (edge_sign * v > 0.0):
                        bad += 1
                    continue
                # exp(log residual) - 1 is the relative defect of the
                # first-order condition.
                rel = abs(math.expm1(v)) if v < 700.0 else math.inf
                worst_resid = max(worst_resid, rel)
                min_log_offset = min(min_log_offset, log_offset)
                if rel >= 1e-6 or not math.isfinite(log_offset):
                    bad += 1
    ok = bad == 0
    _criterion(
        5,
        "first-order conditions hold to 1e-6 relative, or the KKT sign at the edge",
        ok,
        f"failing checks={bad}, worst relative residual={worst_resid:.2e}, "
        f"min ln(gamma-rho)={min_log_offset:.1f}",
    )


def test_criterion_6_exhaustive_oracle_equivalence():
    t0 = time.monotonic()
    combos = list(product((6, 8), (10, 12), (2, 3)))
    matched = 0
    exceeded = 0
    for seed in range(20):
        n, N, k = combos[seed % len(combos)]
        sample = empirical.sample_gaussian(n, N, seed)
        L, U, _, _ = empirical.exhaustive_ric(sample, k)
        up = empirical.local_search(sample, k, "upper", restarts=100, seed=seed)
        lo = empirical.local_search(sample, k, "lower", restarts=100, seed=seed)
        if up.estimate > U + 1e-12 or lo.estimate > L + 1e-12:
            exceeded += 1
        if abs(up.estimate - U) <= 1e-9 and abs(lo.estimate - L) <= 1e-9:
            matched += 1
    elapsed = time.monotonic() - t0
    ok = matched >= 19 and exceeded == 0 and elapsed < 60.0
    _criterion(
        6,
        "local search equals the exhaustive oracle and never exceeds it",
        ok,
        f"matched {matched}/20, exceeded={exceeded}, {elapsed:.1f}s",
    )


def test_criterion_7_empirical_sharpness():
    ratios = []
    for N in (200, 500, 1000):
        for k in (2, 5, 10):
            ru, rl = empirical.sharpness_ratio(k, 100, N, seed=11, restarts=10)
            ratios.extend([ru, rl])
    at_least_one = sum(r >= 1.0 for r in ratios)
    ok = at_least_one >= math.ceil(0.99 * len(ratios)) and all(r < 2.0 for r in ratios)
    _criterion(
        7,
        "theory/empirical sharpness ratios in [1, 2) at n=100 scale",
        ok,
        f"{at_least_one}/{len(ratios)} ratios >= 1, max={max(ratios):.3f}",
    )


def test_criterion_8_covering_simulation():
    t0 = time.monotonic()
    trials = 1000
    plan0 = covering.CoveringPlan(N=12, k=3, m=6, seed=0)
    failures = 0
    for t in range(trials):
        ok_cover, _ = covering.random_cover(covering.CoveringPlan(N=12, k=3, m=6, seed=t))
        failures += not ok_cover
    bound = min(1.0, covering.covering_bound(plan0).intermediate)
    se = math.sqrt(bound * (1.0 - bound) / trials)
    elapsed = time.monotonic() - t0
    ok = failures / trials <= bound + 3 * se and elapsed < 30.0
    _criterion(
        8,
        "covering failure frequency within the union bound envelope",
        ok,
        f"failures={failures}/{trials}, bound+3SE={bound + 3 * se:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_phase_transition():
    deltas = [0.05 + (0.9524 - 0.05) * i / 49 for i in range(50)]
    uplift_lo, uplift_hi = math.inf, -math.inf
    pointwise_ok = True
    for d in deltas:
        bt = asymptotic.l1_phase_transition(d, "BT")
        bct = asymptotic.l1_phase_transition(d, "BCT")
        if bt < bct:
            pointwise_ok = False
        uplift = (bt - bct) / bct
        uplift_lo = min(uplift_lo, uplift)
        uplift_hi = max(uplift_hi, uplift)
    rho_half = asymptotic.l1_phase_transition(0.5, "BT")
    ok = (
        pointwise_ok
        and 0.001 <= uplift_lo
        and uplift_hi <= 0.03
        and 1e-4 <= rho_half <= 1e-2
    )
    _criterion(
        9,
        "BT phase curve above BCT with uplift in [0.1%, 3%]",
        ok,
        f"uplift range [{uplift_lo:.4f}, {uplift_hi:.4f}], rho*(0.5)={rho_half:.2e}",
    )


def test_criterion_10_property_suites():
    import numpy as np

    checks = []
    # Entropy symmetry.
    checks.append(
        all(
            abs(shannon_entropy(p) - shannon_entropy(1 - p)) < 1e-12
            for p in (0.01, 0.2, 0.37, 0.5)
        )
    )
    # psi derivative finite differences vs closed forms.
    from ricbounds.rates import psi_max, psi_min

    lam, g, h = 3.0, 0.6, 3e-6
    fd_max = (psi_max(lam + h, g) - psi_max(lam - h, g)) / (2 * h)
    checks.append(abs(fd_max - 0.5 * ((1 + g) / lam - 1)) < 1e-6 * abs(fd_max))
    lam = 0.2
    fd_min = (psi_min(lam + h, g) - psi_min(lam - h, g)) / (2 * h)
    checks.append(abs(fd_min - 0.5 * ((1 - g) / lam - 1)) < 1e-6 * abs(fd_min))
    # Stirling brackets vs exact binomials, N <= 60.
    checks.append(
        all(
            lo <= math.log(math.comb(n, k)) <= hi
            for n in range(2, 61)
            for k in range(1, n)
            for lo, hi in [log_binomial_bounds(n, k / n)]
        )
    )
    # Binet bound below high-precision log-gamma.
    import mpmath

    checks.append(
        all(
            binet_log_gamma_lower(z) <= float(mpmath.loggamma(z)) + 1e-12
            for z in [0.05 + 0.5 * i for i in range(100)]
        )
    )
    # Gram scaling covariance.
    cols = np.random.default_rng(2).standard_normal((12, 4))
    lo1, hi1 = empirical.gram_extreme_eigs(cols)
    lo2, hi2 = empirical.gram_extreme_eigs(2.0 * cols)
    checks.append(abs(lo2 - 4 * lo1) < 1e-10 * max(1, lo1) and abs(hi2 - 4 * hi1) < 1e-10 * hi1)
    # CSV round trip at shortest round-trip formatting.
    from ricbounds.cli import GRID_COLUMNS, _rows_to_csv

    b = asymptotic.bt_bounds(0.37, 0.52)
    row = {
        "delta": 0.37, "rho": 0.52, "family": "BT", "L": b.L, "U": b.U,
        "lambda_min": b.lambda_min, "lambda_max": b.lambda_max,
        "gamma_min": b.gamma_min, "gamma_max": b.gamma_max, "nu_opt": None,
    }
    parsed = next(csv.DictReader(io.StringIO(_rows_to_csv([row], GRID_COLUMNS))))
    checks.append(
        float(parsed["U"]) == b.U
        and float(parsed["lambda_min"]) == b.lambda_min
        and parsed["nu_opt"] == ""
    )
    ok = all(checks)
    _criterion(10, "property suites (entropy, derivatives, brackets, scaling, CSV)", ok,
               f"{sum(checks)}/{len(checks)} groups")


@pytest.mark.extended
def test_extended_sharpness_at_n_400():
    """Reproduction of the published sharpness envelope at n=400 (about half a minute)."""
    ratios = []
    for N in (800, 2000, 4000, 8000):
        for rho in (0.02, 0.05):
            k = max(2, round(rho * 400))
            ru, rl = empirical.sharpness_ratio(k, 400, N, seed=11, restarts=100)
            ratios.extend([ru, rl])
    assert all(1.0 <= r < 1.6 for r in ratios), ratios
