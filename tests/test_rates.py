import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricbounds.errors import DomainError
from ricbounds.rates import (
    ProblemShape,
    _net_foot,
    _net_max_raw,
    _net_min_log_lambda,
    binet_log_gamma_lower,
    log_binomial_bounds,
    net_exponent_max,
    psi_max,
    psi_min,
    shannon_entropy,
)

mpmath.mp.dps = 50


def mp_entropy(p):
    p = mpmath.mpf(p)
    return float(-p * mpmath.log(p) - (1 - p) * mpmath.log(1 - p))


class TestShannonEntropy:
    def test_endpoints_are_zero(self):
        assert shannon_entropy(0.0) == 0.0
        assert shannon_entropy(1.0) == 0.0

    @pytest.mark.parametrize("p", [1e-9, 1e-3, 0.1, 0.25, 0.5, 0.9, 1 - 1e-9])
    def test_against_high_precision(self, p):
        assert shannon_entropy(p) == pytest.approx(mp_entropy(p), rel=1e-13)

    def test_maximum_at_half(self):
        assert shannon_entropy(0.5) == pytest.approx(math.log(2.0), rel=1e-15)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    def test_symmetry(self, p):
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(1.0 - p), rel=1e-9, abs=1e-12)

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_positive_in_interior(self, p):
        assert shannon_entropy(p) > 0.0

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.inf])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            shannon_entropy(p)


class TestPsi:
    @pytest.mark.parametrize(
        "lam,gamma",
        [(2.0, 0.3), (8.77, 0.7), (1e-4, 0.5), (0.01, 0.95), (3.0, 1.5)],
    )
    def test_psi_max_high_precision(self, lam, gamma):
        lam_m, g_m = mpmath.mpf(lam), mpmath.mpf(gamma)
        ref = 0.5 * ((1 + g_m) * mpmath.log(lam_m) - g_m * mpmath.log(g_m) + 1 + g_m - lam_m)
        assert psi_max(lam, gamma) == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("lam,gamma", [(0.1, 0.3), (1e-5, 0.5), (0.5, 0.95)])
    def test_psi_min_high_precision(self, lam, gamma):
        lam_m, g_m = mpmath.mpf(lam), mpmath.mpf(gamma)
        ref = mpmath.mpf(mp_entropy(gamma)) + 0.5 * (
            (1 - g_m) * mpmath.log(lam_m) + g_m * mpmath.log(g_m) + 1 - g_m - lam_m
        )
        assert psi_min(lam, gamma) == pytest.approx(float(ref), rel=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=60)
    def test_psi_max_derivative_matches_closed_form(self, lam, gamma):
        # d/dlam psi_max = (1/2)[(1+gamma)/lam - 1], central difference.
        h = lam * 1e-6
        fd = (psi_max(lam + h, gamma) - psi_max(lam - h, gamma)) / (2 * h)
        exact = 0.5 * ((1.0 + gamma) / lam - 1.0)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)

    @given(
        st.floats(min_value=1e-3, max_value=0.9),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60)
    def test_psi_min_derivative_matches_closed_form(self, lam, gamma):
        h = lam * 1e-6
        fd = (psi_min(lam + h, gamma) - psi_min(lam - h, gamma)) / (2 * h)
        exact = 0.5 * ((1.0 - gamma) / lam - 1.0)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)

    def test_psi_min_rejects_gamma_at_or_above_one(self):
        with pytest.raises(DomainError):
            psi_min(0.5, 1.0)
        with pytest.raises(DomainError):
            psi_min(0.5, 1.2)


class TestNetExponents:
    def test_entropy_ratio_vanishes_at_gamma_equals_rho(self):
        shape = ProblemShape(0.3, 0.4, gamma=0.4)
        direct = shape.delta * psi_max(2.5, 0.4) + shannon_entropy(0.4 * 0.3)
        assert net_exponent_max(2.5, shape) == pytest.approx(direct, rel=1e-14)

    def test_requires_gamma(self):
        with pytest.raises(TypeError):
            ProblemShape(0.3, 0.4)

    def test_term_sum_against_high_precision(self):
        d, r, g, lam = 0.25, 0.4, 0.6, 3.0
        ref = (
            mpmath.mpf(d) * (0.5 * ((1 + mpmath.mpf(g)) * mpmath.log(lam)
                                    - g * mpmath.log(g) + 1 + g - lam))
            + mp_entropy(r * d)
            - d * g * mp_entropy(r / g)
        )
        got = net_exponent_max(lam, ProblemShape(d, r, gamma=g))
        assert got == pytest.approx(float(ref), rel=1e-12)

    def test_min_term_sum_against_high_precision(self):
        d, r, g, lam = 0.25, 0.2, 0.4, 0.1
        md, mg, mlam = mpmath.mpf(d), mpmath.mpf(g), mpmath.mpf(lam)
        ref = (
            md * (mp_entropy(g) + 0.5 * ((1 - mg) * mpmath.log(mlam)
                                         + mg * mpmath.log(mg) + 1 - mg - mlam))
            + mp_entropy(r * d)
            - md * mg * mp_entropy(r / g)
        )
        got = _net_min_log_lambda(math.log(lam), d, r, g)
        assert got == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("d", [0.05, 0.5, 0.95])
    def test_foot_matches_generic_exponents(self, d):
        # Where 1 +- gamma is a double of its own, the closed form agrees with
        # the generic exponents at lambda = 1 +- gamma to a few ulps of the
        # largest term.
        for i in range(200):
            g = 1e-3 * 999.0 ** (i / 199)
            for r in (g, 0.5 * g, 1e-3 * g):
                scale = 1.0 + g + shannon_entropy(r * d)
                tol = 8.0 * math.ulp(scale)
                assert _net_foot(1.0, d, r, g, shannon_entropy(r * d)) == pytest.approx(_net_max_raw(1.0 + g, d, r, g), rel=0.0, abs=tol)
                lower = _net_min_log_lambda(math.log1p(-g), d, r, g)
                assert _net_foot(-1.0, d, r, g, shannon_entropy(r * d)) == pytest.approx(lower, rel=0.0, abs=tol)

    @pytest.mark.parametrize("rho", [1e-20, 1e-150])
    @pytest.mark.parametrize("d", [0.01, 0.5, 0.99])
    def test_foot_where_one_plus_gamma_rounds(self, d, rho):
        # At gamma = rho, 1 +- gamma rounds to 1 and the generic exponents lose
        # every gamma-sized term; the closed form keeps them.  The entropy-ratio
        # term vanishes at gamma = rho.
        with mpmath.workdps(400):
            md, mr = mpmath.mpf(d), mpmath.mpf(rho)
            H = lambda p: -p * mpmath.log(p) - (1 - p) * mpmath.log(1 - p)
            for sign in (1, -1):
                lam = 1 + sign * mr
                psi = 0.5 * ((1 + sign * mr) * mpmath.log(lam) - sign * mr * mpmath.log(mr) + 1 + sign * mr - lam)
                if sign < 0:
                    psi += H(mr)
                ref = float(md * psi + H(mr * md))
                assert _net_foot(float(sign), d, rho, rho, shannon_entropy(rho * d)) == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestProblemShape:
    def test_gamma_window(self):
        ProblemShape(0.5, 0.3, gamma=1.7)
        with pytest.raises(DomainError):
            ProblemShape(0.5, 0.3, gamma=0.2)
        with pytest.raises(DomainError):
            ProblemShape(0.5, 0.3, gamma=2.5)

    @pytest.mark.parametrize("delta,rho", [(0.0, 0.3), (1.0, 0.3), (0.5, 0.0), (0.5, 1.0)])
    def test_point_outside_unit_square(self, delta, rho):
        with pytest.raises(DomainError):
            ProblemShape(delta, rho, gamma=0.5)


class TestStirlingBrackets:
    def test_brackets_hold_for_all_small_binomials(self):
        for n in range(2, 61):
            for k in range(1, n):
                lo, hi = log_binomial_bounds(n, k / n)
                exact = math.log(math.comb(n, k))
                assert lo <= exact <= hi, (n, k)

    def test_rejects_non_integer_split(self):
        with pytest.raises(DomainError):
            log_binomial_bounds(10, 0.17)


class TestBinet:
    def test_below_log_gamma_on_grid(self):
        for i in range(100):
            z = 0.05 + i * 0.5
            assert binet_log_gamma_lower(z) <= float(mpmath.loggamma(z)) + 1e-12

    def test_tight_for_large_z(self):
        z = 500.0
        assert binet_log_gamma_lower(z) == pytest.approx(float(mpmath.loggamma(z)), rel=1e-4)
