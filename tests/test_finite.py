import math

import mpmath
import pytest

from ricbounds.errors import DomainError
from ricbounds.finite import (
    FiniteInstance,
    log_covering_failure_bound,
    log_g_max_pdf_bound,
    log_g_min_pdf_bound,
    tail_prob_lower,
    tail_prob_upper,
)
from ricbounds.rates import _net_max_raw, _net_min_log_lambda, psi_max, psi_min

mpmath.mp.dps = 50


def mp_g_max(m, n, lam):
    m, n, lam = mpmath.mpf(m), mpmath.mpf(n), mpmath.mpf(lam)
    return (
        mpmath.sqrt(2 * mpmath.pi)
        * (n * lam) ** mpmath.mpf(-1.5)
        * (n * lam / 2) ** ((n + m) / 2)
        / (mpmath.gamma(m / 2) * mpmath.gamma(n / 2))
        * mpmath.exp(-n * lam / 2)
    )


def mp_g_min(m, n, lam):
    m, n, lam = mpmath.mpf(m), mpmath.mpf(n), mpmath.mpf(lam)
    return (
        mpmath.sqrt(mpmath.pi / (2 * n * lam))
        * (n * lam / 2) ** ((n - m) / 2)
        * mpmath.gamma((n + 1) / 2)
        / (mpmath.gamma(m / 2) * mpmath.gamma((n - m + 1) / 2) * mpmath.gamma((n - m + 2) / 2))
        * mpmath.exp(-n * lam / 2)
    )


class TestPdfBounds:
    # An absolute 1e-12 in the log is a relative 1e-12 in the density.
    def test_g_max_against_high_precision(self):
        for m, n, lam in [(2, 4, 2.0), (10, 40, 3.5)]:
            ref = float(mpmath.log(mp_g_max(m, n, lam)))
            assert log_g_max_pdf_bound(m, n, lam) == pytest.approx(ref, abs=1e-12)

    def test_g_min_against_high_precision(self):
        for m, n, lam in [(2, 4, 0.1), (8, 30, 0.05)]:
            ref = float(mpmath.log(mp_g_min(m, n, lam)))
            assert log_g_min_pdf_bound(m, n, lam) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("n,gamma", [(20, 0.5), (50, 0.3), (100, 0.8)])
    def test_g_max_below_polynomial_exponential_split(self, n, gamma):
        # g_max <= p * exp(n psi_max) where the polynomial factor follows
        # from the Stirling and Binet inequalities:
        # p = (2 sqrt(2 pi))^(-1) gamma^(1/2) n^(-1/2) lam^(-3/2).
        # (A commonly quoted n^(-7/2) variant of this coefficient does not
        # bound the density once n grows; see the test below.)
        m = round(gamma * n)
        g = m / n
        for lam in (0.5, 1.0 + g, 5.0, 20.0):
            log_p = (
                -math.log(2.0)
                - 0.5 * math.log(2.0 * math.pi)
                + 0.5 * math.log(g)
                - 0.5 * math.log(n)
                - 1.5 * math.log(lam)
            )
            assert log_g_max_pdf_bound(m, n, lam) <= log_p + n * psi_max(lam, g) + 1e-9

    def test_published_seventh_power_coefficient_is_not_an_envelope(self):
        # The n^(-7/2) coefficient understates the density; pinned here so
        # the discrepancy is visible rather than silently absorbed.
        n, g, lam = 50, 0.3, 0.5
        m = round(g * n)
        log_p = (
            0.5 * math.log(8 / math.pi) - math.log(g) - 3.5 * math.log(n) - 1.5 * math.log(lam)
        )
        assert log_g_max_pdf_bound(m, n, lam) > log_p + n * psi_max(lam, g)

    @pytest.mark.parametrize("n,gamma", [(20, 0.5), (50, 0.3), (100, 0.8)])
    def test_g_min_below_polynomial_exponential_split(self, n, gamma):
        # g_min <= p_min * exp(n psi_min) with p_min = e / (2 pi sqrt(2 lam)).
        m = round(gamma * n)
        g = m / n
        for lam in (1e-4, 0.01, 0.5 * (1 - g)):
            log_p = 1.0 - math.log(2 * math.pi) - 0.5 * math.log(2 * lam)
            assert log_g_min_pdf_bound(m, n, lam) <= log_p + n * psi_min(lam, g) + 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            log_g_max_pdf_bound(0, 4, 1.0)
        with pytest.raises(DomainError):
            log_g_min_pdf_bound(5, 4, 1.0)
        with pytest.raises(DomainError):
            log_g_max_pdf_bound(2, 4, 0.0)

    @pytest.mark.parametrize("call", [
        lambda x: psi_max(x, 0.5),
        lambda x: psi_max(2.0, x),
        lambda x: psi_min(x, 0.5),
        lambda x: log_g_max_pdf_bound(2, 4, x),
        lambda x: log_g_min_pdf_bound(2, 4, x),
    ], ids=["psi_max-lam", "psi_max-gamma", "psi_min-lam", "g_max-lam", "g_min-lam"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_argument_raises_not_nan(self, call, x):
        with pytest.raises(DomainError):
            call(x)


class TestCoveringFailureBound:
    def test_against_high_precision(self):
        k, N = 100, 2000
        ref = (
            mpmath.log(mpmath.mpf(5) / 4)
            - mpmath.log(2 * mpmath.pi * k * (1 - mpmath.mpf(k) / N)) / 2
            - N * (1 - mpmath.log(2))
        )
        assert log_covering_failure_bound(k, N) == pytest.approx(float(ref), rel=1e-12)

    def test_monotone_decreasing_in_N_at_fixed_ratio(self):
        vals = [log_covering_failure_bound(N // 20, N) for N in (200, 400, 800)]
        assert vals[0] > vals[1] > vals[2]

    def test_half_ratio_minimizes_prefactor(self):
        N = 100
        at_half = log_covering_failure_bound(50, N)
        assert all(
            log_covering_failure_bound(k, N) >= at_half - 1e-12 for k in (5, 20, 80, 95)
        )


INSTANCES = [
    FiniteInstance(100, 200, 2000, 1e-3),
    FiniteInstance(200, 400, 4000, 1e-3),
    FiniteInstance(400, 800, 8000, 1e-3),
]


class TestTailBounds:
    def test_upper_total_in_unit_interval(self):
        for inst in INSTANCES:
            tb = tail_prob_upper(inst)
            assert 0.0 <= tb.total <= 1.0
            assert tb.eig_term >= 0.0 and tb.cover_term >= 0.0

    def test_total_is_sum_of_terms(self):
        tb = tail_prob_upper(INSTANCES[0])
        assert tb.total == pytest.approx(tb.eig_term + tb.cover_term, rel=1e-12)

    def test_psi_derivative_negative_both_sides(self):
        up = tail_prob_upper(INSTANCES[0])
        lo = tail_prob_lower(FiniteInstance(100, 200, 2000, 1e-5))
        assert up.psi_derivative < 0.0
        assert lo.psi_derivative < 0.0

    def test_decreasing_in_epsilon(self):
        t1 = tail_prob_upper(FiniteInstance(100, 200, 2000, 1e-3)).log_total
        t2 = tail_prob_upper(FiniteInstance(100, 200, 2000, 1e-2)).log_total
        assert t2 < t1
        l1 = tail_prob_lower(FiniteInstance(100, 200, 2000, 1e-6)).log_total
        l2 = tail_prob_lower(FiniteInstance(100, 200, 2000, 1e-5)).log_total
        assert l2 < l1

    def test_decreasing_along_proportional_family(self):
        logs = [tail_prob_upper(i).log_total for i in INSTANCES]
        assert logs[0] > logs[1] > logs[2]

    def test_epsilon_to_zero_recovers_prefactor_product(self):
        # At vanishing slack the eigenvalue term reduces to the prefactor
        # times exp(N * net exponent at the root), the latter within solver
        # residual of 1.
        tb = tail_prob_upper(FiniteInstance(100, 200, 2000, 1e-15))
        assert tb.log_eig_term == pytest.approx(tb.log_prefactor_proof, abs=1e-6)

    def test_upper_prefactor_forms_differ_by_half_log_gamma(self):
        tb = tail_prob_upper(INSTANCES[0])
        assert tb.log_prefactor_stated - tb.log_prefactor_proof == pytest.approx(
            0.5 * math.log(tb.gamma_used), rel=1e-10
        )

    def test_lower_prefactor_forms_coincide(self):
        tb = tail_prob_lower(FiniteInstance(100, 200, 2000, 1e-5))
        assert tb.log_prefactor_stated == tb.log_prefactor_proof

    def test_lower_log_lambda_star_is_finite_even_when_linear_underflows(self):
        tb = tail_prob_lower(FiniteInstance(100, 200, 2000, 1e-5))
        assert math.isfinite(tb.log_lambda_star)
        assert tb.lambda_star == pytest.approx(math.exp(tb.log_lambda_star), rel=1e-12)

    def test_lower_tail_finite_where_gamma_rounds_onto_rho(self):
        # gamma - rho lies below one ulp of rho at these sizes; the prefactor
        # takes ln(gamma - rho) from the gamma search, not from gamma.
        for inst in (FiniteInstance(95, 100, 2000, 1e-3), FiniteInstance(190, 200, 1000, 1e-3)):
            tb = tail_prob_lower(inst)
            assert tb.gamma_used == inst.rho_n
            for v in (tb.log_prefactor_proof, tb.log_eig_term, tb.log_total):
                assert math.isfinite(v)
            assert 0.0 <= tb.total <= 1.0

    def test_lower_tail_refuses_gamma_equal_to_rho(self):
        # The lower gamma search returns ln(gamma - rho) = -inf here; the
        # Stirling bracket behind the prefactor needs m > k, so the lower
        # tail is refused while the upper side (gamma = 1/delta) is finite.
        inst = FiniteInstance(10**9 - 1, 10**9, 2 * 10**9, 1e-3)
        with pytest.raises(DomainError, match="degenerate group ratio"):
            tail_prob_lower(inst)
        tb = tail_prob_upper(inst)
        assert tb.gamma_used == 2.0
        for v in (tb.log_prefactor_proof, tb.log_eig_term, tb.log_total):
            assert math.isfinite(v)

    @pytest.mark.parametrize("tail", [tail_prob_upper, tail_prob_lower])
    def test_log_eig_term_is_prefactor_plus_net_plus_slack(self, tail):
        insts = INSTANCES if tail is tail_prob_upper else [FiniteInstance(100, 200, 2000, 1e-5)]
        for inst in insts:
            tb = tail(inst)
            args = (inst.delta_n, inst.rho_n, tb.gamma_used)
            if tail is tail_prob_upper:
                net = _net_max_raw(tb.lambda_star, *args)
            else:
                net = _net_min_log_lambda(tb.log_lambda_star, *args)
            expected = (
                tb.log_prefactor_proof + inst.N * net + inst.n * inst.epsilon * tb.psi_derivative
            )
            assert tb.log_eig_term == pytest.approx(expected, abs=1e-12)

    def test_instance_validation(self):
        with pytest.raises(DomainError):
            FiniteInstance(200, 200, 2000, 1e-3)
        # Sizes are counts: a matrix with 2.5 columns has no tail bound.
        with pytest.raises(DomainError, match="k must be an integer"):
            FiniteInstance(2.5, 10, 20, 1e-3)
        with pytest.raises(DomainError):
            FiniteInstance(100, 200, 2000, 0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(DomainError):
            FiniteInstance(100, 200, 2000, epsilon)


# Recorded from the implementation that preceded the shared tail body, so
# that restructuring the assembly cannot move the published numbers.  They
# guard the assembly, not the last digits of a root: gamma is held to
# 1e-12 relative and ln lambda* to 1e-13, the stop of the ln lambda^min
# search.  The linearised slack multiplies an error in ln lambda* by about
# n eps / (2 lambda*), ~120 on the lower rows and ~1e53 on the two rows
# where gamma rounds onto rho, so the log terms are held relative.
PINNED_TAILS = [
    (tail_prob_upper, (100, 200, 2000, 1e-3),
     0.6960364464198616, 2.171849608414388, -10.525421123707895, -10.525421123707895),
    (tail_prob_upper, (200, 400, 4000, 1e-3),
     0.6960364464198616, 2.171849608414388, -12.338959919595107, -12.338959919595107),
    (tail_prob_upper, (400, 800, 8000, 1e-3),
     0.6960364464198616, 2.171849608414388, -14.23316955996967, -14.23316955996967),
    (tail_prob_lower, (100, 200, 2000, 1e-5),
     0.5029199345349209, -11.00842360941057, -30.28697709409864, -30.28697709409864),
    (tail_prob_lower, (200, 400, 4000, 1e-5),
     0.5029199345349209, -11.00842360941057, -59.60683659494428, -59.60683659494428),
    (tail_prob_lower, (400, 800, 8000, 1e-5),
     0.5029199345349209, -11.00842360941057, -118.9397027771955, -118.9397027771955),
    (tail_prob_lower, (95, 100, 2000, 1e-3),
     0.95, -160.83586977198604, -1.7703973170003052e+67, -616.6540397218095),
    (tail_prob_lower, (190, 200, 1000, 1e-3),
     0.95, -105.21063007282979, -2.4624424113523384e+43, -310.06676594236757),
]


@pytest.mark.parametrize("tail,size,gamma,log_lam,log_eig,log_total", PINNED_TAILS)
def test_pinned_tail_values(tail, size, gamma, log_lam, log_eig, log_total):
    tb = tail(FiniteInstance(*size))
    assert tb.gamma_used == pytest.approx(gamma, rel=1e-12)
    assert tb.log_lambda_star == pytest.approx(log_lam, abs=1e-13)
    assert tb.log_eig_term == pytest.approx(log_eig, rel=1e-12)
    assert tb.log_total == pytest.approx(log_total, rel=1e-12)
