import math
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricbounds import asymptotic
from ricbounds.asymptotic import (
    L1_THRESHOLD,
    _root,
    bct_bounds,
    bt_bounds,
    compute_bounds,
    ct_bounds,
    l1_phase_transition,
    optimize_gamma_for_max,
    optimize_gamma_for_min,
    solve_lambda_max,
    solve_lambda_min,
    stationarity_residual,
)
from ricbounds.errors import DomainError, SolverError
from ricbounds.rates import _net_max_raw, _net_min_log_lambda, shannon_entropy

mpmath.mp.dps = 40


def mp_net_max(lam, d, r, g):
    lam, d, r, g = map(mpmath.mpf, (lam, d, r, g))
    H = lambda p: -p * mpmath.log(p) - (1 - p) * mpmath.log(1 - p)
    psi = 0.5 * ((1 + g) * mpmath.log(lam) - g * mpmath.log(g) + 1 + g - lam)
    return d * psi + H(r * d) - d * g * H(r / g)


@pytest.fixture
def net_calls(monkeypatch):
    """Counts net-exponent evaluations made through asymptotic's imports."""
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(asymptotic, "_net_max_raw", counted(_net_max_raw))
    monkeypatch.setattr(asymptotic, "_net_min_log_lambda", counted(_net_min_log_lambda))
    return calls


class TestLambdaSolvers:
    def test_root_against_independent_high_precision_solve(self):
        d, r, g = 0.1, 0.5, 0.7
        lam = solve_lambda_max(d, r, g)
        ref = mpmath.findroot(lambda x: mp_net_max(x, d, r, g), mpmath.mpf(lam))
        assert lam == pytest.approx(float(ref), rel=1e-11)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_max_root_residual_and_constraint(self, d, r, t):
        g = r + t * (1.0 / d - r)
        lam = solve_lambda_max(d, r, g)
        assert lam >= 1.0 + g
        assert abs(_net_max_raw(lam, d, r, g)) < 1e-12

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_root_residual_and_constraint(self, d, r, t):
        g = r + t * (1.0 - 1e-6 - r)
        log_lam = solve_lambda_min(d, r, g)
        assert log_lam <= math.log1p(-g)
        assert abs(_net_min_log_lambda(log_lam, d, r, g)) < 1e-12

    def test_failures_name_the_solve(self, monkeypatch):
        monkeypatch.setattr(asymptotic, "_net_max_raw", lambda lam, d, r, g: -1.0)
        with pytest.raises(SolverError, match=r"negative at the foot of lambda\^max \(delta=0.5, rho=0.3, gamma=0.4\)"):
            solve_lambda_max(0.5, 0.3, 0.4)
        # A jump, not a root: the bracket closes but the residual stays 1.
        monkeypatch.setattr(asymptotic, "_net_min_log_lambda", lambda x, d, r, g: 1.0 if x > -1.0 else -1.0)
        with pytest.raises(SolverError, match=r"residual above 1e-12 at lambda\^min \(delta=0.5, rho=0.3, gamma=0.4\)") as err:
            solve_lambda_min(0.5, 0.3, 0.4)
        # The message also names the residual, the root and the final bracket.
        m = re.search(r"\): \|f\| = 1 at (\S+), bracket \[(\S+), (\S+)\]$", str(err.value))
        root, a, b = map(float, m.groups())
        assert a > -1.0 >= b and root == 0.5 * (a + b)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            solve_lambda_max(0.5, 0.5, 0.4)
        with pytest.raises(DomainError):
            solve_lambda_min(0.5, 0.5, 1.0)


class TestRoot:
    @staticmethod
    def root(f, a, b, tol, limit):
        return _root(f, a, b, tol, limit, f(a))

    def test_increasing_and_decreasing_roots(self):
        a, b = self.root(lambda x: 2.0 - x, 0.0, 1.0, 1e-12, 100.0)
        assert a < 2.0 <= b and b - a <= 1e-12
        a, b = self.root(lambda x: x * x - 2.25, 3.0, 2.5, 1e-12, 0.0)
        assert b <= 1.5 < a and a - b <= 1e-12

    def test_expansion_to_the_right_and_left(self):
        a, b = self.root(lambda x: 1e3 - x, 1.0, 2.0, 1e-9, 1e9)
        assert a < 1e3 <= b
        a, b = self.root(lambda x: x + 1e3, 0.0, -1.0, 1e-9, -1e9)
        assert b <= -1e3 < a

    def test_bracket_contract(self):
        f = lambda x: math.exp(-x) - 0.25
        for tol in (1e-3, 1e-8, 1e-13):
            a, b = self.root(f, 0.0, 1.0, tol, 50.0)
            assert f(a) > 0.0 >= f(b)
            assert abs(b - a) <= tol

    def test_limit_without_sign_change_raises(self):
        with pytest.raises(SolverError, match="no sign change"):
            self.root(lambda x: 1.0, 0.0, 1.0, 1e-12, 10.0)
        with pytest.raises(SolverError, match="no sign change"):
            self.root(lambda x: 1.0 + x, 0.0, -0.5, 1e-12, -0.9)

    def test_start_must_be_positive(self):
        with pytest.raises(SolverError, match="needs f > 0"):
            self.root(lambda x: -1.0 - x, 0.0, 1.0, 1e-12, 10.0)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(asymptotic, "_ROOT_STEPS", 3)
        with pytest.raises(SolverError, match="wider than"):
            self.root(math.cos, 0.0, 3.0, 1e-14, 10.0)

    def test_lambda_roots_take_few_evaluations(self, net_calls):
        for solve in (solve_lambda_max, solve_lambda_min):
            net_calls[0] = 0
            solve(0.5, 0.5, 0.7)
            assert net_calls[0] <= 20

    def test_exact_zero_with_tolerance_below_one_ulp(self):
        # f hits 0 exactly at 2 and tol is far below the spacing of doubles
        # there: the search has to stop at adjacent doubles, not creep.
        xs = []

        def f(x):
            xs.append(x)
            return 2.0 - x

        a, b = _root(f, 0.0, 1.0, 1e-300, 100.0, 2.0)
        assert len(xs) <= 10
        assert f(a) > 0.0 >= f(b)
        assert math.nextafter(a, b) == b and a < 2.0 <= b

    SHAPES = {
        "linear": lambda y: y,
        "cubic": lambda y: y**3,
        "cbrt": lambda y: math.copysign(abs(y) ** (1 / 3), y),
        "tanh": math.tanh,
        # Flat, then a cliff: the shape of the BT gamma search at small rho.
        "cliff": lambda y: min(0.017, 1e4 * y),
        "zero_run": lambda y: max(y, 0.0),
    }

    @given(
        st.floats(min_value=1e-2, max_value=1e3).flatmap(lambda m: st.sampled_from([m, -m])),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from(sorted(SHAPES)),
        st.sampled_from([1.0, -1.0]),
        st.integers(min_value=3, max_value=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_contract_on_monotone_functions(self, r, dist, step, shape, s, e):
        # f > 0 on the side of r that a starts on; tol 10^-e goes from 1e-3
        # to far below one ulp of r.
        g = self.SHAPES[shape]
        f = lambda x: g(s * (r - x))
        tol, a0 = 10.0**-e, r - s * dist
        a, b = self.root(f, a0, a0 + s * step, tol, r + s * 1e6)
        assert f(a) > 0.0 >= f(b)
        assert abs(b - a) <= tol or math.nextafter(a, b) == b


class TestGammaOptimizers:
    def test_max_optimizer_improves_on_gamma_equals_rho(self):
        for d, r in [(0.1, 0.5), (0.3, 0.2), (0.7, 0.7)]:
            opt = optimize_gamma_for_max(d, r)
            g, lam, boundary = opt.gamma, opt.value, opt.at_boundary
            assert r < g <= 1.0 / d
            assert lam <= solve_lambda_max(d, r, r) + 1e-12
            if not boundary:
                # First-order condition lam (g - rho)^2 = g^3, log form.
                resid = abs(math.log(lam) + 2 * math.log(g - r) - 3 * math.log(g))
                assert resid < 1e-6

    def test_min_optimizer_improves_on_gamma_equals_rho(self):
        for d, r in [(0.1, 0.5), (0.3, 0.2), (0.7, 0.7)]:
            opt = optimize_gamma_for_min(d, r)
            g, log_lam, boundary = opt.gamma, opt.value, opt.at_boundary
            assert r < g < 1.0
            assert log_lam >= solve_lambda_min(d, r, r) - 1e-10
            if not boundary:
                resid = abs(
                    3 * math.log(g) + log_lam - 2 * math.log1p(-g) - 2 * math.log(g - r)
                )
                assert resid < 1e-6

    def test_carried_offset_is_ln_gamma_minus_rho(self):
        for d, r in [(0.1, 0.5), (0.3, 0.2), (0.7, 0.7)]:
            for opt in (optimize_gamma_for_max(d, r), optimize_gamma_for_min(d, r)):
                assert opt.log_offset == pytest.approx(math.log(opt.gamma - r), abs=1e-12)

    def test_offset_survives_where_gamma_rounds_onto_rho(self):
        opt = optimize_gamma_for_min(0.05, 0.95)
        g, log_lam, boundary = opt.gamma, opt.value, opt.at_boundary
        assert g == 0.95 and not boundary
        assert math.isfinite(opt.log_offset)
        # At offsets this small the first-order condition gives
        # gamma - rho = rho^(3/2) lambda^(1/2) / (1 - gamma).
        predicted = 1.5 * math.log(0.95) + 0.5 * log_lam - math.log1p(-0.95)
        assert opt.log_offset == pytest.approx(predicted, abs=1e-6)

    def test_lower_gain_matches_first_order_prediction(self):
        # BT's gain in ln lambda^min over gamma = rho is 2 (gamma - rho) /
        # (1 - rho) to first order; the acceptance gate relies on it.
        for d, r in [(0.143, 0.857), (0.516, 0.888), (0.702, 0.95)]:
            bt, bct = bt_bounds(d, r), bct_bounds(d, r)
            gain = bt.log_lambda_min - bct.log_lambda_min
            predicted = 2.0 * math.exp(bt.log_gamma_offset_max) / (1.0 - r)
            assert gain == pytest.approx(predicted, rel=1e-3)

    def test_stationarity_residual_signs(self):
        interior = bt_bounds(0.1, 0.5)
        for side in ("upper", "lower"):
            assert abs(stationarity_residual(interior, side)) < 1e-10
        edge = bt_bounds(0.8, 0.8)
        assert edge.boundary_upper
        assert stationarity_residual(edge, "upper") < 0.0
        for other in (bct_bounds(0.5, 0.5), ct_bounds(0.5, 0.5)):
            assert stationarity_residual(other, "upper") is None
            assert stationarity_residual(other, "lower") is None
        with pytest.raises(DomainError):
            stationarity_residual(interior, "middle")

    @pytest.mark.parametrize("d, r", [(0.1, 0.5), (0.001, 0.001)])
    def test_dense_scan_confirms_optimum(self, d, r):
        # gamma - rho spans twelve decades below each edge, so the scan also
        # reaches optima that sit close to rho, as in the corner.
        fracs = [10.0 ** (-12.0 * i / 400.0) for i in range(401)]
        g_hi, g_cap = 1.0 / d, min(1.0, 1.0 / d) - 1e-9
        lam_opt = optimize_gamma_for_max(d, r).value
        scan = min(solve_lambda_max(d, r, r + (g_hi - r) * t) for t in fracs)
        assert lam_opt <= scan + 1e-9
        log_lam_opt = optimize_gamma_for_min(d, r).value
        scan = max(solve_lambda_min(d, r, r + (g_cap - r) * t) for t in fracs)
        assert log_lam_opt >= scan - 1e-9

    @pytest.mark.parametrize("d", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("r", [0.999, 1.0 - 1e-5, 1.0 - 1e-7])
    def test_finite_as_rho_tends_to_one(self, d, r):
        b = bt_bounds(d, r)
        for value in (b.L, b.U, b.log_lambda_min, b.log_gamma_offset_min, b.log_gamma_offset_max):
            assert math.isfinite(value)
        assert abs(_net_max_raw(b.lambda_max, d, r, b.gamma_min)) <= 1e-12
        assert abs(_net_min_log_lambda(b.log_lambda_min, d, r, b.gamma_max)) <= 1e-12
        assert b.lambda_max >= 1.0 + b.gamma_min
        assert b.log_lambda_min <= math.log1p(-b.gamma_max)
        assert b.log_lambda_min >= bct_bounds(d, r).log_lambda_min - 1e-13

    @pytest.mark.parametrize("d, r", [(0.5, 0.5), (0.05, 0.95), (0.001, 0.001), (0.5, 0.999)])
    def test_bt_takes_few_evaluations(self, d, r, net_calls):
        bt_bounds(d, r)
        assert net_calls[0] <= 100

    def test_small_rho_gamma_search_takes_few_evaluations(self, net_calls):
        # The first-order exponent is flat at +0.017, then drops to -1.8e4.
        g = optimize_gamma_for_max(0.5, 0.003)
        assert net_calls[0] <= 30
        assert abs(_net_max_raw(g.value, 0.5, 0.003, g.gamma)) <= 1e-12

    @pytest.mark.parametrize("d, r", [(0.1, 0.5), (0.8, 0.8)])
    def test_each_optimizer_solves_lambda_once(self, d, r, monkeypatch):
        calls = {"max": 0, "min": 0}

        def counted(side, fn):
            def wrapper(*args):
                calls[side] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(asymptotic, "solve_lambda_max", counted("max", solve_lambda_max))
        monkeypatch.setattr(asymptotic, "solve_lambda_min", counted("min", solve_lambda_min))
        optimize_gamma_for_max(d, r)
        assert calls == {"max": 1, "min": 0}
        optimize_gamma_for_min(d, r)
        assert calls == {"max": 1, "min": 1}


class TestFamilies:
    def test_ct_closed_form_values(self):
        b = ct_bounds(0.5, 0.5)
        spread = math.sqrt(4.0 * shannon_entropy(0.25))
        assert b.U == pytest.approx((1 + math.sqrt(0.5) + spread) ** 2 - 1, rel=1e-14)
        assert b.L == 1.0  # edge term is negative here, clamped
        assert b.lambda_min == 0.0

    def test_ct_lower_positive_for_small_rho(self):
        b = ct_bounds(0.5, 1e-4)
        assert 0.0 < b.L < 1.0

    def test_family_ordering_at_midpoint(self):
        bt = bt_bounds(0.5, 0.5)
        bct = bct_bounds(0.5, 0.5)
        ct = ct_bounds(0.5, 0.5)
        assert bt.U < bct.U < ct.U
        assert bt.L < bct.L <= ct.L

    def test_bct_nu_fix_never_hurts(self):
        for d, r in [(0.1, 0.5), (0.5, 0.3), (0.8, 0.1)]:
            b = bct_bounds(d, r)
            assert b.U <= solve_lambda_max(d, r, r) - 1.0 + 1e-10
            assert r <= b.nu_opt <= 1.0

    @pytest.mark.parametrize("d, r", [(0.3, 0.2), (0.97, 0.46), (0.9, 0.7)])
    def test_bct_nu_against_dense_scan(self, d, r):
        b = bct_bounds(d, r)
        assert b.nu_opt in (r, 1.0 - 1e-12)
        scan = min(
            solve_lambda_max(d, nu, nu)
            for nu in [r + (1 - 1e-9 - r) * i / 2000.0 for i in range(2001)]
        )
        assert b.lambda_max <= scan + 1e-8

    def test_bct_solves_lambda_three_times(self, monkeypatch):
        calls = {"max": 0, "min": 0}

        def counted(side, fn):
            def wrapper(*args):
                calls[side] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(asymptotic, "solve_lambda_max", counted("max", solve_lambda_max))
        monkeypatch.setattr(asymptotic, "solve_lambda_min", counted("min", solve_lambda_min))
        bct_bounds(0.5, 0.5)
        assert calls == {"max": 2, "min": 1}

    def test_dispatch(self):
        assert compute_bounds("CT", 0.5, 0.5).family == "CT"
        with pytest.raises(DomainError):
            compute_bounds("XX", 0.5, 0.5)

    def test_record_consistency(self):
        b = bt_bounds(0.2, 0.4)
        assert b.U == pytest.approx(b.lambda_max - 1.0, rel=1e-15)
        assert b.L == pytest.approx(1.0 - b.lambda_min, rel=1e-15)
        assert b.log_lambda_min == pytest.approx(math.log(b.lambda_min), rel=1e-12)


class TestPhaseTransition:
    def test_rho_star_order_of_magnitude(self):
        rs = l1_phase_transition(0.5, "BT")
        assert 1e-4 < rs < 1e-2

    def test_threshold_is_binding(self):
        rs = l1_phase_transition(0.5, "BT")
        below = compute_bounds("BT", 0.5, rs * 0.999)
        above = compute_bounds("BT", 0.5, rs * 1.01)
        assert max(below.L, below.U) < L1_THRESHOLD
        assert max(above.L, above.U) >= L1_THRESHOLD

    def test_bt_above_bct(self):
        assert l1_phase_transition(0.3, "BT") >= l1_phase_transition(0.3, "BCT")

    @pytest.mark.parametrize("family, ceiling", [("BT", 700), ("BCT", 450)])
    @pytest.mark.parametrize("d", [0.05, 0.5, 0.95])
    def test_phase_takes_few_evaluations(self, d, family, ceiling, net_calls):
        l1_phase_transition(d, family)
        assert net_calls[0] <= ceiling
