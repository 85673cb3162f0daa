import math
import random
import re
import types

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricbounds import asymptotic
from ricbounds.asymptotic import (
    FAMILIES,
    L1_THRESHOLD,
    _lambert_y,
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
from ricbounds.errors import DomainError, RicBoundsError, SolverError
from ricbounds.rates import _net_foot, _net_max_raw, _net_min_log_lambda, shannon_entropy

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

    monkeypatch.setattr(asymptotic, "_net_foot", counted(_net_foot))
    monkeypatch.setattr(asymptotic, "_net_max_raw", counted(_net_max_raw))
    monkeypatch.setattr(asymptotic, "_net_min_log_lambda", counted(_net_min_log_lambda))
    return calls


class TestLambdaSolvers:
    def test_root_against_independent_high_precision_solve(self):
        d, r, g = 0.1, 0.5, 0.7
        lam = math.exp(solve_lambda_max(d, r, g))
        ref = mpmath.findroot(lambda x: mp_net_max(x, d, r, g), mpmath.mpf(lam))
        assert lam == pytest.approx(float(ref), rel=1e-11)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_max_root_residual_and_constraint(self, d, r, t):
        # r + (1/d - r) can round one ulp above 1/d, outside gamma's domain.
        g = min(r + t * (1.0 / d - r), 1.0 / d)
        lam = math.exp(solve_lambda_max(d, r, g))
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
        monkeypatch.setattr(asymptotic, "_net_foot", lambda s, d, r, g: -1.0)
        with pytest.raises(SolverError, match=r"negative at the foot of lambda\^max \(delta=0.5, rho=0.3, gamma=0.4\)"):
            solve_lambda_max(0.5, 0.3, 0.4)
        monkeypatch.undo()
        # f is +-1 everywhere, so the residual at the closed-form root is 1.
        monkeypatch.setattr(asymptotic, "_net_min_log_lambda", lambda x, d, r, g: 1.0 if x > -1.0 else -1.0)
        with pytest.raises(SolverError, match=r"residual above 1e-12 at lambda\^min \(delta=0.5, rho=0.3, gamma=0.4\)") as err:
            solve_lambda_min(0.5, 0.3, 0.4)
        # The message also names the residual and the root, in ln(lambda),
        # on the lower side of the foot ln(1 - gamma).
        m = re.search(r"\): \|f\| = 1 at (\S+)$", str(err.value))
        assert float(m.group(1)) < math.log1p(-0.4)
        # A nan residual is a failure too, not a silent nan.
        monkeypatch.setattr(asymptotic, "_net_max_raw", lambda lam, d, r, g: math.nan)
        with pytest.raises(SolverError, match=r"\|f\| = nan"):
            solve_lambda_max(0.5, 0.3, 0.4)

    def test_closed_form_against_mpmath_lambertw(self):
        # y = -eps - (1 + W(-e^(-1-eps))), W_-1 above the foot and W_0 below;
        # -e^(-1-eps) needs 40 + |log10 eps| digits to differ from -1/e.  A
        # second draw covers [1e-4, 10], where the Taylor sum, the series'
        # start and the eps = 1 switch take over from one another.
        rng = random.Random(0)
        eps_values = ([5e-324, 1e-300, 1.0, 1e12] + [10.0 ** rng.uniform(-323.3, 12.0) for _ in range(300)]
                      + [10.0 ** rng.uniform(-4.0, 1.0) for _ in range(100)])
        for eps in eps_values:
            with mpmath.workdps(40 + int(abs(math.log10(eps)))):
                z = -mpmath.exp(-1 - mpmath.mpf(eps))
                for sign, branch in ((1.0, -1), (-1.0, 0)):
                    ref = -mpmath.mpf(eps) - (1 + mpmath.lambertw(z, branch).real)
                    y = _lambert_y(eps, sign)
                    assert abs((y - ref) / ref) < 1e-15, (eps, sign, y)

    @pytest.mark.parametrize("eps", [2.0**53, 1e20, 1e300])
    def test_lower_root_far_below_the_foot(self, eps):
        # y = -1 - eps in double here; expm1(y) formed as (expm1(y) - y) + y
        # cancelled to 0 and the Halley step divided by it.
        assert _lambert_y(eps, -1.0) == -1.0 - eps

    def test_lambda_roots_take_few_evaluations(self, net_calls):
        # One at the foot, in closed form, and one for the residual: y itself
        # comes without a search.
        for d, r, g in [(0.5, 0.5, 0.7), (0.05, 0.95, 0.96), (0.5, 1e-20, 1e-20)]:
            for solve in (solve_lambda_max, solve_lambda_min):
                net_calls[0] = 0
                solve(d, r, g)
                assert net_calls[0] == 2

    @pytest.mark.parametrize("rho", [1e-40, 1e-150, 1e-300])
    @pytest.mark.parametrize("delta", [0.01, 0.5, 0.99])
    def test_tiny_rho_matches_leading_order(self, delta, rho):
        # As rho -> 0 both bounds approach sqrt(2 rho (3 - 2 ln delta - 3 ln rho)),
        # with relative corrections of order sqrt(rho |ln rho|): below 1e-18 here.
        ref = math.sqrt(2.0 * rho * (3.0 - 2.0 * math.log(delta) - 3.0 * math.log(rho)))
        bt = bt_bounds(delta, rho)
        for b in (bt, bct_bounds(delta, rho)):
            assert b.U == pytest.approx(ref, rel=1e-14, abs=0.0)
            assert b.L == pytest.approx(ref, rel=1e-14, abs=0.0)
        # The gamma searches keep their first-order root where lambda is
        # within an ulp of 1 +- gamma.
        for side in ("upper", "lower"):
            assert abs(stationarity_residual(bt, side)) <= 1e-12

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            solve_lambda_max(0.5, 0.5, 0.4)
        with pytest.raises(DomainError):
            solve_lambda_min(0.5, 0.5, 1.0)


class TestGammaOptimizers:
    def test_max_optimizer_improves_on_gamma_equals_rho(self):
        for d, r in [(0.1, 0.5), (0.3, 0.2), (0.7, 0.7)]:
            opt = optimize_gamma_for_max(d, r)
            g, lam, boundary = opt.gamma, math.exp(opt.value), opt.at_boundary
            assert r < g <= 1.0 / d
            assert lam <= math.exp(solve_lambda_max(d, r, r)) + 1e-12
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
        lam_opt = math.exp(optimize_gamma_for_max(d, r).value)
        scan = min(math.exp(solve_lambda_max(d, r, r + (g_hi - r) * t)) for t in fracs)
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

    @pytest.mark.parametrize("r", [1e-3, 0.3, 0.9])
    def test_delta_below_one_ulp_raises(self, r):
        # Below 2**-52, 1 + gamma at gamma = 1/delta rounds and BT's U used
        # to come out near 1/delta, above BCT's; at and above it U stays below.
        for k in range(17, 61):
            with pytest.raises(RicBoundsError, match="2\\*\\*-52"):
                bt_bounds(10.0**-k, r)
        for d in (2.0**-52, 1e-15, 1e-14, 1e-13, 1e-12):
            assert bt_bounds(d, r).U <= bct_bounds(d, r).U

    @pytest.mark.parametrize("d", [0.05, 0.5, 0.95])
    def test_tiny_rho_gives_a_value_or_a_typed_error(self, d):
        # The first-order lambda of the BT search once overflowed math.exp here.
        for k in range(10, 321, 5):
            for family in ("BT", "BCT", "CT"):
                try:
                    b = compute_bounds(family, d, 10.0**-k)
                except RicBoundsError:
                    continue
                assert math.isfinite(b.U) and math.isfinite(b.L)

    @pytest.mark.parametrize("d, r", [(2.0**-52, 1e-311), (1e-6, 1e-323)])
    def test_underflowing_rho_delta_raises(self, d, r):
        # rho * delta rounds to 0.0 here, so H(rho delta) reads 0 and BT once
        # returned U = 3.1e-311 with a stationarity residual of 714.
        for family in ("BT", "BCT", "CT"):
            with pytest.raises(DomainError, match="smallest normal double"):
                compute_bounds(family, d, r)

    @given(
        st.floats(min_value=1e-3, max_value=0.999),
        st.floats(min_value=-300.0, max_value=math.log10(0.999)),
    )
    @settings(max_examples=100, deadline=None)
    def test_interior_optima_are_stationary_and_optimal(self, d, log10_r):
        r = 10.0**log10_r
        b = bt_bounds(d, r)
        sides = (("upper", b.gamma_min, b.boundary_upper, solve_lambda_max, 1.0, 1.0 / d),
                 ("lower", b.gamma_max, b.boundary_lower, solve_lambda_min, -1.0, 1.0))
        for side, g, at_edge, solve, sign, top in sides:
            if at_edge:
                continue
            assert abs(stationarity_residual(b, side)) <= 1e-12
            # sign * ln lambda is smallest at the optimum: lambda^max is
            # minimized, lambda^min maximized.
            best = sign * solve(d, r, g)
            for t in (1.0 - 1e-6, 1.0 + 1e-6):
                if r <= g * t < top:
                    assert best <= sign * solve(d, r, g * t)

    @pytest.mark.parametrize("d, r", [(0.5, 0.5), (0.05, 0.95), (0.001, 0.001), (0.5, 0.999)])
    def test_bt_takes_few_evaluations(self, d, r, net_calls):
        # 8 to 18 here: at most seven gap evaluations per search, plus two per lambda solve.
        bt_bounds(d, r)
        assert net_calls[0] <= 20

    def test_small_rho_gamma_search_takes_few_evaluations(self, net_calls):
        # Edge test, start, four Newton steps and the lambda solve's two.
        g = optimize_gamma_for_max(0.5, 0.003)
        assert net_calls[0] <= 10
        assert abs(_net_max_raw(math.exp(g.value), 0.5, 0.003, g.gamma)) <= 1e-12

    def test_step_cap_raises(self, monkeypatch):
        # The search needs four Newton steps here.
        monkeypatch.setattr(asymptotic, "_ROOT_STEPS", 2)
        with pytest.raises(SolverError, match="gamma search left"):
            optimize_gamma_for_max(0.5, 0.003)

    @pytest.mark.parametrize("d", [0.001, 0.5, 0.999])
    def test_lower_search_stops_where_gamma_rounds_onto_rho(self, d, net_calls):
        # The root sits at u = -8e4 to -8e7, where gamma rounds onto rho and
        # one ulp of u exceeds 1e-12, so a stop on an absolute width alone
        # never ends; the start is exact there.
        g = optimize_gamma_for_min(d, 1.0 - 1e-7)
        assert net_calls[0] <= 6
        assert g.gamma == 1.0 - 1e-7 and math.ulp(g.log_offset) > 1e-12

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
            assert b.U <= math.exp(solve_lambda_max(d, r, r)) - 1.0 + 1e-10
            assert r <= b.nu_opt <= 1.0

    @pytest.mark.parametrize("d, r", [(0.3, 0.2), (0.97, 0.46), (0.9, 0.7)])
    def test_bct_nu_against_dense_scan(self, d, r):
        b = bct_bounds(d, r)
        assert b.nu_opt in (r, 1.0 - 1e-12)
        scan = min(
            math.exp(solve_lambda_max(d, nu, nu))
            for nu in [r + (1 - 1e-9 - r) * i / 2000.0 for i in range(2001)]
        )
        assert b.lambda_max <= scan + 1e-8

    @pytest.mark.parametrize("r", [1e-9, 1e-12])
    def test_bct_upper_at_tiny_rho_against_high_precision(self, r):
        # 1 + rho rounds here; the foot's closed form keeps the rho-sized
        # terms.  At gamma = nu = rho the entropy-ratio term vanishes.
        b = bct_bounds(0.5, r)
        assert b.nu_opt == r
        with mpmath.workdps(80):
            d, g = mpmath.mpf(0.5), mpmath.mpf(r)
            H = lambda p: -p * mpmath.log(p) - (1 - p) * mpmath.log1p(-p)
            net = lambda u: d * ((1 + g) * mpmath.log1p(u) - g * mpmath.log(g) + g - u) / 2 + H(g * d)
            ref = mpmath.findroot(net, (g, 1), solver="anderson")
        assert b.U == pytest.approx(float(ref), rel=1e-10)

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

    @pytest.mark.parametrize("bounds", [bt_bounds, bct_bounds])
    def test_rho_next_to_one_solves(self, bounds):
        # lambda^min's offset reaches -1 - 2**53 at gamma = rho here.
        b = bounds(0.2185, 0.9999999999999996)
        assert b.L == 1.0
        assert math.isfinite(b.U) and math.isfinite(b.log_lambda_min)

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

    @pytest.mark.parametrize("d", [0.05, 0.5, 0.95])
    def test_phase_takes_two_evaluations_per_lambda_solve(self, d, net_calls):
        # 126 to 142 (BT) and 48 to 54 (BCT), with two evaluations per lambda
        # solve; the looser ceilings above are part of those tests' ids.
        for family, ceiling in (("BT", 150), ("BCT", 56)):
            net_calls[0] = 0
            l1_phase_transition(d, family)
            assert net_calls[0] <= ceiling

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [0.05, 0.5, 0.95])
    def test_phase_point_takes_few_bound_calls(self, d, family, monkeypatch):
        # At most six margins for the search, from rho = 1e-7 on, and three
        # spot checks; the search ends on a bracket no wider than 1e-8.
        seen = []

        def counted(fam, delta, rho):
            b = compute_bounds(fam, delta, rho)
            seen.append((rho, L1_THRESHOLD - max(b.L, b.U)))
            return b

        monkeypatch.setattr(asymptotic, "compute_bounds", counted)
        rho_star = l1_phase_transition(d, family)
        assert len(seen) <= 9
        assert dict(seen)[rho_star] > 0.0
        assert any(rho_star < x <= rho_star + 1e-8 and m <= 0.0 for x, m in seen)


class TestPhaseSearch:
    """The phase search on synthetic margins m(rho) = shape(r - rho)."""

    SHAPES = {
        "linear": lambda y: y,
        "cubic": lambda y: y**3,
        "cbrt": lambda y: math.copysign(abs(y) ** (1 / 3), y),
        "tanh": math.tanh,
        # Flat, then a cliff.
        "cliff": lambda y: min(0.017, 1e4 * y),
        "zero_run": lambda y: max(y, 0.0),
        "step": lambda y: 0.1 if y > 0.0 else -0.1,
        # Slopes 1 and 50 on the two sides of the root, both ways round.
        "kink": lambda y: y if y > 0.0 else 50.0 * y,
        "kink_inv": lambda y: 50.0 * y if y > 0.0 else y,
    }

    @staticmethod
    def search(margin):
        """rho* from l1_phase_transition on margin(rho), and every (rho,
        margin) pair it evaluated, spot checks included."""
        seen = []

        def fake(family, delta, rho):
            m = margin(rho)
            seen.append((rho, m))
            return types.SimpleNamespace(L=-m, U=-m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(asymptotic, "L1_THRESHOLD", 0.0)
            mp.setattr(asymptotic, "compute_bounds", fake)
            return l1_phase_transition(0.5), seen

    @given(st.floats(min_value=math.log(2e-7), max_value=math.log(0.9)), st.sampled_from(sorted(SHAPES)))
    @settings(max_examples=300, deadline=None)
    def test_contract_on_monotone_margins(self, log_r, shape):
        # Over 10^4 seeded roots per shape the most was 56 (cubic).
        g, r = self.SHAPES[shape], math.exp(log_r)
        rho_star, seen = self.search(lambda rho: g(r - rho))
        assert dict(seen)[rho_star] > 0.0
        assert any(rho_star < x <= rho_star + 1e-8 and m <= 0.0 for x, m in seen)
        assert len(seen) <= 70

    def test_infeasible_start_returns_zero(self):
        assert self.search(lambda rho: -1.0) == (0.0, [(1e-7, -1.0)])

    def test_positive_margin_at_the_cap_raises(self):
        with pytest.raises(SolverError, match=r"margin still positive at rho=0\.999999999999"):
            self.search(lambda rho: 1.0)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(asymptotic, "_ROOT_STEPS", 2)
        with pytest.raises(SolverError, match="phase search left"):
            self.search(lambda rho: 0.3 - rho)

    def test_non_monotone_margin_raises(self):
        # Infeasible in a dip below rho*, which the search itself never probes.
        with pytest.raises(SolverError, match="not monotone"):
            self.search(lambda rho: -1.0 if 0.1 < rho < 0.2 else 0.5 - rho)
