import math
import random
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricbounds import asymptotic
from ricbounds.asymptotic import (
    FAMILIES,
    L1_THRESHOLD,
    RESIDUAL_TOL,
    _ETA,
    GammaOptimum,
    _below_threshold,
    _crossing,
    _lambert_y,
    _newton,
    _phase_search,
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
from ricbounds.rates import _net_foot, _net_max_raw, _net_min_log_lambda, psi_max, psi_min, shannon_entropy

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


@pytest.fixture
def threshold_calls(monkeypatch):
    """Counts the phase curve's threshold tests."""
    calls = {"tests": 0}

    def counted(*args):
        calls["tests"] += 1
        return _below_threshold(*args)

    monkeypatch.setattr(asymptotic, "_below_threshold", counted)
    return calls


@pytest.fixture
def newton_steps(monkeypatch):
    """Counts the steps of every _newton loop run through asymptotic."""
    steps = [0]

    def spied(g, *args):
        def counted(x):
            steps[0] += 1
            return g(x)

        return _newton(counted, *args)

    monkeypatch.setattr(asymptotic, "_newton", spied)
    return steps


def bounds_below(family, delta, rho):
    """max(L, U) < sqrt(2) - 1 from compute_bounds(family, delta, rho)."""
    b = compute_bounds(family, delta, rho)
    return max(b.L, b.U) < L1_THRESHOLD


def last_holding(holds, lo, hi):
    """The last rho where holds(rho), bisected to one ulp from lo, where it holds,
    and hi, where it fails."""
    assert holds(lo) and not holds(hi)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def phase_predicate(delta, family):
    """rho* from l1_phase_transition(delta, family), the predicate it hands the phase
    search, and every (rho, predicate(rho)) pair the search asked."""
    handed, seen = [], []

    def spied(below, *args):
        def counted(rho):
            holds = below(rho)
            seen.append((rho, holds))
            return holds

        handed.append(below)
        return _phase_search(counted, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotic, "_phase_search", spied)
        rho_star = l1_phase_transition(delta, family)
    return rho_star, handed[0], seen


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
        monkeypatch.setattr(asymptotic, "_net_foot", lambda s, d, r, g, h: -1.0)
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
        # 11 to 16 here: at most seven gap evaluations per search, plus two per lambda solve.
        bt_bounds(d, r)
        assert net_calls[0] <= 20

    def test_small_rho_gamma_search_takes_few_evaluations(self, net_calls):
        # Start, four Newton steps and the lambda solve's two; the optimum is
        # interior, so the edge is never evaluated.
        g = optimize_gamma_for_max(0.5, 0.003)
        assert net_calls[0] <= 9
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
        assert net_calls[0] <= 5
        assert g.gamma == 1.0 - 1e-7 and math.ulp(g.log_offset) > 1e-12

    @pytest.mark.parametrize("d, r, optimum", [
        (0.5, 0.999, GammaOptimum(2.0, 2.049119428425847, True, 0.0009995003330834232)),
        (0.7017, 0.95, GammaOptimum(1.4251104460595696, 1.8618066735581524, True, -0.7442079839554745)),
    ])
    def test_edge_optima_are_pinned(self, d, r, optimum, net_calls):
        # The edge 1/delta is evaluated only once a Newton step reaches it,
        # with the same GammaOptimum as when it was evaluated first; that
        # costs (0.5, 0.999) seven evaluations instead of three.
        assert optimize_gamma_for_max(d, r) == optimum
        assert net_calls[0] <= 7

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

    @staticmethod
    def small_rho_reference(d, r):
        """(U, L) at gamma = rho as rho -> 0: with s = sqrt(2 rho (ln(1/(delta^2 rho^3)) + 3)),
        the net exponents' expansions in lambda - 1 give U = s + s^2/3 + rho and
        L = s - s^2/3 + rho, each to third order in s."""
        s = math.sqrt(2.0 * r * (-2.0 * math.log(d) - 3.0 * math.log(r) + 3.0))
        return s + s * s / 3.0 + r, s - s * s / 3.0 + r

    @pytest.mark.parametrize("r", [1e-16, 1e-20, 1e-24, 1e-32])
    def test_small_rho_closed_form(self, r):
        # BCT sits on the reference to 5.6 ulps at most; BT, whose gamma can
        # only lower the levels, lies at or below it, within 8.8e-11 relative
        # at rho = 1e-16 and closer as rho falls.
        few = 8.0 * 2.0**-52
        for d in (1e-15, 1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.999):
            ref = self.small_rho_reference(d, r)
            bct, bt = bct_bounds(d, r), bt_bounds(d, r)
            assert (bct.U, bct.L) == pytest.approx(ref, rel=few, abs=0.0)
            for got, want in zip((bt.U, bt.L), ref):
                assert want * (1.0 - 1e-10) <= got <= want * (1.0 + few)

    @given(st.floats(math.log(1e-9), math.log(0.999)), st.floats(math.log(1e-30), math.log(0.999)))
    @settings(max_examples=100, deadline=None)
    def test_bt_at_or_below_bct(self, log_d, log_r):
        # BT optimises the gamma that BCT fixes at rho.  Below rho ~ 1e-20 both
        # land on the same levels, and BT's may round up to 2 ulps above BCT's.
        d, r = math.exp(log_d), math.exp(log_r)
        bt, bct = bt_bounds(d, r), bct_bounds(d, r)
        for got, cap in ((bt.U, bct.U), (bt.L, bct.L)):
            assert got <= cap + 2.0 * math.ulp(cap)

    @pytest.mark.parametrize("r", [1e-300, 1e-150, 1e-40, 1e-20, 1e-16, 1e-8, 1e-4, 1e-2, 0.03])
    def test_ct_small_rho_closed_form(self, r):
        # With s = sqrt(rho) + sqrt(2 H(delta rho) / delta), CT's levels are
        # (1 -+ s)^2, so U = s (2 + s) and, while s < 1, L = s (2 - s): both
        # within 1.7 ulps of these products at 10^5 random points, rho down to
        # 1e-300.  Once s reaches 1, L is clamped to 1.
        few = 4.0 * 2.0**-52
        for d in (1e-6, 1e-3, 0.05, 0.5, 0.999):
            s = math.sqrt(r) + math.sqrt(2.0 / d * shannon_entropy(d * r))
            b = ct_bounds(d, r)
            assert b.U == pytest.approx(s * (2.0 + s), rel=few, abs=0.0)
            assert b.L == (pytest.approx(s * (2.0 - s), rel=few, abs=0.0) if s < 1.0 else 1.0)

    @given(st.floats(math.log(1e-9), math.log(0.999)), st.floats(math.log(1e-290), math.log(0.999)))
    @settings(max_examples=200, deadline=None)
    def test_ct_lower_at_or_below_upper(self, log_d, log_r):
        # L = s (2 - s) < U = s (2 + s) for every s > 0, and the clamp L = 1
        # applies only where s >= 1, so U >= 3 > L there.
        b = ct_bounds(math.exp(log_d), math.exp(log_r))
        assert 0.0 < b.L <= b.U

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

    # The BT-700 and BCT-450 ids name ceilings of an earlier count, which also
    # counted two full net exponents per threshold test.
    @pytest.mark.parametrize("family", [pytest.param("BT", id="BT-700"), pytest.param("BCT", id="BCT-450")])
    @pytest.mark.parametrize("d", [0.05, 0.5, 0.95])
    def test_phase_takes_few_evaluations(self, d, family, net_calls, threshold_calls, newton_steps):
        # The predicted crossing's Newton steps, 4 at these deltas, then five
        # threshold tests, each one net evaluation: U's at sqrt(2).
        l1_phase_transition(d, family)
        assert net_calls[0] == newton_steps[0] + 5 and newton_steps[0] <= 4
        assert threshold_calls == {"tests": 5}

    @pytest.mark.parametrize("d", [1e-9, 1e-6, 0.05, 0.5, 0.95])
    def test_phase_takes_two_evaluations_per_lambda_solve(self, d, net_calls, threshold_calls, newton_steps):
        # 2 to 6 Newton steps of the predicted crossing for BT and for BCT over
        # 2200 deltas from 1e-9 to 1 - 1e-12, one net evaluation each; then two
        # probes and three spot checks of the threshold test, one net evaluation
        # each and no lambda solve.
        for family in ("BT", "BCT"):
            net_calls[0] = newton_steps[0] = threshold_calls["tests"] = 0
            l1_phase_transition(d, family)
            assert net_calls[0] == newton_steps[0] + 5 and newton_steps[0] <= 6
            assert threshold_calls["tests"] == 5

    # rho* at criterion 9's deltas, 0.05 + (0.9524 - 0.05) i / 49, as the certified
    # crossing gives it: each lies 1.99994e-10 to 2.00004e-10 relative below the last
    # rho where max(L, U) < sqrt(2) - 1, bisected to one ulp.
    PINNED = {
        "BT": [
            0.0024824896625300365, 0.002548651966220579, 0.002601518792902443, 0.0026459182872635776,
            0.00268440912213118, 0.0027185207917154192, 0.0027492448677164287, 0.0027772630349424164,
            0.0028030652694134004, 0.002827016287133826, 0.0028493953385623446, 0.0028704212708459383,
            0.002890268975300618, 0.002909080558449044, 0.002926973153357154, 0.0029440445198910224,
            0.002960377147813987, 0.0029760413206878313, 0.002991097442563987, 0.0030055978314956384,
            0.003019588120728932, 0.0030331083667133668, 0.003046193934933491, 0.003058876215216602,
            0.003071183204638343, 0.003083139986528969, 0.0030947691271493534, 0.003106091006538219,
            0.003117124096285495, 0.0031278851941835425, 0.0031383896235891353, 0.0031486514037122174,
            0.0031586833958019704, 0.0031684974292331557, 0.0031781044107379356, 0.003187514419431312,
            0.003196736789803037, 0.0032057801844696593, 0.0032146526581746915, 0.0032233617142777126,
            0.0032319143547715713, 0.0032403171247031536, 0.0032485761517363704, 0.0032566971814852012,
            0.0032646856091511248, 0.003272546507922066, 0.0032802846545247795, 0.003287904552268521,
            0.003295410451871679, 0.0033028063703237067,
        ],
        "BCT": [
            0.0024736602381178344, 0.0025391886372216404, 0.0025915285185870345, 0.0026354712028323715,
            0.002673555331940288, 0.0027072981696974704, 0.0027376832151798404, 0.0027653865161090144,
            0.002790893940266634, 0.0028145671073875342, 0.0028366828702564126, 0.002857458177377247,
            0.002877066388149854, 0.00289564835320269, 0.002913320161751297, 0.0029301786956135636,
            0.0029463056981690093, 0.0029617708125852806, 0.00297663388887983, 0.002990946762203647,
            0.0030047546420621453, 0.003018097210804823, 0.0030310095018027798, 0.0030435226085428046,
            0.0030556642624433635, 0.0030674593076581323, 0.00307893009425469, 0.003090096806131956,
            0.0031009777363226604, 0.0031115895195482413, 0.0031219473297926462, 0.003132065049057443,
            0.003141955412226292, 0.003151630132006907, 0.003161100007168126, 0.003170375016696607,
            0.003179464402027672, 0.0031883767391276915, 0.003197120001903312, 0.003205701618167254,
            0.0032141285191908515, 0.0032224071837107008, 0.003230543677121795, 0.003238543686479338,
            0.003246412551838676, 0.003254155294386434, 0.0032617766417512963, 0.003269281050829426,
            0.003276672728412818, 0.0032839556498716702,
        ],
    }

    @pytest.mark.parametrize("family", ["BT", "BCT"])
    def test_curve_is_pinned(self, family):
        deltas = [0.05 + (0.9524 - 0.05) * i / 49 for i in range(50)]
        assert [l1_phase_transition(d, family) for d in deltas] == self.PINNED[family]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [0.05, 0.5, 0.95])
    def test_phase_point_takes_few_bound_calls(self, d, family):
        # Each family probes its predicted crossing at 1 -+ 2e-10 relative,
        # which certifies it, and spot-checks three fractions of rho*: five
        # calls of its predicate.  rho*, the lower probe, holds; the upper one,
        # (1 + 2e-10) / (1 - 2e-10) - 1 = 4e-10 relative above it, fails.
        rho_star, _, seen = phase_predicate(d, family)
        assert len(seen) == 5
        assert dict(seen)[rho_star]
        assert any(rho_star < x <= rho_star * (1.0 + 4.001e-10) and not holds for x, holds in seen)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1e-6, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-9])
    def test_matches_a_plain_bisection(self, d, family):
        # Bisection on compute_bounds, from a feasible 1e-7 and an infeasible
        # 0.1 down to one ulp, so ref is the crossing, and the search's rho*
        # lies within 4e-10 relative of it.
        ref = last_holding(lambda rho: bounds_below(family, d, rho), 1e-7, 0.1)
        assert abs(l1_phase_transition(d, family) - ref) <= 4e-10 * ref

    @pytest.mark.parametrize("family", FAMILIES)
    def test_within_eta_below_an_ulp_bisection(self, family):
        # rho* is the predicted crossing less 2e-10 relative, and the prediction
        # lies within 6e-15 relative of the crossing.  So rho* lies at or below
        # the last rho where max(L, U) < sqrt(2) - 1, bisected to one ulp inside
        # [rho*, rho* (1 + 4e-10)], and within 2.0001e-10 relative of it
        # (at most 2.00005e-10 over 22,011 deltas from 2.5e-16 to 1 - 1e-12).
        deltas = [0.05 + (0.9524 - 0.05) * i / 49 for i in range(50)] + [1e-9, 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
        for d in deltas:
            rho_star = l1_phase_transition(d, family)
            ref = last_holding(lambda rho: bounds_below(family, d, rho), rho_star, rho_star * (1.0 + 4e-10))
            assert ref * (1.0 - 2.0001e-10) <= rho_star <= ref

    def test_a_prediction_that_fails_its_certificate_raises(self, monkeypatch):
        # A guess 1% off the crossing is neither rounded onto it nor searched
        # from: the curve raises SolverError (exit 3) naming delta and the guess.
        for factor in (0.99, 1.01):
            rho, gamma = _crossing(0.5, "BCT")
            monkeypatch.setattr(asymptotic, "_crossing", lambda d, f: (factor * rho, gamma))
            with pytest.raises(SolverError, match=rf"rho={factor * rho!r} fails its 2e-10 certificate \(delta=0\.5\)") as err:
                l1_phase_transition(0.5, "BCT")
            assert err.value.exit_code == 3

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-9, 1.0 - 1e-12])
    def test_predicted_crossing_puts_u_at_the_threshold(self, d, family):
        # The prediction is where U, solved as the margin solves it, equals
        # sqrt(2) - 1.  BT's also predicts the gamma that its search finds there.
        rho, gamma = _crossing(d, family)
        if family == "BT":
            optimum = optimize_gamma_for_max(d, rho)
            u = math.expm1(optimum.value)
            assert gamma == pytest.approx(optimum.gamma, rel=1e-9)
        else:
            u = compute_bounds(family, d, rho).U
            assert gamma is None
        assert u == pytest.approx(L1_THRESHOLD, abs=1e-11)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-9, 1.0 - 1e-12])
    def test_crossing_takes_few_evaluations(self, d, family, net_calls, newton_steps):
        # Newton from gamma = 3e-3 took 4 to 6 steps at these deltas.  Each is
        # one net evaluation for BT and BCT; CT's closed form needs none.
        _crossing(d, family)
        assert newton_steps[0] <= 6
        assert net_calls[0] == (0 if family == "CT" else newton_steps[0])

    def test_unknown_family_raises_before_any_evaluation(self, net_calls):
        with pytest.raises(DomainError, match="unknown bound family 'XX'"):
            l1_phase_transition(0.5, "XX")
        assert net_calls[0] == 0

    @pytest.mark.parametrize("d", [1e-20, 1e-300])
    def test_bt_refuses_delta_below_one_ulp(self, d, net_calls):
        # As its bounds do, before any evaluation; BCT and CT have no gamma =
        # 1/delta edge and still return a value.
        with pytest.raises(DomainError, match=r"2\*\*-52"):
            l1_phase_transition(d, "BT")
        assert net_calls[0] == 0
        for family in ("BCT", "CT"):
            assert 0.0 < l1_phase_transition(d, family) < 1e-3


@pytest.fixture
def gamma_searches(monkeypatch):
    """Counts the upper and lower BT gamma searches made through asymptotic."""
    calls = {"upper": 0, "lower": 0}
    search = asymptotic._gamma_search

    def counted(sign, *args):
        calls["upper" if sign > 0.0 else "lower"] += 1
        return search(sign, *args)

    monkeypatch.setattr(asymptotic, "_gamma_search", counted)
    return calls


class TestBelowThreshold:
    """The BT and BCT phase curves' one feasibility test, _below_threshold, against
    max(L, U) < sqrt(2) - 1 from compute_bounds."""

    @given(
        st.sampled_from(["BT", "BCT"]),
        st.one_of(
            st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
            st.floats(min_value=-9.0, max_value=-1.0).map(lambda x: 10.0**x),
        ),
        st.one_of(
            st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
            st.floats(min_value=-12.0, max_value=-1.0).map(lambda x: 10.0**x),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_decides_as_compute_bounds(self, family, d, r):
        # The curve's predicate is the whole decision, not a sufficient test,
        # away from the 4e-10 rho* band where the search certifies the crossing.
        rho_star, below, _ = phase_predicate(d, family)
        if abs(r - rho_star) > 4e-10 * rho_star:
            assert below(r) == bounds_below(family, d, r)

    @given(
        st.one_of(
            st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
            st.floats(min_value=-9.0, max_value=-1.0).map(lambda x: 10.0**x),
        ),
        st.one_of(
            st.floats(min_value=1e-12, max_value=L1_THRESHOLD, exclude_max=True),
            st.floats(min_value=-12.0, max_value=-1.0).map(lambda x: 10.0**x),
        ),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    )
    @settings(max_examples=500, deadline=None)
    def test_decides_as_the_larger_full_net_exponent(self, d, r, t):
        # gamma in [rho, sqrt(2) - 1), gamma = rho at t = 0.  The test is U's net
        # exponent at sqrt(2) against the slack, even within an ulp of it; L's at
        # 2 - sqrt(2) lies at least 0.0221 delta below, so U's is the larger.
        g = r + t * (L1_THRESHOLD - r)
        if g >= L1_THRESHOLD:
            return
        upper = _net_max_raw(1.0 + L1_THRESHOLD, d, r, g)
        assert _below_threshold(d, r, g) == (upper < -2.0 * RESIDUAL_TOL * d)
        assert _net_min_log_lambda(math.log1p(-L1_THRESHOLD), d, r, g) <= upper - 0.0221 * d

    def test_lower_psi_lies_0_0221_below_the_upper(self):
        # gap(g) = psi_max(sqrt(2), g) - psi_min(2 - sqrt(2), g) has slope
        # (1/2) ln(2 sqrt(2) - 2) - ln(1 - g), rising through 0 at
        # g* = 1 - sqrt(2 sqrt(2) - 2), so on (0, 1) it is convex with minimum
        # (1/2) ln 2 + 2 - sqrt(2) - sqrt(2 sqrt(2) - 2) = 0.0221803 at g*.
        s2 = mpmath.sqrt(2)
        H = lambda g: -g * mpmath.log(g) - (1 - g) * mpmath.log(1 - g)
        gap = lambda g: (((1 + g) * mpmath.log(s2) - g * mpmath.log(g) + 1 + g - s2) / 2 - H(g)
                         - ((1 - g) * mpmath.log(2 - s2) + g * mpmath.log(g) - 1 - g + s2) / 2)
        g_star = mpmath.findroot(lambda g: mpmath.diff(gap, g), mpmath.mpf("0.1"))
        gap_min = mpmath.log(2) / 2 + 2 - s2 - mpmath.sqrt(2 * s2 - 2)
        assert abs(g_star - (1 - mpmath.sqrt(2 * s2 - 2))) < mpmath.mpf(10) ** -30
        assert abs(gap(g_star) - gap_min) < mpmath.mpf(10) ** -38
        assert float(g_star) == pytest.approx(0.0898202788755453)
        assert float(gap_min) == pytest.approx(0.0221803067824229)
        grid = ([i / 100_000 for i in range(1, 100_000)] + [10.0**-x for x in range(5, 320, 5)]
                + [1.0 - 10.0**-x for x in range(5, 16)])
        gaps = [psi_max(1.0 + L1_THRESHOLD, g) - psi_min(1.0 - L1_THRESHOLD, g) for g in grid]
        assert min(gaps) >= float(gap_min) - 1e-15

    @pytest.mark.parametrize("family", ["BT", "BCT"])
    @pytest.mark.parametrize("d", [1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-9])
    def test_last_rho_where_it_holds_is_feasible(self, d, family):
        # The slack, 2e-12 delta, stops the test short of the crossing and
        # never past it: bisected to one ulp, the last rho where it holds
        # still has max(L, U) below sqrt(2) - 1.
        rho_star, below, _ = phase_predicate(d, family)
        assert bounds_below(family, d, last_holding(below, rho_star, rho_star * (1.0 + 4e-10)))

    @pytest.mark.parametrize("family", ["BT", "BCT"])
    @pytest.mark.parametrize("d", [1e-9, 1e-6, 0.05, 0.5, 0.95])
    def test_curve_makes_no_lambda_solve_or_gamma_search(self, d, family, gamma_searches, monkeypatch):
        solves = [0]
        solve = asymptotic._solve_lambda

        def counted(*args):
            solves[0] += 1
            return solve(*args)

        monkeypatch.setattr(asymptotic, "_solve_lambda", counted)
        l1_phase_transition(d, family)
        assert solves[0] == 0
        assert gamma_searches == {"upper": 0, "lower": 0}

    @given(
        st.floats(min_value=1e-3, max_value=0.999),
        st.one_of(st.floats(min_value=1e-5, max_value=300.0), st.floats(min_value=1.0, max_value=1.0 + 1e-5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_holding_at_gamma_rho_means_feasible(self, d, f):
        # U and L at gamma = rho bound BT's from above and are BCT's, so
        # where the test holds there, max(L, U) < sqrt(2) - 1.  At rho* (1 +
        # 4e-10), past the search's failing probe, max(L, U) is not below, so
        # the test must fail there.
        for family in ("BT", "BCT"):
            rho_star = l1_phase_transition(d, family)
            above = rho_star * (1.0 + 4e-10)
            assert not bounds_below(family, d, above) and not _below_threshold(d, above, above)
            r = min(f * rho_star, 0.999)
            if _below_threshold(d, r, r):
                assert bounds_below(family, d, r)

    @given(
        st.floats(min_value=1e-3, max_value=0.999),
        st.one_of(st.floats(min_value=1e-5, max_value=300.0), st.floats(min_value=1.0, max_value=1.0 + 1e-5)),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_holding_at_any_gamma_means_feasible(self, d, f, t):
        # For BT the test is sound at any gamma in [rho, sqrt(2) - 1): U and L
        # there bound BT's optimized U and L from above.  Tried at the
        # crossing's gamma, which the curve uses, and at a drawn one; at rho*
        # (1 + 4e-10), where max(L, U) is not below sqrt(2) - 1, it must fail
        # at both.
        rho_star = l1_phase_transition(d, "BT")
        gamma_crossing = _crossing(d, "BT")[1]
        above = rho_star * (1.0 + 4e-10)
        for r in (above, min(f * rho_star, 0.999)):
            for g in (gamma_crossing, r + t * (L1_THRESHOLD - r)):
                if _below_threshold(d, r, g):
                    assert r < above and bounds_below("BT", d, r)


class TestPhaseSearch:
    """The phase search on synthetic monotone predicates: rho < r, or rho <= r."""

    @staticmethod
    def search(below, guess):
        """rho* from the phase search on below(rho) from the guess, or the SolverError
        it raised, and every (rho, below(rho)) pair it asked, spot checks included."""
        seen = []

        def counted(rho):
            holds = below(rho)
            seen.append((rho, holds))
            return holds

        try:
            return _phase_search(counted, 0.5, guess), seen
        except SolverError as err:
            return err, seen

    @staticmethod
    def predicate(r, closed):
        # A boolean predicate can vary only in its root and in whether the
        # root itself holds; any margin m(rho) > 0 with m's sign reduces to one
        # of these two.
        return (lambda rho: rho <= r) if closed else (lambda rho: rho < r)

    @given(
        st.floats(min_value=math.log(1e-300), max_value=math.log(0.9)),
        st.booleans(),
        st.one_of(
            st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0]),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_contract_with_a_wrong_guess(self, log_r, closed, k):
        # The root lies at guess (1 + k eta): between the probes at guess (1 -+
        # eta) for |k| < 1, on them for k = -+1, outside them beyond.  A guess
        # between them is certified: 2 probes and 3 spot checks.  Any other
        # raises, after the lower probe when it fails, else after both.  Within
        # 1e-5 eta of a probe, the probe's rounding may decide either way.
        r = math.exp(log_r)
        guess = r / (1.0 + k * _ETA)
        lower, upper = guess * (1.0 - _ETA), guess * (1.0 + _ETA)
        got, seen = self.search(self.predicate(r, closed), guess)
        if isinstance(got, SolverError):
            assert f"rho={guess!r}" in str(got) and "delta=0.5" in str(got)
            assert seen == ([(lower, False)] if k < 0.0 else [(lower, True), (upper, True)])
            assert abs(k) >= 1.0 - 1e-5
        else:
            assert got == lower and seen[:2] == [(lower, True), (upper, False)] and len(seen) == 5
            assert abs(k) <= 1.0 + 1e-5

    def test_a_close_guess_brackets_at_once(self):
        # The probes on each side of the guess close the bracket; three spot
        # checks follow.
        rho_star, seen = self.search(lambda rho: rho < 0.3, guess=0.3)
        assert [x for x, _ in seen[:2]] == [0.3 * (1.0 - _ETA), 0.3 * (1.0 + _ETA)]
        assert len(seen) == 5
        assert rho_star == 0.3 * (1.0 - _ETA)

    def test_a_guess_that_misses_raises(self):
        # 10% low, both probes hold; 10% high, or nowhere feasible, the lower
        # probe fails; feasible everywhere, both hold.  None returns a value.
        for below, guess, calls in ((lambda rho: rho < 0.3, 0.27, 2), (lambda rho: rho < 0.3, 0.33, 1),
                                    (lambda rho: False, 0.3, 1), (lambda rho: True, 0.3, 2)):
            got, seen = self.search(below, guess)
            assert isinstance(got, SolverError) and got.exit_code == 3
            assert re.search(rf"predicted crossing rho={guess!r} fails its 2e-10 certificate \(delta=0\.5\)", str(got))
            assert len(seen) == calls

    def test_non_monotone_margin_raises(self):
        # Infeasible in a dip below rho*, which the probes never reach.
        got, _ = self.search(lambda rho: not 0.1 < rho < 0.2 and rho < 0.5, guess=0.5)
        assert isinstance(got, SolverError) and "not monotone" in str(got)

    def test_spot_checks_ask_fractions_of_rho_star(self):
        rho_star, seen = self.search(lambda rho: rho < 0.3, guess=0.3)
        assert [x for x, _ in seen[-3:]] == [0.25 * rho_star, 0.5 * rho_star, 0.9 * rho_star]
