"""Asymptotic RIC bounds in the proportional-growth regime.

Solves the implicit root equations for the extreme-eigenvalue levels
lambda^max and lambda^min, optimizes the group-size ratio gamma, and
assembles the three bound families:

  BT   gamma-optimized upper and lower bounds,
  BCT  gamma = rho, with the upper bound tightened by a sparsity-relaxation
       minimum over nu in [rho, 1],
  CT   closed forms built from concentration of the extreme singular values.

Also computes the l1-recovery phase-transition curve implied by the
max(L, U) < sqrt(2) - 1 sufficient condition.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, SolverError
from .rates import (_entropy_ratio_term, _net_foot, _net_max_raw, _net_min_log_lambda, _psi_max, _psi_min,
                    _validate_point, shannon_entropy)

__all__ = [
    "AsymptoticBound",
    "GammaOptimum",
    "solve_lambda_max",
    "solve_lambda_min",
    "optimize_gamma_for_max",
    "optimize_gamma_for_min",
    "stationarity_residual",
    "bt_bounds",
    "bct_bounds",
    "ct_bounds",
    "compute_bounds",
    "l1_phase_transition",
    "FAMILIES",
]

FAMILIES = ("BT", "BCT", "CT")

L1_THRESHOLD = math.sqrt(2.0) - 1.0
_LOG_LAM_LO = math.log1p(-L1_THRESHOLD)  # ln lambda = ln(2 - sqrt(2)) where L meets the threshold

# Root residual target for the implicit lambda equations.
RESIDUAL_TOL = 1e-12
# Step in u = ln(gamma - rho), at most as much relative in gamma, that ends a BT search.
GAMMA_TOL = 1e-12
_LOWER_CAP = 1.0 - 1e-9  # top of the lower BT gamma search's interval [rho, _LOWER_CAP]
# BCT's right nu end stays a hair inside rho < 1, where the lambda solves are
# defined; the bound there is continuous in nu.
_NU_TOP = 1.0 - 1e-12

# Step cap of the root loops: _newton and the phase search.
_ROOT_STEPS = 200


class AsymptoticBound(namedtuple("AsymptoticBound", (
        "family", "delta", "rho", "L", "U", "lambda_min", "lambda_max", "log_lambda_min", "gamma_min",
        "gamma_max", "nu_opt", "boundary_upper", "boundary_lower", "log_gamma_offset_min",
        "log_gamma_offset_max"), defaults=(None, None, None, False, False, None, None))):
    """One bound family evaluated at a single (delta, rho) point.

    Naming convention: gamma_min is the gamma that minimizes lambda^max
    (it tightens the upper bound U) and gamma_max is the gamma that
    maximizes lambda^min (it tightens the lower bound L).

    lambda_min can underflow to 0.0 in double precision for extreme
    (delta, rho); log_lambda_min stays finite and is the value to use when
    comparing lower bounds between families.  gamma_* are None for CT
    (no grouping parameter) and nu_opt is only set for BCT.
    boundary_upper / boundary_lower flag gamma optima pinned at the
    feasible-interval edge, where the stationarity condition does not apply.
    log_gamma_offset_min / log_gamma_offset_max carry ln(gamma - rho) for
    gamma_min / gamma_max as the BT search found it (at an edge optimum,
    ln(edge - rho)); gamma - rho itself can round to 0.0 in double when the
    optimum sits within one ulp of rho.  They are None for BCT and CT.
    RECORD names the fields of the bound's output record, in order."""

    __slots__ = ()
    RECORD = ("delta", "rho", "family", "L", "U", "lambda_min", "lambda_max",
              "log_lambda_min", "gamma_min", "gamma_max", "nu_opt")


class GammaOptimum(namedtuple("GammaOptimum", ("gamma", "value", "at_boundary", "log_offset"))):
    """Result of a gamma search: the chosen gamma, value = ln lambda there
    (ln lambda^max or ln lambda^min), whether gamma sits on the edge of its
    interval, and log_offset = ln(gamma - rho)."""

    __slots__ = ()


_WHERE = "{} {} (delta={}, rho={}, gamma={})"


# Branch-point series of Corless et al., "On the Lambert W function" (Adv.
# Comput. Math. 5, 1996), section 4: (1 + W) / p to p^7, highest power first.
_BRANCH_SERIES = (-1963 / 204120, 680863 / 43545600, -221 / 8505, 769 / 17280,
                  -43 / 540, 11 / 72, -1 / 3, 1.0)
# 1/k!, k = 14 down to 2: (expm1(y) - y) / y^2 to double precision for |y| < 1/4.
_EXPM1_TAIL = tuple(1.0 / math.factorial(k) for k in range(14, 1, -1))


def _horner(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _lambert_y(eps: float, sign: float) -> float:
    """Root y = -eps - (1 + W(-e^(-1-eps))) of expm1(y) - y = eps >= 0 on the
    sign side of 0 (W_-1 for sign > 0, else W_0): the branch-point series in
    p = -sign sqrt(2 (1 - e^-eps)) for eps < 1, else ln(2 + eps + ln(1 + eps))
    or -1 - eps, then three Halley steps on h(y) = expm1(y) - y - eps.  For
    |y| < 1/4 expm1(y) - y is its Taylor sum, so h does not cancel; above,
    h' = expm1(y) is taken as is, as (expm1(y) - y) + y cancels to 0 at y =
    -1 - eps for eps > 2**53."""
    if eps == 0.0:
        return 0.0
    if eps < 1.0:
        p = -sign * math.sqrt(-2.0 * math.expm1(-eps))
        y = -eps - p * _horner(_BRANCH_SERIES, p)
    else:
        y = math.log(2.0 + eps + math.log1p(eps)) if sign > 0.0 else -1.0 - eps
    for _ in range(3):
        if abs(y) < 0.25:
            d = y * y * _horner(_EXPM1_TAIL, y)
            em = d + y  # expm1(y) = h'
        else:
            em = math.expm1(y)
            d = em - y
        r = (d - eps) / em
        y -= r / (1.0 - 0.5 * r * (1.0 + em) / em)  # Halley, h'' / h' = (1 + em) / em
    return y


def _solve_lambda(f, sign, side, delta, rho, gamma):
    """ln lambda = ln a + y at the root of the net exponent f(ln lambda) on
    the sign side of its foot a = 1 + sign gamma: f = (delta a / 2)(eps + y
    - expm1(y)) exactly, eps = 2 F(a) / (delta a) >= 0 from _net_foot's
    closed form (exact where a rounds), and y from _lambert_y.  f is
    evaluated once, at the root, which must meet the 1e-12 residual; each
    failure raises SolverError naming the solve."""
    f_foot = _net_foot(sign, delta, rho, gamma, shannon_entropy(rho * delta))
    if f_foot < 0.0:
        raise SolverError(_WHERE.format("net exponent negative at the foot of", side, delta, rho, gamma))
    eps = 2.0 * f_foot / (delta * (1.0 + sign * gamma))
    root = math.log1p(sign * gamma) + _lambert_y(eps, sign)
    residual = abs(f(root))
    if not residual <= RESIDUAL_TOL:  # a nan residual fails too
        msg = _WHERE.format(f"residual above {RESIDUAL_TOL:g} at", side, delta, rho, gamma)
        raise SolverError(f"{msg}: |f| = {residual:g} at {root!r}")
    return root


def solve_lambda_max(delta: float, rho: float, gamma: float) -> float:
    """ln of the root lambda >= 1 + gamma of the net upper-tail exponent,
    ln(1 + gamma) + y with y in closed form from _solve_lambda."""
    _validate_point(delta, rho)
    if not (rho <= gamma <= 1.0 / delta):
        raise DomainError(f"gamma={gamma} outside [rho, 1/delta]")
    return _solve_lambda(lambda x: _net_max_raw(math.exp(x), delta, rho, gamma), 1.0, "lambda^max", delta, rho, gamma)


def solve_lambda_min(delta: float, rho: float, gamma: float) -> float:
    """ln of the root lambda <= 1 - gamma of the net lower-tail exponent,
    ln(1 - gamma) + y with y from _solve_lambda; lambda itself underflows
    double precision for extreme (delta, rho)."""
    _validate_point(delta, rho)
    if not (rho <= gamma < 1.0):
        raise DomainError(f"gamma={gamma} outside [rho, 1) for the lower bound")
    return _solve_lambda(lambda x: _net_min_log_lambda(x, delta, rho, gamma), -1.0, "lambda^min", delta, rho, gamma)


def _first_order_y(sign: float, gamma: float, log_offset: float) -> float:
    """y_1 = ln(lambda_1 / (1 + sign gamma)) at the lambda_1 that the BT
    first-order condition gives: ln lambda_1 = 3 ln gamma - 2 log_offset
    (upper) or 2 ln(1 - gamma) + 2 log_offset - 3 ln gamma (lower).
    log_offset = ln(gamma - rho) is passed explicitly: for offsets below one
    ulp of rho it cannot be recomputed from gamma = rho + offset."""
    return sign * (3.0 * math.log(gamma) - 2.0 * log_offset - math.log1p(sign * gamma))


def stationarity_residual(b: AsymptoticBound, side: str) -> float | None:
    """Signed first-order condition of the BT gamma search at the chosen
    gamma, ln lambda - ln(1 +- gamma) - _first_order_y: the ln of
    lambda^max (gamma_min - rho)^2 / gamma_min^3 on side "upper" and of
    gamma_max^3 lambda^min / ((1 - gamma_max)^2 (gamma_max - rho)^2) on side
    "lower".  Both use the carried log_gamma_offset_*, so they stay finite
    where gamma - rho rounds to 0.0.  At an interior optimum the value is ~0
    and expm1 of it is the relative defect.  At an edge optimum
    (boundary_upper / boundary_lower) it does not vanish; its sign certifies
    the edge: negative at gamma = 1/delta on the upper side, positive at the
    cap on the lower side.  None for families without a gamma search (BCT,
    CT).
    """
    if side == "upper":
        sign, log_lam, gamma, log_offset = 1.0, math.log(b.lambda_max), b.gamma_min, b.log_gamma_offset_min
    elif side == "lower":
        sign, log_lam, gamma, log_offset = -1.0, b.log_lambda_min, b.gamma_max, b.log_gamma_offset_max
    else:
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    if log_offset is None:
        return None
    return log_lam - math.log1p(sign * gamma) - _first_order_y(sign, gamma, log_offset)


def _first_order_offset(sign, gamma, y):
    """u = ln(gamma - rho) at which lambda = (1 + sign gamma) e^y meets the
    first-order condition: _first_order_y = y solved for u."""
    return 0.5 * sign * (_first_order_y(sign, gamma, 0.0) - y)


def _newton(g, x, edge, tol, failure, *args):
    """Root of an increasing g on (-inf, edge] by safeguarded Newton from x < edge;
    g(x) returns g and its slope.  g is negative far below the root.  lo and hi
    bracket the root by known signs, g(lo) <= 0 < g(hi); hi starts at the edge.  A
    step that leaves the bracket, or meets a slope <= 0, bisects it, or while no g
    <= 0 is known steps down by twice its distance from the edge.  g(edge) is
    evaluated only once a step reaches the edge before any g > 0 is seen, and g(edge)
    <= 0 returns None.  It stops on a step below max(tol, 2 ulp(x)), taking it;
    _ROOT_STEPS steps without that stop raise SolverError(failure.format(*args, lo=lo,
    hi=hi)), formatted only then."""
    lo, hi = -math.inf, edge
    for _ in range(_ROOT_STEPS):
        value, slope = g(x)
        lo, hi = (lo, x) if value > 0.0 else (x, hi)
        step = x - value / slope if slope > 0.0 else -math.inf
        if abs(step - x) <= max(tol, 2.0 * math.ulp(x)):
            return step
        if step >= hi == edge and g(edge)[0] <= 0.0:
            return None
        x = step if lo < step < hi else 0.5 * (lo + hi) if lo > -math.inf else 3.0 * hi - 2.0 * edge
    raise SolverError(failure.format(*args, lo=lo, hi=hi))


def _gamma_search(sign, delta, rho, g_edge, solve) -> GammaOptimum:
    """Shared body of the BT gamma searches: _newton on u = ln(gamma - rho).

    With gamma = rho + o, o = e^u, a = 1 + sign gamma and eps = 2 F(a) / (delta
    a), the gap g(u) = |y| - sign y_1 compares the lambda solve's offset y =
    ln(lambda / a) = _lambert_y(eps, sign) with the first-order offset y_1 =
    _first_order_y(sign, gamma, u).  F is positive at its foot (psi > 0, and
    H(rho delta) >= delta gamma H(rho/gamma) by concavity) and monotone past
    it, so g > 0 exactly where lambda_1 lies between the foot and F's root:
    g <= 0 at g_edge puts the optimum there, else g's root is the optimum.
    g' = 2 - o((y_1 + eps) / (a expm1(y)) + 3/gamma - sign/a), as d eps/d gamma
    = -sign (y_1 + eps) / a.  It starts at _first_order_offset of y at gamma = rho,
    capped at u_edge - 1.  g is concave below its root, so Newton steps from g <= 0
    stay below it and one from above lands below it.  It stops on a step below
    max(GAMMA_TOL / 2, 2 ulp(u)) (u reaches -8e7).
    """

    def gap(u):
        o = math.exp(u)
        gamma = min(rho + o, g_edge)
        a = 1.0 + sign * gamma
        eps = 2.0 * _net_foot(sign, delta, rho, gamma, h) / (delta * a)
        y, y1 = _lambert_y(eps, sign), _first_order_y(sign, gamma, u)
        return sign * (y - y1), 2.0 - o * ((y1 + eps) / (a * math.expm1(y)) + 3.0 / gamma - sign / a)

    u_edge, h = math.log(g_edge - rho), shannon_entropy(rho * delta)
    eps = 2.0 * _net_foot(sign, delta, rho, rho, h) / (delta * (1.0 + sign * rho))
    start = _first_order_offset(sign, rho, _lambert_y(eps, sign))
    u = _newton(gap, min(start, u_edge - 1.0), u_edge, 0.5 * GAMMA_TOL,
                "gamma search left [{lo!r}, {hi!r}] unresolved (delta={}, rho={})", delta, rho)
    if u is None:
        return GammaOptimum(g_edge, solve(delta, rho, g_edge), True, u_edge)
    gamma = min(rho + math.exp(u), g_edge)
    return GammaOptimum(gamma, solve(delta, rho, gamma), False, u)


def _check_upper_delta(delta):
    """BT's upper side refuses delta below 2**-52 rather than return U ~ 1/delta."""
    if delta < 2.0**-52:
        raise DomainError(f"delta={delta} below 2**-52: at gamma = 1/delta the terms of the"
                          " upper net exponent cancel below one ulp")


def optimize_gamma_for_max(delta: float, rho: float) -> GammaOptimum:
    """Minimizing gamma for the upper bound over [rho, 1/delta].

    The interior optimum solves lambda^max (gamma - rho)^2 = gamma^3, the
    gap's root; the search starts at (3 ln rho - ln(1 + rho) - |y(rho)|) / 2.
    psi_max(1 + gamma, gamma) > 0 and dF/dlambda < 0 past the foot.  Below
    delta = 2**-52 it raises DomainError rather than return U ~ 1/delta.
    """
    _validate_point(delta, rho)
    _check_upper_delta(delta)
    return _gamma_search(1.0, delta, rho, 1.0 / delta, solve_lambda_max)


def optimize_gamma_for_min(delta: float, rho: float) -> GammaOptimum:
    """Minimizing gamma for the lower bound over [rho, 1 - 1e-9].

    The interior optimum solves gamma^3 lambda^min = (1-gamma)^2 (gamma-rho)^2,
    the gap's root; the search starts at (3 ln rho - ln(1 - rho) - |y(rho)|) / 2.
    psi_min = H(gamma)/2 at the foot and dF/d ln lambda > 0 below it.
    """
    _validate_point(delta, rho)
    if _LOWER_CAP <= rho:
        return GammaOptimum(rho, solve_lambda_min(delta, rho, rho), True, -math.inf)
    return _gamma_search(-1.0, delta, rho, _LOWER_CAP, solve_lambda_min)


def _bound(family, delta, rho, log_max, log_min, **groups) -> AsymptoticBound:
    """The one place that turns ln lambda^max and ln lambda^min into a bound:
    U = expm1(log_max) and L = -expm1(log_min) keep their digits where lambda
    is within an ulp of 1; lambda_min = exp(log_min) may underflow to 0.0."""
    return AsymptoticBound(family, delta, rho, -math.expm1(log_min), math.expm1(log_max),
                           math.exp(log_min), math.exp(log_max), log_min, **groups)


def bt_bounds(delta: float, rho: float) -> AsymptoticBound:
    """Gamma-optimized upper and lower bounds at one (delta, rho) point."""
    upper = optimize_gamma_for_max(delta, rho)
    lower = optimize_gamma_for_min(delta, rho)
    return _bound("BT", delta, rho, upper.value, lower.value,
                  gamma_min=upper.gamma, gamma_max=lower.gamma,
                  boundary_upper=upper.at_boundary, boundary_lower=lower.at_boundary,
                  log_gamma_offset_min=upper.log_offset, log_gamma_offset_max=lower.log_offset)


def bct_bounds(delta: float, rho: float) -> AsymptoticBound:
    """gamma = rho bounds, upper side tightened over relaxed sparsity.

    The upper bound of this family is min over nu in [rho, 1] of
    lambda^max(delta, nu; nu) - 1: a bound valid at sparsity nu >= rho also
    covers sparsity rho.  That minimum sits at an end of the interval.
    lambda(nu) = lambda^max(delta, nu; nu) solves
    F(lambda, nu) = delta psi_max(lambda, nu) + H(nu delta) = 0 (the
    entropy-ratio term vanishes at gamma = rho = nu).  At the root
    lambda > 1 + nu, so dF/dlambda = (delta/2)((1 + nu)/lambda - 1) < 0 and
    lambda'(nu) has the sign of g(nu) = (1/2) ln(lambda/nu)
    + ln((1 - nu delta)/(nu delta)).  Wherever g = 0, lambda' = 0 too, so
    there g'(nu) = -1/(2 nu) - delta/(1 - nu delta) - 1/nu < 0: g crosses
    zero at most once, downward, so lambda rises and then may fall and has
    no interior minimum, so the two ends are compared in ln lambda, the
    right one at max(rho, _NU_TOP): nu never drops below rho, where the
    bound would not cover sparsity rho.  A tie keeps rho.
    """
    _validate_point(delta, rho)
    log_min, nu_top = solve_lambda_min(delta, rho, rho), max(rho, _NU_TOP)
    log_rho, log_top = solve_lambda_max(delta, rho, rho), solve_lambda_max(delta, nu_top, nu_top)
    nu_opt, log_max = (nu_top, log_top) if log_top < log_rho else (rho, log_rho)
    return _bound("BCT", delta, rho, log_max, log_min, gamma_min=rho, gamma_max=rho, nu_opt=nu_opt)


def ct_bounds(delta: float, rho: float) -> AsymptoticBound:
    """Closed-form bounds from extreme singular value concentration."""
    _validate_point(delta, rho)
    spread = math.sqrt(2.0 / delta * shannon_entropy(delta * rho))
    edge = 1.0 - math.sqrt(rho) - spread
    log_min = 2.0 * math.log(edge) if edge > 0.0 else -math.inf
    return _bound("CT", delta, rho, 2.0 * math.log1p(math.sqrt(rho) + spread), log_min)


def compute_bounds(family: str, delta: float, rho: float) -> AsymptoticBound:
    """Dispatch one (delta, rho) point to the named bound family."""
    if family not in FAMILIES:
        raise DomainError(f"unknown bound family {family!r}; expected one of {FAMILIES}")
    return {"BT": bt_bounds, "BCT": bct_bounds, "CT": ct_bounds}[family](delta, rho)


def _threshold_level(delta, gamma):
    """delta max(psi_max(sqrt(2), gamma), psi_min(2 - sqrt(2), gamma)), gamma < sqrt(2) - 1."""
    return delta * max(_psi_max(1.0 + L1_THRESHOLD, gamma), _psi_min(1.0 - L1_THRESHOLD, _LOG_LAM_LO, gamma))


def _below_threshold(delta, rho, gamma, level=None):
    """True when U and L at one gamma in [rho, sqrt(2) - 1) lie below sqrt(2) - 1: the net
    exponents F at lambda = sqrt(2) and 2 - sqrt(2) are negative only past their roots.  As
    rounding is monotone, the larger F is level + H(rho delta) - delta gamma H(rho/gamma) as
    rounded; level is _threshold_level's unless passed.  U and L at such a gamma bound BT's
    from above; at gamma = rho they are BCT's.  dF/drho = delta ln((1 - rho delta) / (delta
    (gamma - rho))) > 0, and BT's crossing gamma minimises F at lambda = sqrt(2) there, so the
    test holds below the crossing and fails above it; its slack covers F's rounding."""
    return rho <= gamma < L1_THRESHOLD and (
        (_threshold_level(delta, gamma) if level is None else level) + shannon_entropy(rho * delta)
        - delta * _entropy_ratio_term(rho, gamma) < -2.0 * RESIDUAL_TOL * delta)


def _crossing(delta, family):
    """Predicted (rho, gamma) where U of the family meets sqrt(2) - 1, by _newton in
    x = ln gamma from 3e-3 to a last step of 1e-8; gamma is BT's, None for BCT (gamma
    = rho) and CT.  BT and BCT solve the net exponent F at lambda = sqrt(2) along gamma
    -> rho, BCT's with rho = gamma and F' = gamma delta (dpsi/dgamma + ln((1 - gamma
    delta) / (gamma delta))).  BT has rho = gamma - e^u, u the _first_order_offset,
    where dF/dgamma = 0, so F' = delta ln((1 - rho delta) / (delta e^u)) (gamma - 3 e^u
    / 2).  At the edge gamma = 1, F >= delta psi_max(sqrt(2), 1) > 0 by H's concavity.
    CT's U = (1 + s)^2 - 1, s = sqrt(rho) + sqrt(2 H(delta rho) / delta), lies above its
    L, so it solves s = 2^(1/4) - 1 in x = ln rho, s > 1 at the edge."""
    log_lam = math.log1p(L1_THRESHOLD)
    offset = lambda gamma: math.exp(_first_order_offset(1.0, gamma, log_lam - math.log1p(gamma)))

    if family == "BT":
        def f(x):
            gamma = math.exp(x)
            o = offset(gamma)
            rho = gamma - o
            return (_net_max_raw(1.0 + L1_THRESHOLD, delta, rho, gamma),
                    delta * math.log((1.0 - rho * delta) / (delta * o)) * (gamma - o * 1.5))
    elif family == "BCT":
        def f(x):
            rho = math.exp(x)
            return (_net_max_raw(1.0 + L1_THRESHOLD, delta, rho, rho),
                    rho * delta * (0.5 * (log_lam - x) + math.log((1.0 - rho * delta) / (rho * delta))))
    elif family == "CT":
        def f(x):
            rho = math.exp(x)
            root, spread = math.sqrt(rho), math.sqrt(2.0 / delta * shannon_entropy(delta * rho))
            return (root + spread - (2.0**0.25 - 1.0),
                    0.5 * root + rho * math.log((1.0 - delta * rho) / (delta * rho)) / spread)
    else:
        raise DomainError(f"unknown bound family {family!r}; expected one of {FAMILIES}")
    x = _newton(f, math.log(3e-3), 0.0, 1e-8, "{} crossing left [{lo!r}, {hi!r}] unresolved (delta={})", family, delta)
    gamma = math.exp(x)
    return (gamma - offset(gamma), gamma) if family == "BT" else (gamma, None)


def l1_phase_transition(delta: float, family: str = "BT") -> float:
    """Largest rho where max(L, U) < sqrt(2) - 1 under the given family, by _phase_search
    from the guess of _crossing.  BT and BCT decide by _below_threshold with no lambda solve:
    after the crossing's Newton steps (2 to 6 net-exponent evaluations), 5 tests of two
    entropies each, plus two psi terms each for BCT or once per curve for BT.  CT decides by
    its closed forms.  BT refuses delta < 2**-52, as its bounds do.  L and U bound RICs of
    order k = rho n, so by delta_2k < sqrt(2) - 1 it certifies (rho/2) n-sparse recovery."""
    _validate_point(delta, 0.5)
    guess, gamma = _crossing(delta, family)
    if family == "BT":
        _check_upper_delta(delta)
        level = _threshold_level(delta, gamma) if gamma < L1_THRESHOLD else None
        below = lambda rho: _below_threshold(delta, rho, gamma, level)
    elif family == "BCT":
        below = lambda rho: _below_threshold(delta, rho, rho)
    else:
        def below(rho):
            b = ct_bounds(delta, rho)
            return max(b.L, b.U) < L1_THRESHOLD
    return _phase_search(below, delta, guess)


def _phase_search(below, delta: float, guess=None) -> float:
    """Largest rho where below(rho) holds; delta only names the curve in errors.  lo is
    the largest rho seen where it holds, hi the smallest where it fails.  A guess in (1e-7
    + 1e-8, 1 - 1e-12 - 1e-8) is probed at guess -+ 2.5e-9, lower side first; else, or
    where that misses, it bisects: 1e-7 while no rho holds (a failure returns 0.0), 1 -
    1e-12 while none fails (success raises SolverError), then midpoints.  It stops at hi -
    lo <= 1e-8 and returns lo, after spot checks of monotone feasibility at fractions of lo."""
    start, top, tol = 1e-7, 1.0 - 1e-12, 1e-8
    seeded = guess is not None and start + tol < guess < top - tol
    first, second = (guess - 0.25 * tol, guess + 0.25 * tol) if seeded else (start, top)
    lo, hi, x = 0.0, math.inf, first  # lo = 0.0 until a feasible rho is seen
    for _ in range(_ROOT_STEPS):
        if below(x):
            if x == top:
                raise SolverError(f"still feasible at rho={top!r} (delta={delta})")
            lo = x
        elif x == start:
            return 0.0
        else:
            hi = x
        if hi - lo <= tol:
            break
        x = start if lo == 0.0 else second if x == first else top if hi == math.inf else 0.5 * (lo + hi)
    else:
        raise SolverError(f"phase search left [{lo!r}, {hi!r}] wider than {tol:g} (delta={delta})")
    for frac in (0.25, 0.5, 0.9):
        if not below(frac * lo):
            raise SolverError(f"feasibility not monotone below rho*={lo} at delta={delta}")
    return lo
