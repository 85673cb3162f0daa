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
from dataclasses import dataclass

from .errors import DomainError, SolverError
from .rates import _net_max_raw, _net_min_log_lambda, shannon_entropy

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

# Root residual target for the implicit lambda equations.
RESIDUAL_TOL = 1e-12
# Relative width target for gamma location searches.
GAMMA_TOL = 1e-10

_LAMBDA_CEILING = 1e9
# ln(lambda^min) scales like -c/(1-gamma) near gamma = 1, so the bracket
# floor has to sit far below anything float-representable as lambda itself.
# The BT searches on u = ln(gamma - rho) share it: u < -1e6 as rho -> 1.
_LOG_FLOOR = -1e12
# Step cap of the bracket-narrowing loop in _root.
_ROOT_STEPS = 200


@dataclass(frozen=True)
class AsymptoticBound:
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
    """

    family: str
    delta: float
    rho: float
    L: float
    U: float
    lambda_min: float
    lambda_max: float
    log_lambda_min: float
    gamma_min: float | None = None
    gamma_max: float | None = None
    nu_opt: float | None = None
    boundary_upper: bool = False
    boundary_lower: bool = False
    log_gamma_offset_min: float | None = None
    log_gamma_offset_max: float | None = None


@dataclass(frozen=True)
class GammaOptimum:
    """Result of a gamma search: the chosen gamma, the lambda value there
    (lambda^max, or ln lambda^min on the lower side), whether gamma sits on
    the edge of its interval, and log_offset = ln(gamma - rho).
    """

    gamma: float
    value: float
    at_boundary: bool
    log_offset: float


def _validate_point(delta: float, rho: float) -> None:
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0,1), got {delta}")
    if not (0.0 < rho < 1.0):
        raise DomainError(f"rho must be in (0,1), got {rho}")


def _root(f, a, b, tol, limit, fa):
    """Bracket and narrow a sign change of f, starting from fa = f(a) > 0.

    b is the first probe on the far side of a.  While f(b) > 0 the bracket
    moves on, doubling its step each time and stopping at limit; no sign
    change there raises SolverError.  Chandrupatla's method (Adv. Eng.
    Software 28, 1997) then narrows the bracket [x1, x2], x1 the newest
    point and x3 the end it displaced: an inverse-quadratic step through the
    three where their shape passes Chandrupatla's test, else the midpoint.
    Every step lands at least max(tol/2, 2 ulp) inside the bracket, and a
    newest f = 0 steps exactly that far toward the other end, as a root at
    x1 is not yet a bracket (if f(x3) = 0 too, f is flat at zero there and
    the step bisects).  A step that rounds onto an end takes the midpoint,
    and the search stops when |b - a| <= tol or the midpoint rounds onto an
    end (adjacent doubles).  Returns (a, b) with f(a) > 0 >= f(b); b may lie
    on either side of a.
    """
    if not fa > 0.0:
        raise SolverError(f"root search needs f > 0 at its start {a!r}, got {fa!r}")
    fb = f(b)
    c, fc = a, fa
    while fb > 0.0:
        if b == limit:
            raise SolverError(f"no sign change between {a!r} and the limit {limit!r}")
        c, fc, a, fa, b = a, fa, b, fb, b + 2.0 * (b - a)
        b = min(b, limit) if limit > a else max(b, limit)
        fb = f(b)
    # With no expansion x3 = x1, which fails the test: the first step bisects.
    x1, f1, x2, f2, x3, f3 = a, fa, b, fb, c, fc
    for _ in range(_ROOT_STEPS):
        dx = x2 - x1
        if abs(dx) <= tol:
            break
        t_min = max(0.5 * tol, 2.0 * math.ulp(x1)) / abs(dx)
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        if f1 == 0.0 and f3 != 0.0:
            t = 0.0  # raised to t_min below
        elif phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                 - (x3 - x1) / dx * f1 / (f3 - f1) * f2 / (f2 - f3))
        else:
            t = 0.5
        x = x1 + (min(max(t, t_min), 1.0 - t_min) if t_min < 0.5 else 0.5) * dx
        if x == x1 or x == x2:
            x = 0.5 * (x1 + x2)
            if x == x1 or x == x2:
                break
        fx = f(x)
        if (fx > 0.0) == (f1 > 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
    else:
        raise SolverError(f"root search left [{x1!r}, {x2!r}] wider than {tol:g}")
    return (x1, x2) if f1 > 0.0 else (x2, x1)


_WHERE = "{} {} (delta={}, rho={}, gamma={})"


def _solve_lambda(f, foot, step, tol, limit, where):
    """Root of f beyond its foot, where f must be >= 0; the first probe is
    foot + step.  The root meets the 1e-12 residual or raises SolverError.

    where = (side, delta, rho, gamma) names the solve in the messages; it is
    formatted only on failure, as formatting costs a few percent of a BCT
    point.
    """
    f_foot = f(foot)
    if f_foot < 0.0:
        raise SolverError(_WHERE.format("net exponent negative at the foot of", *where))
    a, b = _root(f, foot, foot + step, tol, limit, f_foot)
    root = 0.5 * (a + b)
    residual = abs(f(root))
    if residual > RESIDUAL_TOL:
        msg = _WHERE.format(f"residual above {RESIDUAL_TOL:g} at", *where)
        raise SolverError(f"{msg}: |f| = {residual:g} at {root!r}, bracket [{a!r}, {b!r}]")
    return root


def solve_lambda_max(delta: float, rho: float, gamma: float) -> float:
    """Root lambda >= 1 + gamma of the net upper-tail exponent.

    The exponent is positive at lambda = 1 + gamma and strictly decreasing
    beyond it.  The search stops within 1e-15 (1 + gamma), which is at most
    1e-15 relative to the root.
    """
    _validate_point(delta, rho)
    if not (rho <= gamma <= 1.0 / delta):
        raise DomainError(f"gamma={gamma} outside [rho, 1/delta]")
    foot = 1.0 + gamma
    return _solve_lambda(
        lambda lam: _net_max_raw(lam, delta, rho, gamma), foot, foot, 1e-15 * foot,
        _LAMBDA_CEILING, ("lambda^max", delta, rho, gamma),
    )


def solve_lambda_min(delta: float, rho: float, gamma: float) -> float:
    """Log of the root lambda <= 1 - gamma of the net lower-tail exponent.

    Returned as ln(lambda): the root itself underflows double precision for
    extreme (delta, rho).  The exponent is increasing on (0, 1 - gamma),
    negative near 0 and positive at 1 - gamma, so the search runs on
    ln(lambda), to 1e-13 absolute.
    """
    _validate_point(delta, rho)
    if not (rho <= gamma < 1.0):
        raise DomainError(f"gamma={gamma} outside [rho, 1) for the lower bound")
    return _solve_lambda(
        lambda log_lam: _net_min_log_lambda(log_lam, delta, rho, gamma),
        math.log1p(-gamma), -2.0, 1e-13,
        _LOG_FLOOR, ("lambda^min", delta, rho, gamma),
    )


def _first_order_max(log_lam: float, gamma: float, log_offset: float) -> float:
    """ln of lambda^max (gamma-rho)^2 / gamma^3, zero at an interior optimum.

    log_offset = ln(gamma - rho), passed explicitly: for offsets below one
    ulp of rho it cannot be recomputed from gamma = rho + offset.
    """
    return log_lam + 2.0 * log_offset - 3.0 * math.log(gamma)


def _first_order_min(log_lam: float, gamma: float, log_offset: float) -> float:
    """ln of gamma^3 lambda^min / ((1-gamma)^2 (gamma-rho)^2), zero at an
    interior optimum."""
    return 3.0 * math.log(gamma) + log_lam - 2.0 * math.log1p(-gamma) - 2.0 * log_offset


def stationarity_residual(b: AsymptoticBound, side: str) -> float | None:
    """Signed first-order condition of the BT gamma search at the chosen gamma.

    side "upper": ln lambda^max + 2 ln(gamma_min - rho) - 3 ln gamma_min;
    side "lower": 3 ln gamma_max + ln lambda^min - 2 ln(1 - gamma_max)
    - 2 ln(gamma_max - rho).  Both use the carried log_gamma_offset_*, so
    they stay finite where gamma - rho rounds to 0.0.  At an interior
    optimum the value is ~0 and expm1 of it is the relative defect.  At an
    edge optimum (boundary_upper / boundary_lower) it does not vanish; its
    sign certifies the edge: negative at gamma = 1/delta on the upper side,
    positive at the cap on the lower side.  None for families without a
    gamma search (BCT, CT).
    """
    if side == "upper":
        if b.log_gamma_offset_min is None:
            return None
        return _first_order_max(math.log(b.lambda_max), b.gamma_min, b.log_gamma_offset_min)
    if side == "lower":
        if b.log_gamma_offset_max is None:
            return None
        return _first_order_min(b.log_lambda_min, b.gamma_max, b.log_gamma_offset_max)
    raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")


def _gamma_search(delta, rho, g_edge, net_at_first_order, solve) -> GammaOptimum:
    """Shared body of the BT gamma searches, on u = ln(gamma - rho).

    At an interior optimum the first-order condition gives lambda in closed
    form, lambda_1(u); net_at_first_order(u) is the net exponent F at
    lambda_1 clamped to the side constraint.  F is positive at its foot
    1 +- gamma (psi > 0 there, and H(rho delta) >= delta gamma H(rho/gamma)
    as H is concave, H(0) = 0 and delta gamma <= 1) and monotone past it
    through its root lambda^max or lambda^min.  So the clamped value is
    positive exactly where lambda_1 lies between the foot and that root, the
    sign of the first-order expression (negated on the lower side), and F's
    root on the far side of the foot is never reached.  A negative value at
    g_edge puts the optimum there; else _root finds the sign change below it.
    One lambda solve at the chosen gamma keeps the residual check.
    """
    u = math.log(g_edge - rho)
    f_edge = net_at_first_order(u)
    at_edge = f_edge < 0.0
    gamma = g_edge
    if not at_edge:
        a, b = _root(net_at_first_order, u, u - 1.0, GAMMA_TOL * 1e-2, _LOG_FLOOR, f_edge)
        u = 0.5 * (a + b)
        gamma = rho + math.exp(u)
    return GammaOptimum(gamma, solve(delta, rho, gamma), at_edge, u)


def optimize_gamma_for_max(delta: float, rho: float) -> GammaOptimum:
    """Minimizing gamma for the upper bound over [rho, 1/delta].

    The interior optimum solves lambda^max (gamma-rho)^2 = gamma^3: the
    search (_gamma_search) runs on F_max(max(lambda_1, 1 + gamma)) with
    ln lambda_1 = 3 ln gamma - 2u.  psi_max(1 + gamma, gamma) > 0 and
    dF/dlambda = (delta/2)((1+gamma)/lambda - 1) < 0 past the foot.
    """
    _validate_point(delta, rho)
    g_hi = 1.0 / delta

    def f(u):
        gamma = min(rho + math.exp(u), g_hi)
        lam = math.exp(-_first_order_max(0.0, gamma, u))
        return _net_max_raw(max(lam, 1.0 + gamma), delta, rho, gamma)

    return _gamma_search(delta, rho, g_hi, f, solve_lambda_max)


def optimize_gamma_for_min(delta: float, rho: float) -> GammaOptimum:
    """Minimizing gamma for the lower bound over [rho, 1).

    The interior optimum solves gamma^3 lambda^min = (1-gamma)^2 (gamma-rho)^2:
    the search (_gamma_search) runs on F_min(min(ln lambda_1, ln(1-gamma)))
    with ln lambda_1 = 2 ln(1-gamma) + 2u - 3 ln gamma.  psi_min = H(gamma)/2
    at the foot and dF/d ln lambda = (delta/2)(1 - gamma - lambda) > 0 below
    it.  The open right end of the interval is approached through a guard.
    """
    _validate_point(delta, rho)
    g_cap = min(1.0, 1.0 / delta) - 1e-9
    if g_cap <= rho:
        return GammaOptimum(rho, solve_lambda_min(delta, rho, rho), True, -math.inf)

    def f(u):
        gamma = rho + math.exp(u)
        log_lam = -_first_order_min(0.0, gamma, u)
        return _net_min_log_lambda(min(log_lam, math.log1p(-gamma)), delta, rho, gamma)

    return _gamma_search(delta, rho, g_cap, f, solve_lambda_min)


def bt_bounds(delta: float, rho: float) -> AsymptoticBound:
    """Gamma-optimized upper and lower bounds at one (delta, rho) point."""
    upper = optimize_gamma_for_max(delta, rho)
    lower = optimize_gamma_for_min(delta, rho)
    lam_max, log_lam_min = upper.value, lower.value
    lam_min = math.exp(log_lam_min)
    return AsymptoticBound(
        family="BT",
        delta=delta,
        rho=rho,
        L=1.0 - lam_min,
        U=lam_max - 1.0,
        lambda_min=lam_min,
        lambda_max=lam_max,
        log_lambda_min=log_lam_min,
        gamma_min=upper.gamma,
        gamma_max=lower.gamma,
        boundary_upper=upper.at_boundary,
        boundary_lower=lower.at_boundary,
        log_gamma_offset_min=upper.log_offset,
        log_gamma_offset_max=lower.log_offset,
    )


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
    no interior minimum.  The two ends are compared; a tie keeps rho.
    """
    _validate_point(delta, rho)
    log_lam_min = solve_lambda_min(delta, rho, rho)
    lam_min = math.exp(log_lam_min)
    nu_opt, lam_max = rho, solve_lambda_max(delta, rho, rho)
    # The right end stays a hair inside rho < 1, where the exponent solver
    # is defined; the bound there is continuous in nu.  It never drops
    # below rho, where the bound would not cover sparsity rho.
    nu_top = max(rho, 1.0 - 1e-12)
    lam_top = solve_lambda_max(delta, nu_top, nu_top)
    if lam_top < lam_max:
        nu_opt, lam_max = nu_top, lam_top
    return AsymptoticBound(
        family="BCT",
        delta=delta,
        rho=rho,
        L=1.0 - lam_min,
        U=lam_max - 1.0,
        lambda_min=lam_min,
        lambda_max=lam_max,
        log_lambda_min=log_lam_min,
        gamma_min=rho,
        gamma_max=rho,
        nu_opt=nu_opt,
    )


def ct_bounds(delta: float, rho: float) -> AsymptoticBound:
    """Closed-form bounds from extreme singular value concentration."""
    _validate_point(delta, rho)
    spread = math.sqrt(2.0 / delta * shannon_entropy(delta * rho))
    lam_max = (1.0 + math.sqrt(rho) + spread) ** 2
    edge = 1.0 - math.sqrt(rho) - spread
    lam_min = max(0.0, edge) ** 2
    return AsymptoticBound(
        family="CT",
        delta=delta,
        rho=rho,
        L=1.0 - lam_min,
        U=lam_max - 1.0,
        lambda_min=lam_min,
        lambda_max=lam_max,
        log_lambda_min=math.log(lam_min) if lam_min > 0.0 else -math.inf,
    )


def compute_bounds(family: str, delta: float, rho: float) -> AsymptoticBound:
    """Dispatch one (delta, rho) point to the named bound family."""
    if family == "BT":
        return bt_bounds(delta, rho)
    if family == "BCT":
        return bct_bounds(delta, rho)
    if family == "CT":
        return ct_bounds(delta, rho)
    raise DomainError(f"unknown bound family {family!r}; expected one of {FAMILIES}")


def l1_phase_transition(delta: float, family: str = "BT") -> float:
    """Largest rho where max(L, U) < sqrt(2) - 1 under the given family.

    Root search on the margin (sqrt(2) - 1) - max(L, U) in rho, to 1e-8
    absolute; the feasible end of the final bracket is returned.  Monotone
    feasibility in rho is assumed for the search and spot-checked at
    fractions of the returned value.  Returns 0.0 when even the smallest
    probed rho fails the condition.
    """
    _validate_point(delta, 0.5)

    def margin(rho: float) -> float:
        b = compute_bounds(family, delta, rho)
        return L1_THRESHOLD - max(b.L, b.U)

    lo = 1e-7
    m_lo = margin(lo)
    if not m_lo > 0.0:
        return 0.0
    rho_star, _ = _root(margin, lo, 2e-3, 1e-8, 1.0 - 1e-12, m_lo)
    for frac in (0.25, 0.5, 0.9):
        if not margin(frac * rho_star) > 0.0:
            raise SolverError(
                f"feasibility not monotone below rho*={rho_star} at delta={delta}"
            )
    return rho_star
