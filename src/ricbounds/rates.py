"""Scalar rate functions shared by every other module.

Shannon entropy, the large-deviation exponents of the extreme Wishart
eigenvalue densities, the combined net exponents whose roots define the
bound values, and the Stirling / Binet inequalities.  The last two document
steps of the paper's finite-size proof: acceptance criterion 10 tests them,
and nothing else in the package calls them.  Everything here is a pure
function of floats; all logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "ProblemShape",
    "shannon_entropy",
    "psi_max",
    "psi_min",
    "net_exponent_max",
    "log_binomial_bounds",
    "binet_log_gamma_lower",
]

LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _validate_point(delta: float, rho: float) -> None:
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0,1), got {delta}")
    if not (0.0 < rho < 1.0):
        raise DomainError(f"rho must be in (0,1), got {rho}")
    if rho * delta < 2.0**-1022:
        raise DomainError(f"rho*delta={rho * delta!r} is below the smallest normal double")


@dataclass(frozen=True)
class ProblemShape:
    """Asymptotic problem coordinates.

    delta = n/N and rho = k/n, both in (0,1).  gamma = m/n is the
    group-size ratio and must lie in [rho, 1/delta].
    """

    delta: float
    rho: float
    gamma: float

    def __post_init__(self):
        _validate_point(self.delta, self.rho)
        if not (self.rho <= self.gamma <= 1.0 / self.delta):
            raise DomainError(
                f"gamma={self.gamma} outside [rho, 1/delta] = "
                f"[{self.rho}, {1.0 / self.delta}]"
            )


def shannon_entropy(p: float) -> float:
    """Shannon entropy in nats, H(p) = p ln(1/p) + (1-p) ln(1/(1-p)).

    The endpoints p = 0 and p = 1 return 0 exactly (continuous limit).
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"entropy argument must be in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def psi_max(lam: float, gamma: float) -> float:
    """Rate exponent of the largest-eigenvalue density bound.

    (1/2) [ (1+gamma) ln(lam) - gamma ln(gamma) + 1 + gamma - lam ],
    for finite lam > 0 and finite gamma > 0.
    """
    if not (0.0 < lam < math.inf and 0.0 < gamma < math.inf):
        raise DomainError(f"lambda and gamma must be positive and finite, got {lam}, {gamma}")
    return _psi_max(lam, gamma)


def _psi_max(lam: float, gamma: float) -> float:
    # Unvalidated core of psi_max, for the root loops.
    return 0.5 * (
        (1.0 + gamma) * math.log(lam) - gamma * math.log(gamma) + 1.0 + gamma - lam
    )


def psi_min(lam: float, gamma: float) -> float:
    """Rate exponent of the smallest-eigenvalue density bound.

    H(gamma) + (1/2) [ (1-gamma) ln(lam) + gamma ln(gamma) + 1 - gamma - lam ],
    for finite lam > 0 and gamma in (0,1).  gamma >= 1 is rejected: the
    smallest Wishart eigenvalue degenerates to 0 there and H(gamma) leaves [0,1].
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam}")
    if not (0.0 < gamma < 1.0):
        raise DomainError(f"gamma must be in (0,1) for psi_min, got {gamma}")
    return _psi_min(lam, math.log(lam), gamma)


def _psi_min(lam: float, log_lam: float, gamma: float) -> float:
    # Unvalidated core of psi_min; log_lam stays finite where lam underflows.
    return shannon_entropy(gamma) + 0.5 * (
        (1.0 - gamma) * log_lam + gamma * math.log(gamma) + 1.0 - gamma - lam
    )


def _entropy_ratio_term(rho: float, gamma: float) -> float:
    """gamma * H(rho/gamma); every caller has gamma >= rho."""
    return gamma * shannon_entropy(rho / gamma)


def net_exponent_max(lam: float, shape: ProblemShape) -> float:
    """Net exponent whose root (at lam >= 1+gamma) defines lambda^max.

    delta * psi_max(lam, gamma) + H(rho*delta) - delta*gamma*H(rho/gamma).
    """
    return _net_max_raw(lam, shape.delta, shape.rho, shape.gamma)


def _net_max_raw(lam: float, delta: float, rho: float, gamma: float) -> float:
    # Fast path used inside root searches; inputs already validated.
    return (
        delta * _psi_max(lam, gamma)
        + shannon_entropy(rho * delta)
        - delta * _entropy_ratio_term(rho, gamma)
    )


def _net_foot(sign: float, delta: float, rho: float, gamma: float, h: float) -> float:
    """Net exponent at its foot a = 1 + sign gamma in closed form, exact where
    a rounds: 2 psi(a) = sign a ln a - gamma ln gamma on both sides, which
    is H(gamma) for psi_min.  h = H(rho delta) comes from the caller."""
    psi = 0.5 * (sign * (1.0 + sign * gamma) * math.log1p(sign * gamma) - gamma * math.log(gamma))
    return delta * psi + h - delta * _entropy_ratio_term(rho, gamma)


# Log-lambda variants: lambda^min underflows float range for extreme
# (delta, rho), so the min-side solver works on ln(lambda) directly.
def _net_min_log_lambda(log_lam: float, delta: float, rho: float, gamma: float) -> float:
    return (
        delta * _psi_min(math.exp(log_lam), log_lam, gamma)
        + shannon_entropy(rho * delta)
        - delta * _entropy_ratio_term(rho, gamma)
    )


def log_binomial_bounds(n_total: int, p: float) -> tuple[float, float]:
    """Stirling-inequality bracket for ln C(n_total, p*n_total).

    Returns (lower, upper) where
      lower = ln(16/25) - (1/2) ln(2 pi p (1-p) n_total) + n_total H(p)
      upper = ln(5/4)   - (1/2) ln(2 pi p (1-p) n_total) + n_total H(p)
    and the exact log-binomial lies in [lower, upper].
    """
    if n_total <= 0:
        raise DomainError(f"n_total must be positive, got {n_total}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must be in (0,1), got {p}")
    k = p * n_total
    if abs(k - round(k)) > 1e-9 or not (0 < round(k) < n_total):
        raise DomainError(f"p*n_total = {k} is not an integer in (0, n_total)")
    common = -0.5 * math.log(2.0 * math.pi * p * (1.0 - p) * n_total) + n_total * shannon_entropy(p)
    return math.log(16.0 / 25.0) + common, math.log(5.0 / 4.0) + common


def binet_log_gamma_lower(z: float) -> float:
    """Binet's lower bound on ln Gamma(z):  (z - 1/2) ln z - z + ln sqrt(2 pi)."""
    if z <= 0.0:
        raise DomainError(f"z must be positive, got {z}")
    return (z - 0.5) * math.log(z) - z + LN_SQRT_2PI
