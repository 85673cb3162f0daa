"""Finite-size tail probability bounds for the RIC of Gaussian matrices.

Combines the extreme-eigenvalue density bounds of the Wishart ensemble
with a union bound over support sets to bound, for a concrete (k, n, N)
and slack epsilon, the probability that the observed RIC exceeds the
asymptotic bound value plus epsilon.

Everything is carried in natural-log space with one final exponentiation;
several quantities here (the covering failure term, the lower-tail
eigenvalue level) underflow double precision in linear form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .asymptotic import (
    GammaOptimum,
    optimize_gamma_for_max,
    optimize_gamma_for_min,
)
from .errors import DomainError, check_count
from .rates import _net_max_raw, _net_min_log_lambda

__all__ = [
    "FiniteInstance",
    "TailBound",
    "log_g_max_pdf_bound",
    "log_g_min_pdf_bound",
    "log_covering_failure_bound",
    "tail_prob_upper",
    "tail_prob_lower",
]

_LOG_54_CUBED = 3.0 * math.log(1.25)


@dataclass(frozen=True)
class FiniteInstance:
    """A concrete problem size (k, n, N), integers, with tail slack epsilon."""

    k: int
    n: int
    N: int
    epsilon: float

    def __post_init__(self):
        for name in ("k", "n", "N"):
            check_count(name, getattr(self, name))
        if not (0 < self.k < self.n < self.N):
            raise DomainError(f"require 0 < k < n < N, got ({self.k}, {self.n}, {self.N})")
        if not 0.0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def delta_n(self) -> float:
        return self.n / self.N

    @property
    def rho_n(self) -> float:
        return self.k / self.n


class TailBound(namedtuple("TailBound", (
        "side", "instance", "lambda_star", "log_lambda_star", "gamma_used", "psi_derivative",
        "log_prefactor_proof", "log_eig_term", "log_cover_term", "log_total"))):
    """One evaluated tail probability bound.

    total is the final probability, clamped to [0, 1]; log_total is the
    unclamped log value.  eig_term / cover_term are the two summands in
    linear form (exponentiated from their log fields, 0.0 on underflow).
    psi_derivative is the signed coefficient of n*epsilon in the slack
    exponent as applied, negative on both sides, so total decreases in
    epsilon.  log_prefactor_proof is the proof-derived polynomial prefactor
    used in eig_term; log_prefactor_stated, the other published variant, is
    derived from it: gamma^(1/2) larger on the upper side, equal on the lower.
    RECORD names the output record's fields in order; k, n, N, epsilon read instance.
    """

    __slots__ = ()
    RECORD = ("side", "k", "n", "N", "epsilon", "total", "eig_term", "cover_term",
              "lambda_star", "log_lambda_star", "gamma_used", "psi_derivative",
              "log_eig_term", "log_cover_term", "log_total", "log_prefactor_proof",
              "log_prefactor_stated")

    k = property(lambda self: self.instance.k)
    n = property(lambda self: self.instance.n)
    N = property(lambda self: self.instance.N)
    epsilon = property(lambda self: self.instance.epsilon)

    @property
    def log_prefactor_stated(self) -> float:
        extra = 0.5 * math.log(self.gamma_used) if self.side == "upper" else 0.0
        return self.log_prefactor_proof + extra

    @property
    def eig_term(self) -> float:
        return math.exp(self.log_eig_term)

    @property
    def cover_term(self) -> float:
        return math.exp(self.log_cover_term)

    @property
    def total(self) -> float:
        return math.exp(min(self.log_total, 0.0))


def log_g_max_pdf_bound(m: int, n: int, lam: float) -> float:
    """Log of the largest-eigenvalue density bound of an n x m Wishart-type
    Gram matrix with variance-1/n Gaussian entries:

      (2 pi)^(1/2) (n lam)^(-3/2) (n lam / 2)^((n+m)/2)
        / (Gamma(m/2) Gamma(n/2)) * exp(-n lam / 2).
    """
    if m < 1 or n < 1:
        raise DomainError(f"m and n must be >= 1, got ({m}, {n})")
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam}")
    nl = n * lam
    return (
        0.5 * math.log(2.0 * math.pi)
        - 1.5 * math.log(nl)
        + 0.5 * (n + m) * math.log(0.5 * nl)
        - math.lgamma(0.5 * m)
        - math.lgamma(0.5 * n)
        - 0.5 * nl
    )


def log_g_min_pdf_bound(m: int, n: int, lam: float) -> float:
    """Log of the smallest-eigenvalue density bound:

      (pi / (2 n lam))^(1/2) (n lam / 2)^((n-m)/2)
        * Gamma((n+1)/2) / (Gamma(m/2) Gamma((n-m+1)/2) Gamma((n-m+2)/2))
        * exp(-n lam / 2).
    """
    if not 1 <= m <= n:
        raise DomainError(f"require 1 <= m <= n, got ({m}, {n})")
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam}")
    nl = n * lam
    return (
        0.5 * math.log(math.pi / (2.0 * nl))
        + 0.5 * (n - m) * math.log(0.5 * nl)
        + math.lgamma(0.5 * (n + 1))
        - math.lgamma(0.5 * m)
        - math.lgamma(0.5 * (n - m + 1))
        - math.lgamma(0.5 * (n - m + 2))
        - 0.5 * nl
    )


def log_covering_failure_bound(k: int, N: int) -> float:
    """Log of (5/4) (2 pi k (1 - k/N))^(-1/2) exp(-N (1 - ln 2)).

    This is the probability that the random grouping scheme behind the
    union bound fails to cover some support set.  It underflows linear
    doubles for N beyond ~2500.
    """
    if not 0 < k < N:
        raise DomainError(f"require 0 < k < N, got ({k}, {N})")
    return (
        math.log(1.25)
        - 0.5 * math.log(2.0 * math.pi * k * (1.0 - k / N))
        - N * (1.0 - math.log(2.0))
    )


def tail_prob_upper(inst: FiniteInstance) -> TailBound:
    """Bound on P(U(k,n,N) exceeds the asymptotic upper bound + epsilon).

    lambda* and gamma are the upper-side optimized solution evaluated at
    the finite ratios (delta_n, rho_n).  The eigenvalue term is
    prefactor * exp(N * net exponent at lambda*) * exp(n eps psi'(lambda*))
    with the net exponent vanishing at the root and psi' = psi_derivative
    < 0; the covering failure probability is added on top.

    Caveat: the result lies below the union bound that its own pieces
    define, N C(N,k)/C(m,k) times the integral of exp(log_g_max_pdf_bound)
    over [lambda* + epsilon, inf) with m = gamma n: at epsilon = 1e-3 and
    (k, n, N) = (100, 200, 2000), (200, 400, 4000), (400, 800, 8000) it is
    209, 839 and 3.4e3 times smaller.  Stirling and Binet steps can only
    raise a bound, so the proof-form prefactor is wrong; Binet applied to
    the density bound gives (8 pi)^(-1/2) gamma^(1/2) n^(-1/2) lam^(-3/2)
    instead.  It is kept until the paper's finite-size derivation settles
    the form.
    """
    delta, rho = inst.delta_n, inst.rho_n
    opt = optimize_gamma_for_max(delta, rho)
    gamma, lam = opt.gamma, math.exp(opt.value)
    # Proof-form polynomial prefactor; _tail_bound adds its sqrt-factor:
    # 2 lam (5/4)^3 sqrt-factor * (8/pi)^(1/2) gamma^(-1) n^(-7/2) lam^(-3/2).
    log_pref = (math.log(2.0) + _LOG_54_CUBED + 0.5 * math.log(8.0 / math.pi)
                - math.log(gamma) - 3.5 * math.log(inst.n) - 0.5 * opt.value)
    slope = 0.5 * ((1.0 + gamma) / lam - 1.0)
    return _tail_bound("upper", inst, opt, log_pref, _net_max_raw(lam, delta, rho, gamma), slope)


def tail_prob_lower(inst: FiniteInstance) -> TailBound:
    """Bound on P(L(k,n,N) exceeds the asymptotic lower bound + epsilon).

    Mirrors tail_prob_upper with the lower-side solution.  The slack
    exponent uses psi'(lambda) = (1/2)[(1 - gamma)/lambda - 1], which is
    positive at lambda* < 1 - gamma; larger epsilon means a smaller lambda
    level and a smaller tail, so the slack factor is exp(-n eps psi') and
    psi_derivative is -psi'.
    """
    delta, rho = inst.delta_n, inst.rho_n
    opt = optimize_gamma_for_min(delta, rho)
    gamma, log_lam = opt.gamma, opt.value
    # One published form only: (5/4)^3 e sqrt(lam) / (pi sqrt(2)) * sqrt-factor.
    log_pref = _LOG_54_CUBED + 1.0 + 0.5 * log_lam - math.log(math.pi) - 0.5 * math.log(2.0)
    inv_lam = math.exp(-log_lam) if log_lam > -709.0 else math.inf
    slope = -0.5 * ((1.0 - gamma) * inv_lam - 1.0)
    net = _net_min_log_lambda(log_lam, delta, rho, gamma)
    return _tail_bound("lower", inst, opt, log_pref, net, slope)


def _tail_bound(side: str, inst: FiniteInstance, opt: GammaOptimum, log_pref: float,
                net: float, slope: float) -> TailBound:
    """One side's TailBound from its prefactor, net exponent and slope, with
    lambda* = exp(opt.value) from the gamma search's ln lambda.

    Adds the factor (n N (gamma - rho) / (gamma delta (1 - rho delta)))^(1/2)
    to log_pref with ln(gamma - rho) = opt.log_offset, as the gamma search
    carried it: recomputed from gamma it is -inf where gamma rounds onto rho.
    """
    delta, rho, gamma = inst.delta_n, inst.rho_n, opt.gamma
    if opt.log_offset == -math.inf:
        raise DomainError(
            f"degenerate group ratio gamma={gamma} equals rho={rho}; the Stirling "
            "bracket of C(m, k) behind the tail prefactor holds only for m > k"
        )
    log_pref += 0.5 * (
        math.log(inst.n * inst.N / (gamma * delta * (1.0 - rho * delta))) + opt.log_offset
    )
    log_eig = log_pref + inst.N * net + inst.n * inst.epsilon * slope
    log_cover = log_covering_failure_bound(inst.k, inst.N)
    return TailBound(
        side=side,
        instance=inst,
        lambda_star=math.exp(opt.value),
        log_lambda_star=opt.value,
        gamma_used=gamma,
        psi_derivative=slope,
        log_prefactor_proof=log_pref,
        log_eig_term=log_eig,
        log_cover_term=log_cover,
        log_total=_log_add(log_eig, log_cover),
    )


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without leaving log space."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))
