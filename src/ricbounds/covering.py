"""Random covering of k-subsets by larger m-subsets.

The union bound behind the tail probabilities groups the C(N,k) supports
into C(m,k)-sized clusters: draw u = ceil(r*N) uniform m-subsets with
r = C(N,k)/C(m,k), and with overwhelming probability every k-subset lands
inside at least one of them.  This module evaluates that construction
numerically: the minimum group count, a Monte-Carlo coverage check, and
the failure-probability bounds.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, GuardError, check_count
from .finite import log_covering_failure_bound

__all__ = [
    "CoveringPlan",
    "CoveringBound",
    "min_group_count",
    "random_cover",
    "covering_bound",
]

COVER_CHECK_GUARD = 10_000_000


def min_group_count(N: int, k: int, m: int) -> float:
    """r = C(N,k) / C(m,k), the minimum number of m-subset groups that
    could possibly cover all k-subsets.

    Exact: the quotient of the two integers is rounded once, correctly, at
    any size.  A quotient beyond the double range raises GuardError.
    """
    for name, value in (("N", N), ("k", k), ("m", m)):
        check_count(name, value)
    if not 0 < k <= m <= N:
        raise DomainError(f"require 0 < k <= m <= N, got ({N}, {k}, {m})")
    try:
        return math.comb(N, k) / math.comb(m, k)
    except OverflowError:
        raise GuardError(f"C({N}, {k}) / C({m}, {k}) exceeds the double range") from None


@dataclass(frozen=True)
class CoveringPlan:
    """Parameters of one random covering draw.

    u = None (the default) draws ceil(r * N) subsets, the count for which
    the failure-probability lemma is stated; callers may give fewer (they
    suffice when only most subsets need covering).  N, k, m, seed and a
    given u must be integers, u and seed non-negative, or it is a DomainError.
    """

    N: int
    k: int
    m: int
    seed: int = 0
    u: int | None = None

    def __post_init__(self):
        for name in ("N", "k", "m", "seed"):
            check_count(name, getattr(self, name))
        if not 0 < self.k <= self.m <= self.N:
            raise DomainError(
                f"require 0 < k <= m <= N, got ({self.N}, {self.k}, {self.m})"
            )
        if self.u is None:
            object.__setattr__(self, "u", math.ceil(self.r * self.N))
        else:
            check_count("u", self.u)

    @property
    def r(self) -> float:
        return min_group_count(self.N, self.k, self.m)


def random_cover(plan: CoveringPlan) -> tuple[bool, int]:
    """Draw the plan's u uniform m-subsets and count the k-subsets of
    {0..N-1} that lie in none of them; returns (covered, uncovered_count).

    holders[c] has bit j set when draw j holds column c, so a k-subset is
    covered exactly when the AND of its columns' holders is nonzero.  All
    C(N,k) subsets are checked, guarded at C(N,k) <= 1e7.  Coverage is
    monotone in u for a fixed seed: the first u' > u draws extend the first u.
    """
    count = math.comb(plan.N, plan.k)
    if count > COVER_CHECK_GUARD:
        raise GuardError(
            f"C({plan.N}, {plan.k}) ~ 10^{math.log10(count):.1f} subsets exceeds the coverage "
            f"check guard of {COVER_CHECK_GUARD}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    holders = [0] * plan.N
    for j in range(plan.u):
        for c in rng.choice(plan.N, size=plan.m, replace=False):
            holders[c] |= 1 << j
    uncovered = sum(
        not functools.reduce(operator.and_, subset)
        for subset in combinations(holders, plan.k)
    )
    return uncovered == 0, uncovered


class CoveringBound(namedtuple("CoveringBound", ("log_envelope", "log_intermediate"))):
    """Failure-probability bounds for a covering plan, in log space.

    envelope is the closed-form bound (5/4)(2 pi k (1-k/N))^(-1/2)
    e^(-N(1-ln 2)); intermediate is the union-bound step C(N,k) e^(-u/r)
    it is derived from.  Linear values underflow to 0.0 past e^-745.
    """

    __slots__ = ()

    @property
    def envelope(self) -> float:
        return math.exp(self.log_envelope)

    @property
    def intermediate(self) -> float:
        return math.exp(self.log_intermediate)


def covering_bound(plan: CoveringPlan) -> CoveringBound:
    """Both published bounds on the probability the plan fails to cover."""
    log_env = log_covering_failure_bound(plan.k, plan.N)
    log_comb = (
        math.lgamma(plan.N + 1)
        - math.lgamma(plan.k + 1)
        - math.lgamma(plan.N - plan.k + 1)
    )
    log_inter = log_comb - plan.u / plan.r
    return CoveringBound(log_envelope=log_env, log_intermediate=log_inter)
