"""Random covering of k-subsets by larger m-subsets.

The union bound behind the tail probabilities groups the C(N,k) supports
into C(m,k)-sized clusters: draw u = ceil(r*N) uniform m-subsets with
r = C(N,k)/C(m,k), and with overwhelming probability every k-subset lands
inside at least one of them.  This module evaluates that construction
numerically: the minimum group count, a Monte-Carlo coverage check, and
the failure-probability bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GuardError
from .finite import log_covering_failure_bound

__all__ = [
    "CoveringPlan",
    "CoveringBound",
    "min_group_count",
    "random_cover",
    "covering_bound",
]

COVER_CHECK_GUARD = 10_000_000
_EXACT_COMB_LIMIT = 2**63


def min_group_count(N: int, k: int, m: int) -> float:
    """r = C(N,k) / C(m,k), the minimum number of m-subset groups that
    could possibly cover all k-subsets.

    Exact integer arithmetic while C(N,k) fits a machine word, log-gamma
    evaluation beyond.
    """
    if not 0 < k <= m <= N:
        raise DomainError(f"require 0 < k <= m <= N, got ({N}, {k}, {m})")
    if math.comb(N, k) <= _EXACT_COMB_LIMIT:
        return math.comb(N, k) / math.comb(m, k)
    log_r = (
        math.lgamma(N + 1)
        - math.lgamma(N - k + 1)
        - math.lgamma(m + 1)
        + math.lgamma(m - k + 1)
    )
    return math.exp(log_r)


@dataclass(frozen=True)
class CoveringPlan:
    """Parameters of one random covering draw.

    u defaults to ceil(r * N), the count for which the failure-probability
    lemma is stated; callers may override it (fewer draws suffice when only
    most subsets need covering).
    """

    N: int
    k: int
    m: int
    seed: int = 0
    u: int = field(default=-1)

    def __post_init__(self):
        if not 0 < self.k <= self.m <= self.N:
            raise DomainError(
                f"require 0 < k <= m <= N, got ({self.N}, {self.k}, {self.m})"
            )
        if self.u < 0:
            object.__setattr__(self, "u", math.ceil(self.r * self.N))

    @property
    def r(self) -> float:
        return min_group_count(self.N, self.k, self.m)


def random_cover(plan: CoveringPlan) -> tuple[bool, int]:
    """Draw the plan's u uniform m-subsets and test whether every k-subset
    of {0..N-1} is contained in at least one of them.

    Returns (covered, uncovered_count).  Every subset is checked, as a
    bitmask in lexicographic order, so that all uncovered ones are counted;
    guarded at C(N,k) <= 1e7.
    Coverage is monotone in u for a fixed seed: the first u' > u draws
    extend the first u.
    """
    count = math.comb(plan.N, plan.k)
    if count > COVER_CHECK_GUARD:
        raise GuardError(
            f"C({plan.N}, {plan.k}) = {count} subsets exceeds the coverage "
            f"check guard of {COVER_CHECK_GUARD}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    masks = []
    for _ in range(plan.u):
        cols = rng.choice(plan.N, size=plan.m, replace=False)
        mask = 0
        for c in cols:
            mask |= 1 << int(c)
        masks.append(mask)

    uncovered = 0
    from itertools import combinations

    for subset in combinations(range(plan.N), plan.k):
        sub_mask = 0
        for c in subset:
            sub_mask |= 1 << c
        if not any(sub_mask & ~m == 0 for m in masks):
            uncovered += 1
    return uncovered == 0, uncovered


@dataclass(frozen=True)
class CoveringBound:
    """Failure-probability bounds for a covering plan, in log space.

    envelope is the closed-form bound (5/4)(2 pi k (1-k/N))^(-1/2)
    e^(-N(1-ln 2)); intermediate is the union-bound step C(N,k) e^(-u/r)
    it is derived from.  Linear values underflow to 0.0 past e^-745.
    """

    log_envelope: float
    log_intermediate: float

    @property
    def envelope(self) -> float:
        return math.exp(self.log_envelope) if self.log_envelope > -745.0 else 0.0

    @property
    def intermediate(self) -> float:
        v = self.log_intermediate
        return math.exp(v) if v > -745.0 else 0.0


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
