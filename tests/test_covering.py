import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ricbounds.covering import (
    CoveringPlan,
    covering_bound,
    min_group_count,
    random_cover,
)
from ricbounds.errors import DomainError, GuardError
from ricbounds.finite import log_covering_failure_bound


class TestMinGroupCount:
    def test_m_equals_k(self):
        assert min_group_count(10, 3, 3) == math.comb(10, 3)

    def test_m_equals_N(self):
        assert min_group_count(10, 3, 10) == 1.0

    def test_exact_small_case(self):
        assert min_group_count(10, 3, 5) == pytest.approx(12.0, rel=1e-15)

    def test_log_space_path_matches_exact(self):
        # C(N,k) exceeds 2^63; the integer quotient is still rounded once.
        N, k, m = 300, 40, 80
        assert min_group_count(N, k, m) == math.comb(N, k) / math.comb(m, k)

    def test_beyond_double_range_is_a_guard_error(self):
        with pytest.raises(GuardError):
            min_group_count(8000, 400, 800)

    def test_domain(self):
        with pytest.raises(DomainError):
            min_group_count(10, 5, 4)

    @pytest.mark.parametrize("args", [(12.0, 3, 6), (12, True, 6), (12, 3, 6.0)])
    def test_non_integer_counts_rejected(self, args):
        # A float once reached math.comb as an untyped TypeError, and a bool
        # was taken as 1.
        with pytest.raises(DomainError, match="must be an integer"):
            min_group_count(*args)

    def test_numpy_integers_accepted(self):
        assert min_group_count(np.int64(12), np.int32(3), np.uint8(6)) == 11.0


class TestPlan:
    def test_default_u(self):
        plan = CoveringPlan(N=12, k=3, m=6, seed=0)
        assert plan.u == math.ceil(plan.r * plan.N)
        assert plan.r == pytest.approx(math.comb(12, 3) / math.comb(6, 3), rel=1e-15)

    def test_explicit_u_kept(self):
        assert CoveringPlan(N=12, k=3, m=6, seed=0, u=7).u == 7

    def test_negative_u_rejected(self):
        with pytest.raises(DomainError):
            CoveringPlan(N=12, k=3, m=6, seed=0, u=-5)

    @pytest.mark.parametrize("plan", [dict(N=12.0, k=3, m=6), dict(N=12, k=3.0, m=6),
                                      dict(N=12, k=3, m=True), dict(N=12, k=3, m=6, u=2.5)])
    def test_non_integer_counts_rejected(self, plan):
        with pytest.raises(DomainError, match="must be an integer"):
            CoveringPlan(**plan)

    @pytest.mark.parametrize("seed", [-1, 1.0, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            CoveringPlan(N=12, k=3, m=6, seed=seed)


def test_import_loads_no_empirical():
    # covering needs the integer-input rule and the failure bound, not the
    # Gaussian sampler or local search.
    probe = "import sys, ricbounds.covering; print('ricbounds.empirical' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def _oracle_uncovered(plan: CoveringPlan) -> int:
    """The k-subsets of {0..N-1} in none of the plan's draws, by set
    containment over the same rng.choice sequence random_cover draws."""
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    draws = [set(rng.choice(plan.N, size=plan.m, replace=False).tolist()) for _ in range(plan.u)]
    return sum(
        1
        for subset in combinations(range(plan.N), plan.k)
        if not any(set(subset) <= draw for draw in draws)
    )


class TestRandomCover:
    @pytest.mark.parametrize("N,k,m", [
        (6, 2, 3), (7, 3, 7), (8, 3, 5), (9, 3, 3), (10, 2, 4), (12, 3, 6), (14, 4, 7),
    ])
    @pytest.mark.parametrize("u_kind", ["default", "zero", "ceil_r"])
    def test_uncovered_count_matches_set_oracle(self, N, k, m, u_kind):
        u = {"default": None, "zero": 0, "ceil_r": math.ceil(min_group_count(N, k, m))}[u_kind]
        for seed in range(5):
            plan = CoveringPlan(N=N, k=k, m=m, seed=seed, u=u)
            expected = _oracle_uncovered(plan)
            assert random_cover(plan) == (expected == 0, expected)

    def test_universe_superset_always_covers(self):
        covered, uncovered = random_cover(CoveringPlan(N=8, k=2, m=8, seed=5, u=1))
        assert covered and uncovered == 0

    def test_zero_draws_cover_nothing(self):
        covered, uncovered = random_cover(CoveringPlan(N=8, k=2, m=4, seed=5, u=0))
        assert not covered
        assert uncovered == math.comb(8, 2)

    def test_monotone_in_u_for_fixed_seed(self):
        base = CoveringPlan(N=10, k=2, m=4, seed=3, u=25)
        more = CoveringPlan(N=10, k=2, m=4, seed=3, u=40)
        _, unc_base = random_cover(base)
        _, unc_more = random_cover(more)
        assert unc_more <= unc_base

    def test_guard(self):
        with pytest.raises(GuardError):
            random_cover(CoveringPlan(N=80, k=10, m=20, seed=0, u=1))

    def test_failure_frequency_below_intermediate_bound(self):
        trials = 200
        plan0 = CoveringPlan(N=12, k=3, m=6, seed=0)
        failures = 0
        for t in range(trials):
            covered, _ = random_cover(CoveringPlan(N=12, k=3, m=6, seed=t))
            failures += not covered
        bound = min(1.0, covering_bound(plan0).intermediate)
        se = math.sqrt(bound * (1 - bound) / trials)
        assert failures / trials <= bound + 3 * se + 1e-12

    def test_element_frequency_uniform(self):
        rng_seed = 77
        plan = CoveringPlan(N=10, k=2, m=4, seed=rng_seed, u=500)
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
        counts = np.zeros(10)
        for _ in range(plan.u):
            cols = rng.choice(10, size=4, replace=False)
            counts[cols] += 1
        p = 4 / 10
        se = math.sqrt(p * (1 - p) * plan.u)
        assert np.all(np.abs(counts - p * plan.u) <= 3 * se)


class TestCoveringBound:
    def test_cross_module_consistency(self):
        plan = CoveringPlan(N=2000, k=100, m=200, seed=0)
        cb = covering_bound(plan)
        assert cb.log_envelope == pytest.approx(log_covering_failure_bound(100, 2000), rel=1e-14)

    def test_direct_evaluation_small(self):
        plan = CoveringPlan(N=12, k=3, m=6, seed=0)
        cb = covering_bound(plan)
        expected_env = 1.25 / math.sqrt(2 * math.pi * 3 * (1 - 3 / 12)) * math.exp(
            -12 * (1 - math.log(2))
        )
        assert cb.envelope == pytest.approx(expected_env, rel=1e-12)
        expected_inter = math.comb(12, 3) * math.exp(-plan.u / plan.r)
        assert cb.intermediate == pytest.approx(expected_inter, rel=1e-10)

    def test_monotone_decreasing_in_N(self):
        b1 = covering_bound(CoveringPlan(N=20, k=4, m=8, seed=0)).log_envelope
        b2 = covering_bound(CoveringPlan(N=40, k=8, m=16, seed=0)).log_envelope
        assert b2 < b1

    def test_doubling_u_roughly_doubles_log_rate(self):
        plan = CoveringPlan(N=12, k=3, m=6, seed=0)
        single = covering_bound(plan)
        doubled = covering_bound(CoveringPlan(N=12, k=3, m=6, seed=0, u=2 * plan.u))
        log_comb = math.log(math.comb(12, 3))
        assert doubled.log_intermediate - log_comb == pytest.approx(
            2 * (single.log_intermediate - log_comb), rel=1e-6
        )
