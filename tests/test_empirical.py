import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricbounds import empirical
from ricbounds.empirical import (
    CANDIDATE_POOL,
    IMPROVE_TOL,
    EmpiricalRun,
    MatrixSample,
    _contending_swaps,
    exhaustive_ric,
    gram_extreme_eigs,
    local_search,
    sample_gaussian,
    sharpness_ratio,
)
from ricbounds.errors import DomainError, GuardError


class TestSampling:
    def test_determinism(self):
        a = sample_gaussian(20, 30, 123)
        b = sample_gaussian(20, 30, 123)
        assert np.array_equal(a.entries, b.entries)
        c = sample_gaussian(20, 30, 124)
        assert not np.array_equal(a.entries, c.entries)

    def test_mean_within_envelope(self):
        n = N = 200
        s = sample_gaussian(n, N, 7)
        # Entry sd is 1/sqrt(n); the mean of nN entries has sd 1/(sqrt(n) sqrt(nN)).
        envelope = 4.0 / (math.sqrt(n) * math.sqrt(n * N))
        assert abs(s.entries.mean()) < envelope

    def test_column_norms_near_one(self):
        s = sample_gaussian(200, 100, 11)
        assert np.mean(np.sum(s.entries**2, axis=0)) == pytest.approx(1.0, rel=0.05)

    def test_domain(self):
        for n, N in [(0, 5), (2.5, 10), (5, 10.0), (True, 10)]:
            with pytest.raises(DomainError):
                sample_gaussian(n, N, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["one", "all"])
    def test_non_finite_entries_refused(self, bad, where):
        # On a NaN no swap comparison holds, so a search would never stop:
        # the sample is refused before any search can start.
        entries = sample_gaussian(4, 6, 0).entries.copy()
        if where == "one":
            entries[2, 3] = bad
        else:
            entries[:] = bad
        with pytest.raises(DomainError, match="finite"):
            MatrixSample(4, 6, 0, entries)

    def test_entries_whose_gram_overflows_refused(self):
        # Finite entries, but their Gram blocks would hold inf and NaN.
        entries = sample_gaussian(4, 6, 0).entries * 1e200
        with pytest.raises(DomainError, match="finite"):
            MatrixSample(4, 6, 0, entries)
        assert MatrixSample(4, 6, 0, entries * 1e-50).n == 4

    @pytest.mark.parametrize("shape", [(4, 5), (5, 6), (24,)])
    def test_entries_shape_refused(self, shape):
        with pytest.raises(DomainError, match="finite"):
            MatrixSample(4, 6, 0, np.zeros(shape))

    def test_gram_formed_lazily_once_per_sample(self):
        s = sample_gaussian(8, 12, 3)
        assert "gram" not in vars(s)
        local_search(s, 3, "upper", restarts=2)
        gram = vars(s)["gram"]
        assert np.array_equal(gram, s.entries.T @ s.entries)
        local_search(s, 3, "lower", restarts=2)
        exhaustive_ric(s, 2)
        assert s.gram is gram


class TestGramExtremeEigs:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 3)))
        lo, hi = gram_extreme_eigs(q)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_unit_column(self):
        col = np.array([[1.0], [0.0], [0.0]])
        lo, hi = gram_extreme_eigs(np.hstack([col, col]))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(2.0, abs=1e-12)

    def test_two_column_quadratic_oracle(self):
        cols = np.random.default_rng(5).standard_normal((4, 2))
        a = float(cols[:, 0] @ cols[:, 0])
        c = float(cols[:, 1] @ cols[:, 1])
        b = float(cols[:, 0] @ cols[:, 1])
        disc = math.sqrt((a - c) ** 2 + 4 * b * b)
        lo, hi = gram_extreme_eigs(cols)
        assert lo == pytest.approx((a + c - disc) / 2, abs=1e-10)
        assert hi == pytest.approx((a + c + disc) / 2, abs=1e-10)

    def test_trace_between_extremes(self):
        cols = np.random.default_rng(9).standard_normal((20, 6))
        lo, hi = gram_extreme_eigs(cols)
        trace_mean = float(np.trace(cols.T @ cols)) / 6
        assert lo <= trace_mean <= hi

    def test_scaling_covariance(self):
        cols = np.random.default_rng(13).standard_normal((15, 4))
        lo, hi = gram_extreme_eigs(cols)
        lo2, hi2 = gram_extreme_eigs(3.0 * cols)
        assert lo2 == pytest.approx(9.0 * lo, rel=1e-10)
        assert hi2 == pytest.approx(9.0 * hi, rel=1e-10)

    def test_seventy_columns_match_full_spectrum(self):
        cols = np.random.default_rng(17).standard_normal((120, 70)) / math.sqrt(120)
        lo, hi = gram_extreme_eigs(cols)
        dense = np.linalg.eigvalsh(cols.T @ cols)
        assert hi == pytest.approx(float(dense[-1]), rel=1e-8)
        assert lo == pytest.approx(float(dense[0]), abs=1e-8)

    def test_rank_deficient_min_clamped(self):
        cols = np.random.default_rng(21).standard_normal((3, 5))
        lo, _ = gram_extreme_eigs(cols)
        assert lo == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "cols", [np.zeros((4, 0)), np.full((4, 2), np.nan), np.array([[1.0, np.inf], [0.0, 1.0]])]
    )
    def test_empty_or_non_finite_columns_refused(self, cols):
        with pytest.raises(DomainError):
            gram_extreme_eigs(cols)


class TestExhaustive:
    def test_k_one_matches_column_norms(self):
        s = sample_gaussian(8, 12, 3)
        L, U, _, _ = exhaustive_ric(s, 1)
        norms = np.sum(s.entries**2, axis=0)
        assert U == pytest.approx(float(norms.max()) - 1.0, rel=1e-12)
        assert L == pytest.approx(1.0 - float(norms.min()), rel=1e-12)

    def test_single_support_when_k_equals_N(self):
        s = sample_gaussian(6, 4, 3)
        L, U, arg_hi, arg_lo = exhaustive_ric(s, 4)
        eigs = np.linalg.eigvalsh(s.entries.T @ s.entries)
        assert U == pytest.approx(float(eigs[-1]) - 1.0, rel=1e-12)
        assert arg_hi == arg_lo == (0, 1, 2, 3)

    def test_independent_reimplementation(self):
        # Separate enumeration with closed-form 2x2 eigenvalues.
        s = sample_gaussian(6, 10, 42)
        best_hi, best_lo = -math.inf, math.inf
        for i, j in combinations(range(10), 2):
            a = float(s.entries[:, i] @ s.entries[:, i])
            c = float(s.entries[:, j] @ s.entries[:, j])
            b = float(s.entries[:, i] @ s.entries[:, j])
            disc = math.sqrt((a - c) ** 2 + 4 * b * b)
            best_hi = max(best_hi, (a + c + disc) / 2)
            best_lo = min(best_lo, (a + c - disc) / 2)
        L, U, _, _ = exhaustive_ric(s, 2)
        assert U == pytest.approx(best_hi - 1.0, rel=1e-12)
        assert L == pytest.approx(1.0 - best_lo, rel=1e-12)

    def test_permutation_invariance(self):
        s = sample_gaussian(6, 9, 8)
        perm = np.random.default_rng(1).permutation(9)
        from ricbounds.empirical import MatrixSample

        shuffled = MatrixSample(6, 9, 8, s.entries[:, perm])
        L1, U1, _, _ = exhaustive_ric(s, 2)
        L2, U2, _, _ = exhaustive_ric(shuffled, 2)
        assert U1 == pytest.approx(U2, abs=1e-12)
        assert L1 == pytest.approx(L2, abs=1e-12)

    def test_guard(self):
        s = sample_gaussian(10, 60, 0)
        with pytest.raises(GuardError):
            exhaustive_ric(s, 10)

    def test_guard_on_a_count_past_4300_digits(self):
        with pytest.raises(GuardError, match=r"C\(20000, 10000\) ~ 10\^6018\.4 supports"):
            exhaustive_ric(sample_gaussian(2, 20000, 0), 10000)


class TestGramGuard:
    """The N x N Gram matrix is refused past GRAM_GUARD_BYTES, before it is formed.
    The samples have n = 1, so their entries take 8 N bytes."""

    def test_refuses_past_the_budget(self):
        assert 8 * 16384**2 == empirical.GRAM_GUARD_BYTES
        s = sample_gaussian(1, 16385, 0)
        with pytest.raises(GuardError, match=r"a 16385 x 16385 Gram matrix exceeds the guard of 2147483648 bytes"):
            s.gram
        with pytest.raises(GuardError, match="Gram matrix"):
            local_search(s, 1, "upper", restarts=1)
        # C(10^6, 1) passes the support-count guard; the Gram guard refuses.
        with pytest.raises(GuardError, match="Gram matrix"):
            exhaustive_ric(sample_gaussian(1, 10**6, 0), 1)

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(empirical, "GRAM_GUARD_BYTES", 8 * 10**2)
        assert sample_gaussian(1, 10, 0).gram.shape == (10, 10)
        with pytest.raises(GuardError):
            sample_gaussian(1, 11, 0).gram


def _per_support_exhaustive(sample, k):
    """Exhaustive enumeration with one eigvalsh call per support: the loop
    that the chunked enumeration replaced, kept as an oracle.  lambda_min is
    clamped at 0, as a Gram block is positive semidefinite."""
    best_hi, best_lo, arg_hi, arg_lo = -math.inf, math.inf, (), ()
    for support in combinations(range(sample.N), k):
        idx = np.array(support)
        eigs = np.linalg.eigvalsh(sample.gram[np.ix_(idx, idx)])
        if eigs[-1] > best_hi:
            best_hi, arg_hi = float(eigs[-1]), support
        lo = max(float(eigs[0]), 0.0)
        if lo < best_lo:
            best_lo, arg_lo = lo, support
    return 1.0 - best_lo, best_hi - 1.0, arg_hi, arg_lo


def _tie_sample(n, N, seed):
    """Columns 3 and 7 are one column, correlated with the long column 0,
    so {0, 3} and {0, 7} tie exactly for the greatest lambda_max at k = 2."""
    entries = sample_gaussian(n, N, seed).entries.copy()
    entries[:, 0] *= 3.0
    entries[:, 7] = entries[:, 3] = entries[:, 0] / 3.0 + entries[:, 3]
    return MatrixSample(n, N, seed, entries)


class TestChunkedEigensolve:
    @pytest.mark.parametrize("per", [1, 3, 64, None])
    @pytest.mark.parametrize("n,N,k", [(6, 10, 1), (6, 10, 2), (8, 12, 3), (12, 16, 4), (5, 9, 9)])
    def test_exhaustive_matches_per_support_oracle(self, monkeypatch, per, n, N, k):
        if per is not None:
            monkeypatch.setattr(empirical, "_STACK_BYTES", per * 8 * k * k)
        sample = sample_gaussian(n, N, 7)
        assert exhaustive_ric(sample, k) == _per_support_exhaustive(sample, k)

    @pytest.mark.parametrize("per", [1, 4])
    def test_exhaustive_tie_across_chunks_goes_to_first_support(self, monkeypatch, per):
        sample = _tie_sample(8, 12, 5)
        tied = [np.linalg.eigvalsh(sample.gram[np.ix_(s, s)])[-1] for s in ([0, 3], [0, 7])]
        assert tied[0] == tied[1]
        # (0, 3) and (0, 7) are the 3rd and 7th supports in lexicographic order.
        monkeypatch.setattr(empirical, "_STACK_BYTES", per * 8 * 2 * 2)
        result = exhaustive_ric(sample, 2)
        assert result[2] == (0, 3)
        assert result == _per_support_exhaustive(sample, 2)

    @pytest.mark.parametrize(
        "sample,k,mode",
        [
            (sample_gaussian(40, 120, 1), 5, "upper"),
            (sample_gaussian(40, 120, 1), 5, "lower"),
            (sample_gaussian(100, 200, 2), 10, "lower"),
            (_tie_sample(8, 12, 5), 2, "upper"),
            (_tie_sample(20, 40, 0), 3, "lower"),
        ],
    )
    def test_local_search_under_a_tiny_budget_matches_oracle(self, monkeypatch, sample, k, mode):
        # Three trials to a chunk: the steepest swap is kept across chunks.
        monkeypatch.setattr(empirical, "_STACK_BYTES", 3 * 8 * k * k)
        run = local_search(sample, k, mode, restarts=3, seed=1)
        assert run == _per_swap_search(sample, k, mode, restarts=3, seed=1)

    @staticmethod
    def _stacks_at_k_64(monkeypatch, restarts):
        """Bytes of every eigvalsh stack of a k = 64 lower-mode search."""
        stacks = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a, *args, **kwargs):
            stacks.append(a.nbytes)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        local_search(sample_gaussian(100, 300, 0), 64, "lower", restarts=restarts, seed=0)
        monkeypatch.undo()
        return stacks

    def test_no_stack_exceeds_the_budget_at_k_64(self, monkeypatch):
        stacks = self._stacks_at_k_64(monkeypatch, 1)
        # Far more blocks are solved than one chunk holds.
        assert sum(stacks) > empirical._STACK_BYTES
        assert max(stacks) <= empirical._STACK_BYTES

    def test_no_stack_exceeds_the_budget_at_k_64_over_restarts(self, monkeypatch):
        # Four restarts solve their trials together, still chunk by chunk.
        stacks = self._stacks_at_k_64(monkeypatch, 4)
        assert sum(stacks) > 4 * empirical._STACK_BYTES
        assert max(stacks) <= empirical._STACK_BYTES


class TestLocalSearch:
    def test_never_exceeds_exhaustive(self):
        s = sample_gaussian(6, 10, 4)
        L, U, _, _ = exhaustive_ric(s, 2)
        up = local_search(s, 2, "upper", restarts=5, seed=1)
        lo = local_search(s, 2, "lower", restarts=5, seed=1)
        assert up.estimate <= U + 1e-12
        assert lo.estimate <= L + 1e-12

    def test_attains_exhaustive_with_restarts(self):
        s = sample_gaussian(6, 10, 42)
        L, U, _, _ = exhaustive_ric(s, 2)
        up = local_search(s, 2, "upper", restarts=50, seed=7)
        lo = local_search(s, 2, "lower", restarts=50, seed=7)
        assert up.estimate == pytest.approx(U, abs=1e-9)
        assert lo.estimate == pytest.approx(L, abs=1e-9)

    def test_monotone_in_restarts(self):
        s = sample_gaussian(8, 14, 2)
        e10 = local_search(s, 3, "upper", restarts=10, seed=3).estimate
        e30 = local_search(s, 3, "upper", restarts=30, seed=3).estimate
        assert e30 >= e10 - 1e-15

    def test_run_record_fields(self):
        s = sample_gaussian(6, 10, 1)
        run = local_search(s, 2, "lower", restarts=4, seed=9)
        assert run.mode == "lower"
        assert len(run.best_support) == 2
        assert run.estimate == pytest.approx(1.0 - run.extreme_eig, rel=1e-12)

    def test_mode_validation(self):
        s = sample_gaussian(6, 10, 1)
        with pytest.raises(DomainError):
            local_search(s, 2, "sideways")

    def test_restarts_validation(self):
        s = sample_gaussian(6, 10, 1)
        for restarts in (0, 2.0, True):
            with pytest.raises(DomainError, match="restarts"):
                local_search(s, 2, "upper", restarts=restarts)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_non_integer_k_rejected(self, k):
        s = sample_gaussian(6, 10, 1)
        with pytest.raises(DomainError, match="k must be an integer"):
            local_search(s, k, "upper", restarts=1)
        with pytest.raises(DomainError, match="k must be an integer"):
            exhaustive_ric(s, k)

    def test_one_eigendecomposition_per_visited_support(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        run = local_search(sample_gaussian(100, 300, 0), 20, "upper", restarts=3, seed=0)
        monkeypatch.undo()
        assert run.swaps_taken > 0
        # One stacked eigh per sweep, over the restarts still searching.
        assert all(len(shape) == 3 and shape[1:] == (20, 20) for shape in calls)
        assert sum(shape[0] for shape in calls) == run.restarts + run.swaps_taken

    @pytest.mark.parametrize("seed", [15, 16, 17])
    def test_rank_deficient_lower_mode_clamped(self, seed):
        # A third of the columns are copies of others, so some 5-supports
        # hold a column twice and their lambda_min is 0 up to roundoff.
        entries = sample_gaussian(40, 80, seed).entries.copy()
        rng = np.random.default_rng(seed)
        entries[:, rng.choice(80, size=26, replace=False)] = entries[:, rng.choice(80, size=26)]
        run = local_search(MatrixSample(40, 80, seed, entries), 5, "lower", restarts=4, seed=seed)
        assert run.extreme_eig == 0.0
        assert run.estimate == 1.0

    @pytest.mark.parametrize("seed", [1, 5, 8])
    def test_exhaustive_rank_deficient_min_clamped(self, seed):
        # Supports holding both 3 and 7 are singular; roundoff puts their
        # lambda_min on either side of 0.
        entries = sample_gaussian(6, 10, seed).entries.copy()
        entries[:, 7] = entries[:, 3]
        assert exhaustive_ric(MatrixSample(6, 10, seed, entries), 3)[0] == 1.0

    @pytest.mark.parametrize("seed", [-1, 1.0, "1", True])
    def test_seed_validation(self, seed):
        with pytest.raises(DomainError, match="seed"):
            sample_gaussian(5, 10, seed)
        with pytest.raises(DomainError, match="seed"):
            local_search(sample_gaussian(5, 10, 1), 2, "upper", restarts=1, seed=seed)
        assert sample_gaussian(5, 10, np.int64(3)).seed == 3


def _per_swap_restarts(sample, k, mode, restarts, seed):
    """Each restart's final (value, support, swaps), from a local search run
    restart after restart with one eigvalsh call per trial swap: the loops
    that the lockstep, stacked sweep replaced, kept as an oracle.  eigh
    rounds differently on rank-deficient blocks than eigvalsh."""
    sign = 1.0 if mode == "upper" else -1.0
    i = -1 if mode == "upper" else 0
    A = sample.entries
    gram_full = A.T @ A
    N = sample.N

    # Values are clamped at 0, as a Gram block is positive semidefinite.
    def objective(support):
        vals, vecs = np.linalg.eigh(gram_full[np.ix_(support, support)])
        return max(float(vals[i]), 0.0), vecs[:, i]

    finals = []
    for stream in np.random.SeedSequence(seed).spawn(restarts):
        swaps = 0
        rng = np.random.default_rng(stream)
        support = np.sort(rng.choice(N, size=k, replace=False))
        val, vec = objective(support)
        while True:
            in_set = np.zeros(N, dtype=bool)
            in_set[support] = True
            out_cols = np.flatnonzero(~in_set)
            scores = np.abs(A[:, out_cols].T @ (A[:, support] @ vec))
            # Descending score; an exact tie goes to the lower column.
            candidates = out_cols[np.argsort(-scores, kind="stable")[:CANDIDATE_POOL]]
            step_val, step_support = val, None
            for j in candidates:
                for pos in range(k):
                    trial = support.copy()
                    trial[pos] = j
                    t_val = max(float(np.linalg.eigvalsh(gram_full[np.ix_(trial, trial)])[i]), 0.0)
                    if sign * (t_val - step_val) > 0.0:
                        step_val, step_support = t_val, trial
            if step_support is None or sign * (step_val - val) <= IMPROVE_TOL:
                break
            support = np.sort(step_support)
            val, vec = objective(support)
            swaps += 1
        finals.append((val, tuple(int(c) for c in support), swaps))
    return finals


def _per_swap_search(sample, k, mode, restarts, seed):
    """The oracle's run: the first restart to attain the best signed value."""
    finals = _per_swap_restarts(sample, k, mode, restarts, seed)
    sign = 1.0 if mode == "upper" else -1.0
    best_val, best_support, _ = max(finals, key=lambda f: sign * f[0])
    return EmpiricalRun(
        n=sample.n,
        N=sample.N,
        k=k,
        seed=seed,
        mode=mode,
        best_support=best_support,
        extreme_eig=best_val,
        estimate=best_val - 1.0 if mode == "upper" else 1.0 - best_val,
        restarts=restarts,
        swaps_taken=sum(f[2] for f in finals),
    )


class TestStackedSweep:
    @pytest.mark.parametrize(
        "n,N,k",
        [
            (6, 10, 2),
            (8, 12, 3),
            (100, 300, 4),
            (40, 120, 5),
            (100, 500, 10),
            (100, 300, 20),
            (100, 1000, 5),
            (100, 1000, 10),
        ],
    )
    @pytest.mark.parametrize("mode", ["upper", "lower"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_swap_oracle(self, n, N, k, mode, seed):
        sample = sample_gaussian(n, N, seed)
        run = local_search(sample, k, mode, restarts=2, seed=seed)
        assert run == _per_swap_search(sample, k, mode, restarts=2, seed=seed)

    @pytest.mark.parametrize("n,N,k,restarts", [(40, 120, 5, 30), (100, 500, 10, 7)])
    @pytest.mark.parametrize("mode", ["upper", "lower"])
    def test_restarts_stopping_at_different_sweeps_match_oracle(
        self, monkeypatch, n, N, k, restarts, mode
    ):
        live = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            live.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        sample = sample_gaussian(n, N, 1)
        run = local_search(sample, k, mode, restarts=restarts, seed=1)
        monkeypatch.undo()
        # Every restart starts in one batch, which shrinks as they stop.
        assert live[0] == restarts
        assert len(set(live)) > 2
        assert run == _per_swap_search(sample, k, mode, restarts=restarts, seed=1)

    @pytest.mark.parametrize("restarts,seed", [(7, 1), (30, 0)])
    def test_exact_tie_across_restarts_goes_to_the_first(self, restarts, seed):
        # Restarts end on {0, 3} and on {0, 7}, whose lambda_max tie exactly:
        # the first restart in restart order to attain the best value wins.
        sample = _tie_sample(8, 12, 5)
        finals = _per_swap_restarts(sample, 2, "upper", restarts, seed)
        best = max(v for v, _, _ in finals)
        tied = [support for v, support, _ in finals if v == best]
        assert set(tied) == {(0, 3), (0, 7)}
        run = local_search(sample, 2, "upper", restarts=restarts, seed=seed)
        assert run.best_support == tied[0]
        assert run == _per_swap_search(sample, 2, "upper", restarts=restarts, seed=seed)

    def test_exact_tie_goes_to_first_maximum(self):
        sample = _tie_sample(8, 12, 5)
        run = local_search(sample, 2, "upper", restarts=4, seed=0)
        assert len({3, 7} & set(run.best_support)) == 1
        assert run == _per_swap_search(sample, 2, "upper", restarts=4, seed=0)

    def test_exact_tie_goes_to_first_maximum_through_pruning(self, monkeypatch):
        # As above at k = 3, where swaps are pruned: columns 3 and 7 are one
        # column, so trials placing either at one position tie exactly.  In
        # this search a pruned sweep takes such a tie as its steepest swap,
        # and the last maximum would lead elsewhere.
        sample = _tie_sample(20, 40, 0)
        kept, solved = [], []
        eigvalsh, contending = np.linalg.eigvalsh, empirical._contending_swaps

        def recorded_filter(*args):
            keep = contending(*args)
            kept.append(keep)
            return keep

        def recorded(a, *args, **kwargs):
            vals = eigvalsh(a, *args, **kwargs)
            solved.append(vals[:, 0])
            return vals

        monkeypatch.setattr(empirical, "_contending_swaps", recorded_filter)
        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        run = local_search(sample, 3, "lower", restarts=4, seed=1)
        monkeypatch.undo()
        assert run == _per_swap_search(sample, 3, "lower", restarts=4, seed=1)
        # One stack per sweep holds every restart's kept trials in turn;
        # restart i's segment is its rows of the stack.
        kept = [keep for keep in kept if keep.any()]
        assert len(kept) == len(solved)
        segments = [
            v[np.nonzero(keep)[0] == i] for keep, v in zip(kept, solved) for i in range(len(keep))
        ]
        assert any(
            0 < len(v) < CANDIDATE_POOL * 3 and np.count_nonzero(v == v.min()) > 1
            for v in segments
        )

    @pytest.mark.parametrize("n,N,k", [(100, 200, 5), (100, 500, 10), (100, 300, 20)])
    @pytest.mark.parametrize("mode", ["upper", "lower"])
    def test_pruned_sweep_solves_few_trials(self, monkeypatch, n, N, k, mode):
        counts, live = [], []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def counted_eigh(a, *args, **kwargs):
            live.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        def counted(a, *args, **kwargs):
            # The sweep's eigh came first and holds its live restarts.
            counts.append((a.shape[0], live[-1]))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        run = local_search(sample_gaussian(n, N, 3), k, mode, restarts=3, seed=3)
        monkeypatch.undo()
        sweeps = run.swaps_taken + run.restarts
        pool = CANDIDATE_POOL * k
        assert len(counts) <= sweeps
        assert all(1 <= c <= r * pool for c, r in counts)
        assert sum(c for c, _ in counts) <= sweeps * pool // 16


def _trial_values(gram, support, candidates, mode):
    """LAPACK's extreme eigenvalue of every trial, as a (C, k) array."""
    k = len(support)
    trials = np.tile(support, (len(candidates), k, 1))
    trials[:, np.arange(k), np.arange(k)] = candidates[:, None]
    vals = np.linalg.eigvalsh(gram[trials[..., :, None], trials[..., None, :]])
    return vals[..., -1 if mode == "upper" else 0]


@st.composite
def _filter_cases(draw):
    kind = draw(st.sampled_from(["gaussian", "duplicated", "orthonormal", "scaled"]))
    k = draw(st.integers(3, 12))
    N = draw(st.integers(k + 1, k + 40))
    n = N if kind == "orthonormal" else draw(st.integers(k, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.standard_normal((n, N)) / math.sqrt(n)
    if kind == "orthonormal":
        entries = np.linalg.qr(entries)[0]
    elif kind == "duplicated":
        src = rng.choice(N, size=N // 2)
        entries[:, rng.choice(N, size=N // 2, replace=False)] = entries[:, src]
    elif kind == "scaled":
        entries *= 10.0 ** rng.choice([-6.0, 0.0, 6.0], size=N)
    order = rng.permutation(N)
    support = np.sort(order[:k])
    candidates = order[k : k + CANDIDATE_POOL]
    mode = draw(st.sampled_from(["upper", "lower"]))
    # Where the target lies: 0 and 1 are the least and greatest trial value.
    level = draw(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-12, 1.5, 3.0]))
    return entries.T @ entries, support, candidates, mode, level


def _equicorrelated(rho, eps, seed):
    """Gram matrix of 35 columns: 0-3 are unit columns with correlations rho,
    3 then lengthened by a factor sqrt(1 + eps); 4-34 are shorter, orthogonal
    to each other and to the rest.  Orthonormal directions are drawn from the
    seed."""
    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((36, 36)))[0]
    entries = np.hstack([
        math.sqrt(rho) * basis[:, :1] + math.sqrt(1.0 - rho) * basis[:, 1:5],
        0.5 * basis[:, 5:],
    ])
    entries[:, 3] *= math.sqrt(1.0 + eps)
    return entries.T @ entries


def _filter(gram, support, candidates, sign, target):
    """_contending_swaps for one restart, on its support's own
    eigendecomposition: the flat indices c*k + p of the kept trials."""
    lam, Q = np.linalg.eigh(gram[np.ix_(support, support)])
    keep = _contending_swaps(
        gram, support[None], candidates[None], sign, np.array([target]), lam[None], Q[None]
    )
    return np.flatnonzero(keep)


class TestContendingSwaps:
    @given(_filter_cases())
    @settings(max_examples=300, deadline=None)
    def test_keeps_every_trial_that_reaches_the_floor(self, case):
        # The filter carries its rounding margin, so this holds with no slack.
        gram, support, candidates, mode, level = case
        sign = 1.0 if mode == "upper" else -1.0
        values = sign * _trial_values(gram, support, candidates, mode).ravel()
        low, high = values.min(), values.max()
        target = low + level * (high - low) + max(level - 1.0, 0.0) * abs(high)
        kept = _filter(gram, support, candidates, sign, target)
        if len(candidates) * len(support) ** 2 <= 256:
            assert np.array_equal(kept, np.arange(len(values)))
            return
        winners = np.flatnonzero(values >= max(target, high))
        assert np.all(np.isin(winners, kept))

    @given(_filter_cases(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    @settings(max_examples=100, deadline=None)
    def test_each_restart_of_a_call_keeps_its_winners(self, case, seed, level2):
        # A second restart on the same matrix, with its own support,
        # candidates and target, shares the filter call with the first.
        gram, support, candidates, mode, level = case
        sign = 1.0 if mode == "upper" else -1.0
        order = np.random.default_rng(seed).permutation(len(gram))
        k, C = len(support), len(candidates)
        rows = [(support, candidates, level), (np.sort(order[:k]), order[k : k + C], level2)]
        values, targets = [], []
        for sup, cand, lev in rows:
            v = sign * _trial_values(gram, sup, cand, mode).ravel()
            values.append(v)
            targets.append(v.min() + lev * (v.max() - v.min()) + max(lev - 1.0, 0.0) * abs(v.max()))
        supports = np.array([sup for sup, _, _ in rows])
        lam, Q = np.linalg.eigh(gram[supports[:, :, None], supports[:, None, :]])
        keep = _contending_swaps(
            gram, supports, np.array([cand for _, cand, _ in rows]), sign, np.array(targets), lam, Q
        )
        for kept, v, target in zip(keep, values, targets):
            winners = np.flatnonzero(v >= max(target, v.max()))
            assert np.all(np.isin(winners, np.flatnonzero(kept)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_trial_is_kept_below_three_columns(self, k):
        # Lower mode: every signed trial value is <= 0, so none reaches 1.
        gram = sample_gaussian(10, 20, 1).gram
        kept = _filter(gram, np.arange(k), np.arange(6, 20), -1.0, 1.0)
        assert np.array_equal(kept, np.arange(14 * k))

    @pytest.mark.parametrize(
        "k,C,solved",
        [(2, 32, 64), (3, 14, 42), (3, 28, 84), (3, 29, 0), (4, 8, 32), (4, 16, 64), (4, 17, 0)],
    )
    def test_small_trial_stacks_skip_the_filter(self, k, C, solved):
        # No trial reaches the target 1, so only a skipped filter keeps any.
        gram = sample_gaussian(10, 40, 1).gram
        kept = _filter(gram, np.arange(k), np.arange(k, k + C), -1.0, 1.0)
        assert len(kept) == solved

    @pytest.mark.parametrize("restarts,solved", [(1, 64), (2, 128), (3, 0)])
    def test_skip_rule_counts_the_trials_of_every_restart(self, restarts, solved):
        # k = 2, C = 32: the trials of one or two restarts are solved whole,
        # those of three are filtered, and none reaches the target 1.
        gram = sample_gaussian(10, 40, 1).gram
        lam, Q = np.linalg.eigh(gram[:2, :2])
        keep = _contending_swaps(
            gram,
            np.tile(np.arange(2), (restarts, 1)),
            np.tile(np.arange(2, 34), (restarts, 1)),
            -1.0,
            np.ones(restarts),
            np.tile(lam, (restarts, 1)),
            np.tile(Q, (restarts, 1, 1)),
        )
        assert np.count_nonzero(keep) == solved

    def test_one_column_supports_keep_the_trials_that_reach_the_target(self):
        # At k = 1 no w_p is nonzero, so there is no Ritz value and x is the
        # target less the margin.  Nine restarts hold 9*32 > 256 trials, so
        # the filter runs, and a trial's value is its candidate's d_c.  The
        # targets lie above each support's own value, as in a search.
        gram = sample_gaussian(10, 41, 1).gram
        diag = np.diagonal(gram)
        supports, candidates = np.arange(9)[:, None], np.tile(np.arange(9, 41), (9, 1))
        lam, Q = np.linalg.eigh(gram[supports[:, :, None], supports[:, None, :]])
        target = np.maximum(np.median(diag[9:]), diag[:9] + IMPROVE_TOL)
        assert np.min(np.abs(diag[9:] - target[:, None])) > 1e-6
        keep = _contending_swaps(gram, supports, candidates, 1.0, target, lam, Q)
        assert np.array_equal(keep[..., 0], diag[9:] >= target[:, None])
        assert 0 < np.count_nonzero(keep) < keep.size

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("eps", [1e-8, 1e-7])
    def test_winner_just_above_the_support_is_kept(self, rho, eps):
        # Column 3 at any position of the support {0, 1, 2} gains about
        # eps/3 in lambda_max, so x lies that close above the support's own
        # lambda_max.  There a_c and R_pc^2 / mm_p grow like rho/eps and
        # cancel, and their rounding errors outgrow the margin: with the drop
        # rule f > 0 some of these winners are dropped.
        support, candidates = np.arange(3), np.arange(3, 35)
        for seed in range(5):
            gram = _equicorrelated(rho, eps, seed)
            values = _trial_values(gram, support, candidates, "upper").ravel()
            lam_max = np.linalg.eigvalsh(gram[:3, :3])[-1]
            assert lam_max + IMPROVE_TOL < values.max() < lam_max + eps
            kept = _filter(gram, support, candidates, 1.0, lam_max + IMPROVE_TOL)
            assert np.all(np.isin(np.flatnonzero(values == values.max()), kept))

    def test_support_at_the_threshold_keeps_every_trial(self):
        # Column 0 dominates, so the best trials keep it and lie within the
        # margin of the support's own lambda_max: the test point x falls at
        # or below it and the filter returns every trial, even those that
        # swap column 0 out and lie some 1e12 below.
        entries = sample_gaussian(10, 40, 1).entries.copy()
        entries[:, 0] *= 1e6
        gram, support, candidates = entries.T @ entries, np.arange(4), np.arange(4, 36)
        values = _trial_values(gram, support, candidates, "upper").ravel()
        lam_max = np.linalg.eigvalsh(gram[:4, :4])[-1]
        assert values.min() < 1e-6 * lam_max
        kept = _filter(gram, support, candidates, 1.0, lam_max + IMPROVE_TOL)
        assert np.array_equal(kept, np.arange(len(values)))


class TestSharpness:
    def test_ratios_at_least_one_on_seeded_instance(self):
        ratio_u, ratio_l = sharpness_ratio(4, 40, 80, seed=3, restarts=20)
        assert ratio_u >= 1.0
        assert ratio_l >= 1.0

    def test_size_validation(self):
        with pytest.raises(DomainError):
            sharpness_ratio(10, 5, 50)
