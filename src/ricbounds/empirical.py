"""Empirical RIC estimation on sampled Gaussian matrices.

Exact values by exhaustive support enumeration at tiny sizes, and greedy
local-search lower bounds on U and L at moderate sizes.  Any single
support gives a one-sided certificate: lambda^max(A_K* A_K) - 1 never
exceeds U and 1 - lambda^min never exceeds L, so search only ever
under-reports the true constants.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from . import asymptotic
from .errors import DomainError, GuardError, check_count

__all__ = [
    "MatrixSample",
    "EmpiricalRun",
    "sample_gaussian",
    "gram_extreme_eigs",
    "exhaustive_ric",
    "local_search",
    "sharpness_ratio",
]

EXHAUSTIVE_GUARD = 1_000_000
# Largest N x N Gram matrix, in bytes, that a sample may form: N <= 16384.
GRAM_GUARD_BYTES = 2**31
# Candidate pruning width for the swap neighborhood.
CANDIDATE_POOL = 32
IMPROVE_TOL = 1e-9
# Rounding margin of the swap filter, relative to trial-block norms and test terms.
_MARGIN = 1e-12
# Bytes of stacked Gram blocks that one eigvalsh call may take.
_STACK_BYTES = 1 << 22


@dataclass(frozen=True)
class MatrixSample:
    """An n x N Gaussian matrix with i.i.d. N(0, 1/n) entries.

    The variance convention makes the expected squared column norm 1.
    Entries are reproducible: the seed feeds numpy's SeedSequence, so the
    same seed yields a bit-identical matrix.  Entries must form an n x N
    array whose squared norm, a bound on every Gram block, is finite.
    """

    n: int
    N: int
    seed: int
    entries: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):
            if np.shape(self.entries) != (self.n, self.N) or not np.isfinite(np.vdot(self.entries, self.entries)):
                raise DomainError(f"entries must be a finite ({self.n}, {self.N}) array")

    @cached_property
    def gram(self) -> np.ndarray:
        """The N x N Gram matrix, formed on first use and kept with the sample;
        GuardError where its 8 N^2 bytes would exceed GRAM_GUARD_BYTES."""
        if 8 * self.N**2 > GRAM_GUARD_BYTES:
            raise GuardError(f"a {self.N} x {self.N} Gram matrix exceeds the guard of {GRAM_GUARD_BYTES} bytes")
        return self.entries.T @ self.entries


class EmpiricalRun(namedtuple("EmpiricalRun", (
        "n", "N", "k", "seed", "mode", "best_support", "extreme_eig", "estimate", "restarts", "swaps_taken"))):
    """Result of one local-search estimate (best over all restarts)."""

    __slots__ = ()


def sample_gaussian(n: int, N: int, seed: int) -> MatrixSample:
    """Draw an n x N matrix of i.i.d. N(0, 1/n) entries.

    Generator: numpy default_rng (PCG64) seeded through SeedSequence, with
    the standard normal transform.  Fixed here so sampled matrices are
    stable across the package.
    """
    check_count("n", n, 1)
    check_count("N", N, 1)
    check_count("seed", seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    entries = rng.standard_normal((n, N)) / math.sqrt(n)
    return MatrixSample(n=n, N=N, seed=seed, entries=entries)


def gram_extreme_eigs(columns: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of the Gram matrix of the given columns.

    Full symmetric decomposition.  With more columns than rows the Gram
    matrix is rank deficient and lambda_min is 0 up to roundoff; negative
    roundoff is clamped.
    """
    columns = np.asarray(columns, dtype=float)
    if columns.ndim != 2 or columns.shape[1] == 0 or not np.isfinite(columns).all():
        raise DomainError("columns must be a finite 2-d array with at least one column")
    eigs = np.linalg.eigvalsh(columns.T @ columns)
    return max(float(eigs[0]), 0.0), float(eigs[-1])


def exhaustive_ric(
    sample: MatrixSample, k: int
) -> tuple[float, float, tuple[int, ...], tuple[int, ...]]:
    """Exact (L, U) by enumerating every k-column support.

    Returns (L, U, argmax_support, argmin_support): the first supports in
    lexicographic order to attain lambda^max and lambda^min, solved in
    chunks by `_first_extremes`.  Guarded: refuses when C(N, k) exceeds 1e6.
    """
    check_count("k", k)
    if not 0 < k <= sample.N:
        raise DomainError(f"k must be in [1, N], got {k}")
    count = math.comb(sample.N, k)
    if count > EXHAUSTIVE_GUARD:
        raise GuardError(
            f"C({sample.N}, {k}) ~ 10^{math.log10(count):.1f} supports exceeds the "
            f"exhaustive guard of {EXHAUSTIVE_GUARD}"
        )
    (lo, arg_lo), (hi, arg_hi) = _first_extremes(sample.gram, combinations(range(sample.N), k), k)
    return 1.0 - lo, hi - 1.0, tuple(map(int, arg_hi)), tuple(map(int, arg_lo))


def _solved_chunks(gram_full: np.ndarray, supports, k: int):
    """(chunk, eigvalsh of its Gram blocks) over the k-supports (array rows or
    any iterable), in chunks of at most _STACK_BYTES: chunks change no value."""
    per = max(1, _STACK_BYTES // (8 * k * k))
    if isinstance(supports, np.ndarray):
        chunks = (supports[i : i + per] for i in range(0, len(supports), per))
    else:
        supports = iter(supports)
        chunks = map(np.array, iter(lambda: list(islice(supports, per)), []))
    for chunk in chunks:
        yield chunk, np.linalg.eigvalsh(gram_full[chunk[:, :, None], chunk[:, None, :]])


def _first_extremes(gram_full: np.ndarray, supports, k: int):
    """((lo, arg_lo), (hi, arg_hi)): least lambda_min and greatest lambda_max
    over the Gram blocks of the k-supports (array rows or any iterable), each
    with the first support attaining it; lambda_min is clamped at 0, as Gram
    blocks are positive semidefinite.
    """
    lo, hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
    for chunk, eigs in _solved_chunks(gram_full, supports, k):
        low = np.maximum(eigs[:, 0], 0.0)
        i, j = int(np.argmin(low)), int(np.argmax(eigs[:, -1]))
        if low[i] < lo:
            lo, arg_lo = float(low[i]), chunk[i]
        if eigs[j, -1] > hi:
            hi, arg_hi = float(eigs[j, -1]), chunk[j]
    return (lo, arg_lo), (hi, arg_hi)


def _contending_swaps(
    gram_full: np.ndarray,
    supports: np.ndarray,
    candidates: np.ndarray,
    sign: float,
    target: np.ndarray,
    lam: np.ndarray,
    Q: np.ndarray,
) -> np.ndarray:
    """An (r, C, k) mask of the trials that can still be the steepest swap
    of their restart.  Row i of every argument is restart i's: supports
    (r, k), candidates (r, C), target (r,) and lam, Q = eigh(G_S), (r, k) and
    (r, k, k), with G_S = G[S, S].  Trial (i, c, p) puts candidates[i, c] at
    position p of supports[i]; s*value (s = sign) is its signed extreme
    eigenvalue.  A trial is dropped only if it cannot reach max(target,
    every trial's s*value) of its restart.

    Up to a permutation the trial block is T = [[B, g], [g', d]], with B =
    G_S less row and column p, g = G[S-p, c] and d = G[c, c].  For x > max
    s*lam, M = x*I - s*G_S is positive definite, hence so is its principal
    block M_-p (Cauchy interlacing), and by the Schur complement s*value >= x
    exactly when f = x - s*d - g'M_-p^-1 g <= 0 (Golub, SIAM Review 15,
    1973).  The embedded inverse of M_-p, M^-1 - M^-1 e_p e_p'M^-1 / M^-1_pp,
    sends e_p to 0, so with D = 1/(x - s*lam), W = Q'G[S, C], a = sum D*W^2,
    R = Q(D*W) and mm = (Q*Q)D: f = x - s*d_c - a_c + R_pc^2 / mm_p.  Where
    x <= max s*lam, every trial of the restart is returned.

    x = max(target, max s*Ritz - m) - m, with Ritz the value of T on
    span{(w_p, 0), (0, 1)}, w_p the extreme eigenvector with entry p zeroed:
    a Rayleigh quotient of T, so the best trial reaches it.  w_p'G_S w_p and
    w_p'g are formed from w_p itself, free of cancellation against v'G_S v;
    a w_p that is 0 gives no Ritz value (at k = 1 none does, and x = target
    - m).  m = 1e-12 * (sum lam + max d), sum lam = trace G_S, bounds the
    norm of every trial block (Gram blocks are positive semidefinite).
    eigh's lam and Q, and LAPACK's trial values, are exact for blocks a few
    k*eps*|T| away, which moves each root by far less than m (Weyl), so a
    trial whose LAPACK value reaches x + m has f <= 0 there.  Evaluating f
    adds a few k*eps of its terms' magnitudes, so a trial is dropped only
    where f > 1e-12 * (|x| + d_c + a_c + R_pc^2 / mm_p).  Where r*C*k*k <=
    256 (k <= 2 at C <= 32 for two restarts) all trials are returned: the
    filter's cost hardly grows with r, and that few small blocks cost less.
    """
    r, k = supports.shape
    C = candidates.shape[1]
    if r * C * k * k <= 256:
        return np.ones((r, C, k), dtype=bool)
    ext = -1 if sign > 0 else 0
    diag = gram_full.diagonal()
    d = diag[candidates][..., None]
    g = gram_full[candidates[:, :, None], supports[:, None, :]]
    Qt = Q.transpose(0, 2, 1)
    # Column p of w is the extreme eigenvector with entry p zeroed.
    w = np.where(np.eye(k, dtype=bool), 0.0, Q[:, :, ext, None])
    ww = np.einsum("rip,rip->rp", w, w)[:, None, :]
    wgw = np.einsum("rip,rip->rp", w, gram_full[supports[:, :, None], supports[:, None, :]] @ w)
    with np.errstate(divide="ignore", invalid="ignore"):
        # A zero w_p makes its Ritz values NaN, which fmax passes over; a
        # restart at its fallback gets inf and NaN terms, which it ignores.
        alpha = wgw[:, None, :] / ww
        # Twice s*Ritz: s*(alpha + d) + hypot(alpha - d, 2*beta), beta = w_p'g / |w_p|.
        ritz2 = sign * (alpha + d) + np.hypot(alpha - d, 2.0 * (g @ w) / np.sqrt(ww))
        margin = _MARGIN * (lam.sum(axis=1) + d.max(axis=(1, 2)))
        x = np.fmax(target, 0.5 * np.fmax.reduce(ritz2, axis=(1, 2)) - margin) - margin
        fallback = x <= sign * lam[:, ext]
        x = x[:, None, None]
        D = 1.0 / (x - sign * lam[:, None, :])
        W = g @ Q
        DW = W * D
        a = np.einsum("rcj,rcj->rc", W, DW)[..., None]
        r2 = (DW @ Qt) ** 2 / (D @ (Qt * Qt))
        f = x - sign * d - a + r2
        return (f <= _MARGIN * (abs(x) + d + a + r2)) | fallback[:, None, None]


def local_search(
    sample: MatrixSample,
    k: int,
    mode: str,
    restarts: int = 100,
    seed: int = 0,
) -> EmpiricalRun:
    """Greedy single-swap search for an extremal k-support.

    Per restart, starting from a uniform random support: score every
    out-column by |correlation with the image of the current extreme
    eigenvector| (one product A'(A_S v)), take the best 32 (an exact tie goes
    to the lower column), evaluate them exactly against every possible
    leaving column, take the steepest improving swap, and stop when no swap
    improves the objective by more than 1e-9.  The best support over all
    restarts is returned, the first restart to attain it on a tie; since
    every support certifies a lower bound on the RIC, more restarts never
    hurt.

    Restarts run in lockstep, in batches whose trial supports and scores
    fill at most _STACK_BYTES.  A sweep advances every live restart at once:
    one stacked eigh of their support blocks, whose extreme eigenvectors
    score the candidates in one stacked product (a gemv per restart; a gemm
    rounds differently), and one `_contending_swaps` call, which uses the
    decompositions to drop every one of each restart's C*k trials (C =
    min(32, N - k)) that can be neither its steepest swap nor an improving
    one.  The trials left are solved together, in eigvalsh chunks of at most
    _STACK_BYTES, and each restart takes the first maximum of its own trials
    in candidate-major, position-minor order, or leaves when none improves.
    The filter is exact up to a margin far above roundoff, so every trial
    that attains the maximum is kept, and LAPACK solves each matrix of a
    stack on its own: supports, values and swap counts are bit-identical to
    running the restarts one by one and solving every trial.  On Gaussian
    matrices at n = 100, N = 200-1000 and k = 5-20, about 0.6-1.1% of trials
    are solved in the upper mode and 1.0-3.0% in the lower mode.  The first
    sweep from a random start keeps the most: at n = 100, k = 64 in the
    lower mode, 1200 of its 2048 trials, 128 to a chunk.  lambda_min is
    clamped at 0, so among supports at 0 the first wins.

    Restart RNG streams are spawned from one SeedSequence, one initial
    support per stream, so results are reproducible and independent of
    evaluation order.
    """
    if mode not in ("upper", "lower"):
        raise DomainError(f"mode must be 'upper' or 'lower', got {mode!r}")
    check_count("k", k)
    if not 0 < k < sample.N:
        raise DomainError(f"k must be in [1, N), got {k}")
    check_count("restarts", restarts, 1)
    check_count("seed", seed)
    sign = 1.0 if mode == "upper" else -1.0
    ext = -1 if mode == "upper" else 0
    gram_full = sample.gram
    A = sample.entries
    N = sample.N
    pool = min(CANDIDATE_POOL, N - k)
    # A restart's sweep holds pool*k trial supports of k columns and N scores.
    batch = max(1, _STACK_BYTES // (8 * (pool * k * k + N)))

    streams = np.random.SeedSequence(seed).spawn(restarts)
    supports = np.sort([np.random.default_rng(s).choice(N, size=k, replace=False) for s in streams], axis=1)
    vals = np.empty(restarts)
    total_swaps = 0
    for start in range(0, restarts, batch):
        live = np.arange(start, min(start + batch, restarts))
        S = supports[live]
        while live.size:
            # One stacked eigh, a block per support; Gram blocks are positive semidefinite.
            lam, Q = np.linalg.eigh(gram_full[S[:, :, None], S[:, None, :]])
            val = vals[live] = np.maximum(lam[:, ext], 0.0)
            scores = np.abs(A.T @ (A[:, S].transpose(1, 0, 2) @ Q[:, :, ext, None]))[..., 0]
            scores[np.arange(len(live))[:, None], S] = -1.0
            # Descending score, an exact tie to the lower column: each row's first pool.
            row, col = (scores >= np.partition(scores, N - pool, axis=1)[:, N - pool, None]).nonzero()
            order = np.lexsort((-scores[row, col], row))
            candidates = col[order[np.searchsorted(row, np.arange(len(live)))[:, None] + np.arange(pool)]]

            keep = _contending_swaps(
                gram_full, S, candidates, sign, sign * val + IMPROVE_TOL, lam, Q
            )
            i, c, p = keep.nonzero()
            if i.size == 0:
                break
            # Trial (i, c, p) is restart i's support with candidates[i, c] at position p.
            trials = S[i]
            trials[np.arange(i.size), p] = candidates[i, c]
            t_val = np.full(keep.shape, -np.inf)
            t_val[keep] = sign * np.maximum(
                np.concatenate([e[:, ext] for _, e in _solved_chunks(gram_full, trials, k)]), 0.0
            )
            # Each restart's first maximum in candidate-major, position-minor order.
            t_val = t_val.reshape(len(live), -1)
            up = np.flatnonzero(t_val.max(axis=1) - sign * val > IMPROVE_TOL)
            c, p = np.divmod(t_val[up].argmax(axis=1), k)
            S = S[up]
            S[np.arange(up.size), p] = candidates[up, c]
            S.sort(axis=1)
            live = live[up]
            supports[live] = S
            total_swaps += up.size

    i = int(np.argmax(sign * vals))
    best_val = float(vals[i])
    estimate = best_val - 1.0 if mode == "upper" else 1.0 - best_val
    return EmpiricalRun(
        n=sample.n,
        N=sample.N,
        k=k,
        seed=seed,
        mode=mode,
        best_support=tuple(int(c) for c in supports[i]),
        extreme_eig=best_val,
        estimate=estimate,
        restarts=restarts,
        swaps_taken=total_swaps,
    )


def _theory_and_estimates(k: int, n: int, N: int, seed: int, restarts: int):
    """(BT bounds at (n/N, k/n), upper run, lower run) on one seeded n x N
    sample; the bound comes first, so its DomainError precedes any sampling."""
    theory = asymptotic.bt_bounds(n / N, k / n)
    sample = sample_gaussian(n, N, seed)
    up = local_search(sample, k, "upper", restarts=restarts, seed=seed)
    lo = local_search(sample, k, "lower", restarts=restarts, seed=seed)
    return theory, up, lo


def sharpness_ratio(
    k: int,
    n: int,
    N: int,
    seed: int = 0,
    restarts: int = 100,
) -> tuple[float, float]:
    """Ratio of the gamma-optimized theoretical bounds to empirical
    local-search estimates at matching sizes.

    Returns (ratio_U, ratio_L) = (U_theory / U_est, L_theory / L_est).
    Both numerators upper-bound the truth and both denominators
    lower-bound it, so ratios at or above 1 are the expected outcome.
    A zero empirical estimate leaves the ratio undefined.
    """
    if not 0 < k < n < N:
        raise DomainError(f"require 0 < k < n < N, got ({k}, {n}, {N})")
    theory, up, lo = _theory_and_estimates(k, n, N, seed, restarts)
    if up.estimate <= 0.0 or lo.estimate <= 0.0:
        raise DomainError(
            f"empirical estimate vanished (U_est={up.estimate}, "
            f"L_est={lo.estimate}); ratio undefined"
        )
    return theory.U / up.estimate, theory.L / lo.estimate
