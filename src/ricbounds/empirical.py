"""Empirical RIC estimation on sampled Gaussian matrices.

Exact values by exhaustive support enumeration at tiny sizes, and greedy
local-search lower bounds on U and L at moderate sizes.  Any single
support gives a one-sided certificate: lambda^max(A_K* A_K) - 1 never
exceeds U and 1 - lambda^min never exceeds L, so search only ever
under-reports the true constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from .asymptotic import bt_bounds
from .errors import DomainError, GuardError

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
        """The N x N Gram matrix, formed on first use and kept with the sample."""
        return self.entries.T @ self.entries


@dataclass(frozen=True)
class EmpiricalRun:
    """Result of one local-search estimate (best over all restarts)."""

    n: int
    N: int
    k: int
    seed: int
    mode: str
    best_support: tuple[int, ...]
    extreme_eig: float
    estimate: float
    restarts: int
    swaps_taken: int


def _check_seed(seed) -> None:
    """numpy's SeedSequence takes a non-negative integer; anything else is a DomainError."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def sample_gaussian(n: int, N: int, seed: int) -> MatrixSample:
    """Draw an n x N matrix of i.i.d. N(0, 1/n) entries.

    Generator: numpy default_rng (PCG64) seeded through SeedSequence, with
    the standard normal transform.  Fixed here so sampled matrices are
    stable across the package.
    """
    if n < 1 or N < 1:
        raise DomainError(f"matrix dimensions must be >= 1, got ({n}, {N})")
    _check_seed(seed)
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
    if not 0 < k <= sample.N:
        raise DomainError(f"k must be in [1, N], got {k}")
    count = math.comb(sample.N, k)
    if count > EXHAUSTIVE_GUARD:
        raise GuardError(
            f"C({sample.N}, {k}) = {count} supports exceeds the "
            f"exhaustive guard of {EXHAUSTIVE_GUARD}"
        )
    (lo, arg_lo), (hi, arg_hi) = _first_extremes(sample.gram, combinations(range(sample.N), k), k)
    return 1.0 - lo, hi - 1.0, tuple(map(int, arg_hi)), tuple(map(int, arg_lo))


def _first_extremes(gram_full: np.ndarray, supports, k: int):
    """((lo, arg_lo), (hi, arg_hi)): least lambda_min and greatest lambda_max
    over the Gram blocks of the k-supports (array rows or any iterable), each
    with the first support attaining it; lambda_min is clamped at 0, as Gram
    blocks are positive semidefinite.  One eigvalsh call takes at most
    _STACK_BYTES of blocks and solves each on its own: chunks change no value.
    """
    per = max(1, _STACK_BYTES // (8 * k * k))
    if isinstance(supports, np.ndarray):
        chunks = (supports[i : i + per] for i in range(0, len(supports), per))
    else:
        supports = iter(supports)
        chunks = map(np.array, iter(lambda: list(islice(supports, per)), []))
    lo, hi, arg_lo, arg_hi = math.inf, -math.inf, None, None
    for chunk in chunks:
        eigs = np.linalg.eigvalsh(gram_full[chunk[:, :, None], chunk[:, None, :]])
        low = np.maximum(eigs[:, 0], 0.0)
        i, j = int(np.argmin(low)), int(np.argmax(eigs[:, -1]))
        if low[i] < lo:
            lo, arg_lo = float(low[i]), chunk[i]
        if eigs[j, -1] > hi:
            hi, arg_hi = float(eigs[j, -1]), chunk[j]
    return (lo, arg_lo), (hi, arg_hi)


def _contending_swaps(
    gram_full: np.ndarray,
    support: np.ndarray,
    candidates: np.ndarray,
    sign: float,
    target: float,
    lam: np.ndarray,
    Q: np.ndarray,
) -> np.ndarray:
    """Flat indices c*k + p of the trials that can still be the steepest swap.

    Trial c*k + p puts candidates[c] at position p of the support, and
    s*value (s = sign) is its signed extreme eigenvalue.  A trial is
    dropped only if it cannot reach max(target, every trial's s*value).
    lam, Q = eigh(G_S) is the decomposition of the support's block G[S, S].

    Up to a permutation the trial block is T = [[B, g], [g', d]], with B =
    G_S less row and column p, g = G[S-p, c] and d = G[c, c].  For x > max
    s*lam, M = x*I - s*G_S is positive definite, hence so is its principal
    block M_-p (Cauchy interlacing), and by the Schur complement s*value >= x
    exactly when f = x - s*d - g'M_-p^-1 g <= 0 (Golub, SIAM Review 15,
    1973).  The embedded inverse of M_-p, M^-1 - M^-1 e_p e_p'M^-1 / M^-1_pp,
    sends e_p to 0, so with D = 1/(x - s*lam), W = Q'G[S, C], a = sum D*W^2,
    R = Q(D*W) and mm = (Q*Q)D: f = x - s*d_c - a_c + R_pc^2 / mm_p.  Where
    x <= max s*lam, every trial is returned.

    x = max(target, max s*Ritz - m) - m, with Ritz the value of T on
    span{(w_p, 0), (0, 1)}, w_p the extreme eigenvector with entry p zeroed:
    a Rayleigh quotient of T, so the best trial reaches it.  w_p'G_S w_p and
    w_p'g are formed from w_p itself, free of cancellation against v'G_S v.
    m = 1e-12 * (trace G_S + max d) bounds the norm of every trial block
    (Gram blocks are positive semidefinite).  eigh's lam and Q, and LAPACK's
    trial values, are exact for blocks a few k*eps*|T| away, which moves
    each root by far less than m (Weyl), so a trial whose LAPACK value
    reaches x + m has f <= 0 there.  Evaluating f adds a few k*eps of its
    terms' magnitudes, so a trial is dropped only where f > 1e-12 *
    (|x| + d_c + a_c + R_pc^2 / mm_p).  Where C*k*k <= 128 (C candidates;
    every k <= 2 at C <= 32) all trials are returned: solving that few
    small blocks costs less than the filter.
    """
    k, C = len(support), len(candidates)
    if C * k * k <= 128:
        return np.arange(C * k)
    ext = -1 if sign > 0 else 0
    diag = np.diagonal(gram_full)
    d = diag[candidates]
    g = gram_full[support[:, None], candidates]
    w = np.where(np.eye(k, dtype=bool), 0.0, Q[:, ext, None])
    ww = np.einsum("ip,ip->p", w, w)
    wgw = np.einsum("ip,ip->p", w, gram_full[support[:, None], support] @ w)
    live = ww > 0.0
    alpha = (wgw[live] / ww[live])[:, None]
    beta = (w.T[live] @ g) / np.sqrt(ww[live])[:, None]
    ritz = 0.5 * (alpha + d) + sign * np.hypot(0.5 * (alpha - d), beta)
    margin = _MARGIN * (float(diag[support].sum()) + float(d.max()))
    x = max(target, float(np.max(sign * ritz)) - margin) - margin
    if x <= sign * lam[ext]:
        return np.arange(C * k)
    D = 1.0 / (x - sign * lam)
    W = Q.T @ g
    DW = D[:, None] * W
    a = np.einsum("ic,ic->c", W, DW)
    r2 = (Q @ DW) ** 2 / ((Q * Q) @ D)[:, None]
    f = x - sign * d - a + r2
    return np.flatnonzero((f <= _MARGIN * (abs(x) + d + a + r2)).T)


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
    eigenvector| (one product A'(A_S v)), take the best 32 by a partition
    (an exact tie goes to the lower column), evaluate them exactly against
    every possible leaving column, take the steepest improving swap, and
    stop when no swap improves the objective by more than 1e-9.  The best
    support over all restarts is returned; since every support certifies a
    lower bound on the RIC, more restarts never hurt.

    Each sweep takes one eigh of the support's block: its extreme
    eigenvector scores the candidates, and `_contending_swaps` uses the
    whole decomposition to drop every one of the C*k trials (C = min(32,
    N - k)) that can be neither the steepest swap nor an improving one, by
    one Schur-complement sign test per trial.  The others go to
    `_first_extremes` in candidate-major, position-minor order, in eigvalsh
    chunks of at most _STACK_BYTES; ties go to the first maximum in that
    order.  If none is left the sweep stops.  The test is exact up to a
    margin far above roundoff, so every trial that attains the maximum is
    kept, and eigvalsh solves each matrix of a stack on its own: supports,
    values and swap counts are bit-identical to solving every trial.  On
    Gaussian matrices at n = 100, N = 200-1000 and k = 5-20, about 0.6-1.1%
    of trials are solved in the upper mode and 1.0-3.0% in the lower mode.
    The first sweep from a random start keeps the most: at n = 100, k = 64
    in the lower mode, 1200 of its 2048 trials, 128 to a chunk.  lambda_min
    is clamped at 0, so among supports at 0 the first wins.

    Restart RNG streams are spawned from one SeedSequence, so results are
    reproducible and independent of evaluation order.
    """
    if mode not in ("upper", "lower"):
        raise DomainError(f"mode must be 'upper' or 'lower', got {mode!r}")
    if not 0 < k < sample.N:
        raise DomainError(f"k must be in [1, N), got {k}")
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    _check_seed(seed)
    sign = 1.0 if mode == "upper" else -1.0
    ext = -1 if mode == "upper" else 0
    gram_full = sample.gram
    A = sample.entries
    N = sample.N
    pool = min(CANDIDATE_POOL, N - k)

    best_val = math.nan
    best_signed = -math.inf
    best_support: tuple[int, ...] = ()
    total_swaps = 0
    for stream in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        support = np.sort(rng.choice(N, size=k, replace=False))
        while True:
            # One eigh per support; a Gram block is positive semidefinite.
            lam, Q = np.linalg.eigh(gram_full[support[:, None], support])
            val = max(float(lam[ext]), 0.0)
            scores = np.abs(A.T @ (A[:, support] @ Q[:, ext]))
            scores[support] = -1.0
            top = np.flatnonzero(scores >= np.partition(scores, N - pool)[N - pool])
            candidates = top[np.argsort(-scores[top], kind="stable")[:pool]]

            alive = _contending_swaps(
                gram_full, support, candidates, sign, sign * val + IMPROVE_TOL, lam, Q
            )
            if alive.size == 0:
                break
            # Flat index c*k + pos is the support with candidates[c] at pos.
            trials = np.repeat(support[None, :], alive.size, axis=0)
            trials[np.arange(alive.size), alive % k] = candidates[alive // k]
            t_val, t_support = _first_extremes(gram_full, trials, k)[mode == "upper"]
            if sign * (t_val - val) <= IMPROVE_TOL:
                break
            support = np.sort(t_support)
            total_swaps += 1
        if sign * val > best_signed:
            best_signed = sign * val
            best_val = val
            best_support = tuple(int(c) for c in support)

    estimate = best_val - 1.0 if mode == "upper" else 1.0 - best_val
    return EmpiricalRun(
        n=sample.n,
        N=sample.N,
        k=k,
        seed=seed,
        mode=mode,
        best_support=best_support,
        extreme_eig=best_val,
        estimate=estimate,
        restarts=restarts,
        swaps_taken=total_swaps,
    )


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
    theory = bt_bounds(n / N, k / n)
    sample = sample_gaussian(n, N, seed)
    up = local_search(sample, k, "upper", restarts=restarts, seed=seed)
    lo = local_search(sample, k, "lower", restarts=restarts, seed=seed)
    if up.estimate <= 0.0 or lo.estimate <= 0.0:
        raise DomainError(
            f"empirical estimate vanished (U_est={up.estimate}, "
            f"L_est={lo.estimate}); ratio undefined"
        )
    return theory.U / up.estimate, theory.L / lo.estimate
