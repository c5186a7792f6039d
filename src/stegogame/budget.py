"""Usage-budget math: how many sequences until the whole library is exposed.

Each transmitted sequence shows the warden N of the T library covers.  After
x sequences the warden may have seen everything.  Three routes to that
probability live here side by side:

* ``pr_coverage_published`` - a known closed form that subtracts union-bound
  terms without alternating signs.  It can leave [0,1] and is kept verbatim
  so the discrepancy stays visible.
* ``pr_coverage_exact`` - inclusion-exclusion over the uncovered sets, always
  a true probability, cross-checked against exhaustive enumeration in tests.
* ``pr_coverage_mc`` - Monte-Carlo referee between the two.

All closed-form work uses exact rationals; floats appear only at the API
boundary.  Binomial ratios raised to the x-th power shed precision fast.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from .errors import InvalidParams
from .library import default_workers

_MC_BLOCK = 4096
_SEED_LIMIT = 1 << 128


def _check_txn(x: int, N: int, T: int) -> None:
    if not (isinstance(T, int) and isinstance(N, int) and isinstance(x, int)):
        raise InvalidParams("T, N, x must be integers")
    if N < 1 or T < N:
        raise InvalidParams(f"need 1 <= N <= T, got N={N}, T={T}")
    if x < 0:
        raise InvalidParams(f"x must be >= 0, got {x}")


def _remaining_term(y: int, x: int, N: int, T: int) -> Fraction:
    # C(T,y) * (C(T-y,N)/C(T,N))**x; zero when y covers cannot stay unseen
    if y > T - N:
        return Fraction(0)
    ratio = Fraction(comb(T - y, N), comb(T, N))
    return comb(T, y) * ratio**x


def pr_remaining_published(y: int, x: int, N: int, T: int) -> float:
    """Published per-y term: C(T,y) * (C(T-y,N)/C(T,N))**x.

    This is the y-th union-bound term, not P(exactly y unseen); it is
    exposed verbatim rather than reinterpreted.
    """
    _check_txn(x, N, T)
    if not isinstance(y, int) or y < 0:
        raise InvalidParams(f"y must be an integer >= 0, got {y}")
    return float(_remaining_term(y, x, N, T))


def _coverage_published_fraction(x: int, N: int, T: int) -> Fraction:
    return 1 - sum((_remaining_term(y, x, N, T) for y in range(1, T - N + 1)), Fraction(0))


def _coverage_exact_fraction(x: int, N: int, T: int) -> Fraction:
    if x == 0:
        # Truncating the alternating sum at y = T-N is only valid for x >= 1
        # (it relies on q_y**x vanishing beyond that point); with no
        # observations the coverage event is simply impossible.
        return Fraction(0)
    total = Fraction(0)
    for y in range(0, T - N + 1):
        term = _remaining_term(y, x, N, T)
        total += term if y % 2 == 0 else -term
    return total


def pr_coverage_published(x: int, N: int, T: int) -> float:
    """Literal closed form 1 - sum of union-bound terms; may leave [0,1]."""
    _check_txn(x, N, T)
    return float(_coverage_published_fraction(x, N, T))


def pr_coverage_exact(x: int, N: int, T: int) -> float:
    """P(all T covers appear in x independent uniform N-subsets)."""
    _check_txn(x, N, T)
    return float(_coverage_exact_fraction(x, N, T))


def coverage_exact_fraction(x: int, N: int, T: int) -> Fraction:
    """Exact-rational variant of :func:`pr_coverage_exact`."""
    _check_txn(x, N, T)
    return _coverage_exact_fraction(x, N, T)


def max_safe_uses(N: int, T: int, zeta: float) -> int:
    """Largest x with pr_coverage_exact(x, N, T) < zeta; 0 if none.

    Coverage probability is 0 at x=0 and increases to 1, so the answer is
    the last x before the monotone sequence crosses zeta.  Comparison uses
    exact rationals against the exact binary value of zeta.
    """
    _check_txn(0, N, T)
    if not (0.0 < zeta < 1.0):
        raise InvalidParams(f"zeta must lie strictly in (0,1), got {zeta}")
    bound = Fraction(zeta)
    if N == T:
        return 0
    # exponential then binary search for the first x at or past the threshold
    hi = 1
    while _coverage_exact_fraction(hi, N, T) < bound:
        hi *= 2
    lo = hi // 2  # coverage(lo) < bound or lo == 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _coverage_exact_fraction(mid, N, T) < bound:
            lo = mid
        else:
            hi = mid
    return hi - 1


# ---------------------------------------------------------------------------
# Monte Carlo

def _mc_block(x: int, N: int, T: int, seed: int, block_index: int, size: int) -> int:
    """Successes within one block; depends only on (seed, block_index)."""
    bg = np.random.Philox(key=seed, counter=block_index << 128)
    gen = np.random.Generator(bg)
    covered = np.zeros((size, T), dtype=bool)
    for _ in range(x):
        u = gen.random((size, T))
        chosen = np.argpartition(u, N - 1, axis=1)[:, :N]
        np.put_along_axis(covered, chosen, True, axis=1)
    return int(covered.all(axis=1).sum())


def pr_coverage_mc(
    x: int,
    N: int,
    T: int,
    trials: int,
    seed: int,
    max_workers: int | None = None,
) -> tuple[float, float]:
    """Monte-Carlo (estimate, standard error) for the coverage probability.

    Counter-based per-block seeding: the result is identical for any worker
    count or block partitioning, given the same (trials, seed).
    """
    _check_txn(x, N, T)
    if trials < 1:
        raise InvalidParams(f"trials must be >= 1, got {trials}")
    if not isinstance(seed, int) or not (0 <= seed < _SEED_LIMIT):
        raise InvalidParams("seed must be an integer in [0, 2**128)")
    blocks = [
        (i, min(_MC_BLOCK, trials - i * _MC_BLOCK))
        for i in range((trials + _MC_BLOCK - 1) // _MC_BLOCK)
    ]
    workers = max_workers if max_workers is not None else default_workers()
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(lambda b: _mc_block(x, N, T, seed, *b), blocks))
    else:
        counts = [_mc_block(x, N, T, seed, i, size) for i, size in blocks]
    successes = sum(counts)
    p_hat = successes / trials
    se = sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, se


# ---------------------------------------------------------------------------
# report assembly

@dataclass(frozen=True)
class CoverageReport:
    """All three coverage routes at one (x, N, T), with agreement flags."""

    T: int
    N: int
    x: int
    p_published: float
    p_exact: float
    published_in_range: bool
    published_matches_exact: bool
    p_mc: float | None = None
    mc_se: float | None = None
    mc_trials: int | None = None
    mc_seed: int | None = None
    mc_within_4se: bool | None = None


def coverage_report(
    x: int,
    N: int,
    T: int,
    mc_trials: int | None = None,
    seed: int = 0,
    max_workers: int | None = None,
) -> CoverageReport:
    _check_txn(x, N, T)
    published = _coverage_published_fraction(x, N, T)
    exact = _coverage_exact_fraction(x, N, T)
    p_mc = mc_se = within = None
    if mc_trials is not None:
        est, se = pr_coverage_mc(x, N, T, mc_trials, seed, max_workers=max_workers)
        p_mc, mc_se = est, se
        within = abs(est - float(exact)) <= 4.0 * se if se > 0 else est == float(exact)
    return CoverageReport(
        T=T,
        N=N,
        x=x,
        p_published=float(published),
        p_exact=float(exact),
        published_in_range=0 <= published <= 1,
        published_matches_exact=published == exact,
        p_mc=p_mc,
        mc_se=mc_se,
        mc_trials=mc_trials,
        mc_seed=seed if mc_trials is not None else None,
        mc_within_4se=within,
    )
