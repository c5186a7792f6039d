"""Usage-budget math: how many sequences until the whole library is exposed.

Each transmitted sequence shows the warden N of the T library covers.  After
x sequences the warden may have seen everything.  ``coverage_report`` gives
three routes to that probability side by side:

* ``p_published`` - a known closed form that subtracts union-bound terms
  without alternating signs.  It can leave [0,1] and is kept verbatim so
  the discrepancy stays visible.
* ``p_exact`` - inclusion-exclusion over the uncovered sets, always a true
  probability, cross-checked against exhaustive enumeration in tests;
  ``coverage_exact_fraction`` gives it as an exact rational.
* ``p_mc`` - Monte-Carlo referee between the two (``pr_coverage_mc``): each
  trial steps Stadje's (1990, Adv. Appl. Prob. 22(4)) collector chain.

The closed forms are computed in integers: over the common denominator
``D = C(T,N)**x`` the y-th inclusion-exclusion term has the numerator
``C(T,y) * C(T-y,N)**x``, and one walk over those terms yields both closed
forms.  Floats appear only at the API boundary, as ``numerator / D``, which
rounds correctly; binomial ratios raised to the x-th power shed precision
fast, so no float enters a decision.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

from .errors import InvalidParams, check_int, check_real, check_seed

_MC_BLOCK = 4096

THREADS_ENV = "STEGOGAME_THREADS"


def default_workers() -> int:
    """Threads for the Monte-Carlo blocks: ``STEGOGAME_THREADS``, else up to 8."""
    try:
        return max(1, int(os.environ[THREADS_ENV]))
    except (KeyError, ValueError):
        return min(8, os.cpu_count() or 1)


def _check_txn(x: int, N: int, T: int) -> None:
    check_int("T", T)
    check_int("N", N)
    if N < 1 or T < N:
        raise InvalidParams(f"need 1 <= N <= T, got N={N}, T={T}")
    check_int("x", x, low=0)


def _terms(x: int, N: int, T: int) -> Iterator[int]:
    """Numerators C(T,y) * C(T-y,N)**x for y = 0 .. T-N; the first is D.

    Beyond y = T-N they vanish for x >= 1: that many covers cannot all stay
    unseen.
    """
    for y in range(T - N + 1):
        yield comb(T, y) * comb(T - y, N) ** x


def _coverage_numerators(x: int, N: int, T: int) -> tuple[int, int, int]:
    """Published and exact coverage numerators over D, then D, from one walk.

    The published form subtracts every term after the first; the exact one
    alternates signs.  Truncating at y = T-N is only valid for x >= 1; with
    no observations the coverage event is simply impossible.
    """
    terms = _terms(x, N, T)
    D = next(terms)
    odd = even = 0
    for y, term in enumerate(terms, 1):
        if y % 2:
            odd += term
        else:
            even += term
    return D - odd - even, (D - odd + even) if x else 0, D


def _coverage_below(x: int, N: int, T: int, zn: int, zd: int) -> bool:
    """Exactly whether coverage(x) < zn/zd, for x >= 1 and zn < zd.

    By the Bonferroni inequalities the partial inclusion-exclusion sum that
    ends at an even y bounds coverage from above, and one that ends at an odd
    y bounds it from below; at y = T-N it is exact.  So the first partial
    sum on the decisive side of zeta settles the comparison.  With x*N < T
    some cover is never seen, so coverage is exactly 0 and below any zeta
    that max_safe_uses accepts.
    """
    if x * N < T:
        return True
    terms = _terms(x, N, T)
    partial = next(terms)  # the y = 0 sum, D, lies above any zeta < 1
    target = zn * partial
    for y, term in enumerate(terms, 1):
        if y % 2:
            partial -= term
            if partial * zd >= target:
                return False
        else:
            partial += term
            if partial * zd < target:
                return True
    return partial * zd < target


def coverage_exact_fraction(x: int, N: int, T: int) -> Fraction:
    """P(all T covers appear in x independent uniform N-subsets), exactly."""
    _check_txn(x, N, T)
    _, exact, D = _coverage_numerators(x, N, T)
    return Fraction(exact, D)


def max_safe_uses(N: int, T: int, zeta: float) -> int:
    """Largest x with coverage_exact_fraction(x, N, T) < zeta; 0 if none.

    Coverage probability is 0 at x=0 and increases to 1, so the answer is
    the last x before the monotone sequence crosses zeta, found by an
    exponential then a binary search over x.  Each probe compares integer
    numerators over C(T,N)**x against the exact binary value of zeta and
    stops at the first Bonferroni partial sum that lies on the decisive
    side of it, so the answer is exact.
    """
    _check_txn(0, N, T)
    check_real("zeta", zeta)
    if not (0.0 < zeta < 1.0):
        raise InvalidParams(f"zeta must lie strictly in (0,1), got {zeta}")
    zn, zd = Fraction(zeta).as_integer_ratio()
    if N == T:
        return 0
    # exponential then binary search for the first x at or past the threshold
    hi = 1
    while _coverage_below(hi, N, T, zn, zd):
        hi *= 2
    lo = hi // 2  # coverage(lo) < zeta or lo == 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _coverage_below(mid, N, T, zn, zd):
            lo = mid
        else:
            hi = mid
    return hi - 1


# ---------------------------------------------------------------------------
# Monte Carlo

def _mc_block(x: int, N: int, T: int, seed: int, block_index: int, size: int):
    """Covers still unseen after x uses, per trial; depends only on (seed,
    block_index).  How many unseen covers a uniform N-subset hits is
    hypergeometric, so this is exactly the law of x uniform N-subsets."""
    import numpy as np  # deferred: only the Monte-Carlo route computes with numpy

    gen = np.random.Generator(np.random.Philox(key=seed, counter=block_index << 128))
    unseen = np.full(size, T, dtype=np.int64)
    for _ in range(x):
        unseen -= gen.hypergeometric(unseen, T - unseen, N)
    return unseen


def _check_mc(T: int, trials: int, seed: int, max_workers: int | None) -> None:
    check_int("trials", trials, low=1)
    check_seed(seed)
    if max_workers is not None:
        check_int("max_workers", max_workers, low=1)
    if T >= 10**9:  # numpy's hypergeometric refuses that many good or bad items
        raise InvalidParams(f"the Monte-Carlo route needs T < 10**9, got T={T}")


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
    _check_mc(T, trials, seed, max_workers)
    blocks = [
        (i, min(_MC_BLOCK, trials - i * _MC_BLOCK))
        for i in range((trials + _MC_BLOCK - 1) // _MC_BLOCK)
    ]
    workers = max_workers if max_workers is not None else default_workers()

    def covered(block: tuple[int, int]) -> int:
        return int((_mc_block(x, N, T, seed, *block) == 0).sum())

    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            successes = sum(pool.map(covered, blocks))
    else:
        successes = sum(map(covered, blocks))
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
    if mc_trials is not None:  # before the exact walk, which is O(T)
        _check_mc(T, mc_trials, seed, max_workers)
    published, exact, D = _coverage_numerators(x, N, T)
    try:
        p_published = published / D
    except OverflowError:  # e.g. about -2**1100 at T=1100, N=1, x=1
        raise InvalidParams("the published closed form lies outside the float range") from None
    p_exact = exact / D
    p_mc = mc_se = within = None
    if mc_trials is not None:
        p_mc, mc_se = pr_coverage_mc(x, N, T, mc_trials, seed, max_workers=max_workers)
        within = abs(p_mc - p_exact) <= 4.0 * mc_se if mc_se > 0 else p_mc == p_exact
    return CoverageReport(
        T=T,
        N=N,
        x=x,
        p_published=p_published,
        p_exact=p_exact,
        published_in_range=0 <= published <= D,
        published_matches_exact=published == exact,
        p_mc=p_mc,
        mc_se=mc_se,
        mc_trials=mc_trials,
        mc_seed=seed if mc_trials is not None else None,
        mc_within_4se=within,
    )
