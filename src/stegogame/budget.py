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

The closed forms are computed in integers: over the common denominator
``D = C(T,N)**x`` the y-th inclusion-exclusion term has the numerator
``C(T,y) * C(T-y,N)**x``, and one walk over those terms yields both closed
forms.  Floats appear only at the API boundary, as ``numerator / D``, which
rounds correctly; binomial ratios raised to the x-th power shed precision
fast, so no float enters a decision.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from numbers import Real

from .errors import InvalidParams
from .library import default_workers

_MC_BLOCK = 4096
_SEED_LIMIT = 1 << 128


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_txn(x: int, N: int, T: int) -> None:
    if not (_is_int(T) and _is_int(N) and _is_int(x)):
        raise InvalidParams("T, N, x must be integers")
    if N < 1 or T < N:
        raise InvalidParams(f"need 1 <= N <= T, got N={N}, T={T}")
    if x < 0:
        raise InvalidParams(f"x must be >= 0, got {x}")


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


def pr_coverage_published(x: int, N: int, T: int) -> float:
    """Literal closed form 1 - sum of union-bound terms; may leave [0,1]."""
    _check_txn(x, N, T)
    published, _, D = _coverage_numerators(x, N, T)
    return published / D


def pr_coverage_exact(x: int, N: int, T: int) -> float:
    """P(all T covers appear in x independent uniform N-subsets)."""
    _check_txn(x, N, T)
    _, exact, D = _coverage_numerators(x, N, T)
    return exact / D


def coverage_exact_fraction(x: int, N: int, T: int) -> Fraction:
    """Exact-rational variant of :func:`pr_coverage_exact`."""
    _check_txn(x, N, T)
    _, exact, D = _coverage_numerators(x, N, T)
    return Fraction(exact, D)


def max_safe_uses(N: int, T: int, zeta: float) -> int:
    """Largest x with pr_coverage_exact(x, N, T) < zeta; 0 if none.

    Coverage probability is 0 at x=0 and increases to 1, so the answer is
    the last x before the monotone sequence crosses zeta, found by an
    exponential then a binary search over x.  Each probe compares integer
    numerators over C(T,N)**x against the exact binary value of zeta and
    stops at the first Bonferroni partial sum that lies on the decisive
    side of it, so the answer is exact.
    """
    _check_txn(0, N, T)
    if isinstance(zeta, bool) or not isinstance(zeta, Real):
        raise InvalidParams(f"zeta must be a real number, got {zeta!r}")
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

def _mark_smallest(u, N: int, out) -> None:
    """Set ``out`` to the cells holding the N smallest values of each row of ``u``.

    The cells are those ``np.argpartition(u, N - 1, axis=1)[:, :N]`` names.
    A row whose N-th smallest value is tied marks more than N cells by
    comparison, so only those rows are taken from ``argpartition``.
    """
    import numpy as np

    np.less_equal(u, np.partition(u, N - 1, axis=1)[:, N - 1 : N], out=out)
    if np.count_nonzero(out) > out.shape[0] * N:
        tied = np.flatnonzero(np.count_nonzero(out, axis=1) > N)
        rows = np.zeros((tied.size, u.shape[1]), dtype=bool)
        np.put_along_axis(rows, np.argpartition(u[tied], N - 1, axis=1)[:, :N], True, axis=1)
        out[tied] = rows


def _mc_block(x: int, N: int, T: int, seed: int, block_index: int, size: int) -> int:
    """Successes within one block; depends only on (seed, block_index)."""
    import numpy as np  # deferred: only the Monte-Carlo route computes with numpy

    gen = np.random.Generator(np.random.Philox(key=seed, counter=block_index << 128))
    covered = np.zeros((size, T), dtype=bool)
    chosen = np.empty((size, T), dtype=bool)
    u = np.empty((size, T))
    for _ in range(x):
        gen.random(out=u)
        _mark_smallest(u, N, chosen)
        covered |= chosen
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
    if not _is_int(trials) or trials < 1:
        raise InvalidParams(f"trials must be an integer >= 1, got {trials!r}")
    if not isinstance(seed, int) or not (0 <= seed < _SEED_LIMIT):
        raise InvalidParams("seed must be an integer in [0, 2**128)")
    blocks = [
        (i, min(_MC_BLOCK, trials - i * _MC_BLOCK))
        for i in range((trials + _MC_BLOCK - 1) // _MC_BLOCK)
    ]
    workers = max_workers if max_workers is not None else default_workers()
    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

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
    published, exact, D = _coverage_numerators(x, N, T)
    p_exact = exact / D
    p_mc = mc_se = within = None
    if mc_trials is not None:
        p_mc, mc_se = pr_coverage_mc(x, N, T, mc_trials, seed, max_workers=max_workers)
        within = abs(p_mc - p_exact) <= 4.0 * mc_se if mc_se > 0 else p_mc == p_exact
    return CoverageReport(
        T=T,
        N=N,
        x=x,
        p_published=published / D,
        p_exact=p_exact,
        published_in_range=0 <= published <= D,
        published_matches_exact=published == exact,
        p_mc=p_mc,
        mc_se=mc_se,
        mc_trials=mc_trials,
        mc_seed=seed if mc_trials is not None else None,
        mc_within_4se=within,
    )
