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
* ``p_mc`` - Monte-Carlo referee between the two (``pr_coverage_mc``): all
  trials step Stadje's (1990, Adv. Appl. Prob. 22(4)) unseen-count chain at once.

The closed forms are computed in integers: over the common denominator
``D = C(T,N)**x`` the y-th inclusion-exclusion term has the numerator
``t_y = C(T,y) * C(T-y,N)**x``.  The report and ``max_safe_uses`` share one
walk over them, each stopping once its answer is settled (the oracle
``coverage_exact_fraction`` sums all T-N+1).  A float only picks where
``max_safe_uses`` probes or, as ``numerator / D``, rounds an answer correctly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, floor, fsum, log, log1p, sqrt

from .errors import InvalidParams, check_int, check_real, check_seed, check_shape


def _check_txn(x: int, N: int, T: int) -> None:
    check_shape(T, N)
    check_int("x", x, low=0)


def _terms(x: int, N: int, T: int) -> Iterator[int]:
    """Numerators t_y for y = 0 .. T-N; t_0 = D.  Past y = T-N they vanish for
    x >= 1: that many covers cannot all stay unseen."""
    for y in range(T - N + 1):
        yield comb(T, y) * comb(T - y, N) ** x


def _walk(x: int, N: int, T: int) -> Iterator[tuple[int, int, int]]:
    """For y = 0 .. T-N: t_y and a bracket lo <= exact numerator <= hi, made of
    S_y = t_0 - t_1 + ... +- t_y and S_{y-1} (or 0): Bonferroni puts S_y above it
    at even y, below at odd y.  Last (0, S, S), S exact for x >= 1, settles any caller."""
    partial = 0
    for y, term in enumerate(_terms(x, N, T)):
        last, partial = partial, partial - term if y % 2 else partial + term
        yield term, min(last, partial), max(last, partial)
    yield 0, partial, partial


def _coverage_below(x: int, N: int, T: int, zn: int, zd: int) -> bool:
    """Exactly whether coverage(x) < zn/zd (x >= 1, zn < zd), by the first bracket
    on one side of it; with x*N < T some cover is never seen, so coverage is 0."""
    if x * N < T:
        return True
    walk = _walk(x, N, T)
    target = zn * next(walk)[0]  # D lies above any zeta < 1
    for _, lo, hi in walk:
        if hi * zd < target or lo * zd >= target:
            return hi * zd < target


def _report_values(x: int, N: int, T: int) -> tuple[float, float, bool, bool]:
    """The report's four exact-route fields, from the walk stopped once settled.

    Published lies in [P_y - t_y, P_y], P_y = D - t_1 - ... - t_y, once 2 t_y
    <= t_{y-1}: t_{y+1} / t_y = (T-y)/(y+1) * (1 - N/(T-y))**x falls as y
    grows.  int / int rounds correctly and monotonically, so two bracket ends
    that round to one float (and a known sign) settle a value; past the float
    range (as at T=1100, N=1, x=1) a published value is refused.  The forms
    match only at T - N <= 1: for x >= 1 published - exact = -2 (t_2 + t_4 +
    ...), each t_y > 0; at x = 0 exact is 0, and 2 - C(T,0) - ... - C(T,T-N) is not.
    """
    walk = _walk(x, N, T)
    D = published = last = next(walk)[0]
    for term, lo, hi in walk:
        published -= term
        if 2 * term <= last and (published >= term or published < 0):
            try:  # an end past the float range is not settled
                p_exact = hi / D if x else 0.0  # hi >= exact >= 0, so never -0.0
                if (published - term) / D == published / D and (not x or lo / D == p_exact):
                    return published / D, p_exact, published >= 0, x >= 1 and T - N <= 1
            except OverflowError:
                pass
        last = term
    raise InvalidParams("the published closed form lies outside the float range")


def coverage_exact_fraction(x: int, N: int, T: int) -> Fraction:
    """P(all T covers appear in x independent uniform N-subsets), exactly."""
    _check_txn(x, N, T)
    exact = sum(-t if y % 2 else t for y, t in enumerate(_terms(x, N, T)))  # every term
    return Fraction(exact if x else 0, comb(T, N) ** x)


def max_safe_uses(N: int, T: int, zeta: float) -> int:
    """Largest x with coverage_exact_fraction(x, N, T) < zeta; 0 if none.

    Coverage rises from 0 at x=0 to 1.  The search probes next to the x where
    exp(-T (1 - N/T)**x) crosses zeta, gallops away in doubling steps and
    bisects the last one.  The estimate only picks the probes: each compares
    integers over C(T,N)**x with the exact value of zeta.
    """
    _check_txn(0, N, T)
    check_real("zeta", zeta, 0, 1, closed=False)
    zn, zd = Fraction(zeta).as_integer_ratio()
    if N == T:
        return 0
    try:
        guess = max(0, floor(log(-log(zeta) / T) / log1p(-N / T)))
    except (ArithmeticError, ValueError):  # a zeta or T past the float range
        guess = 0
    lo, hi, step = guess, guess + 1, 1
    if _coverage_below(hi, N, T, zn, zd):  # gallop up ...
        lo, hi = hi, hi + 1
        while _coverage_below(hi, N, T, zn, zd):
            lo, hi, step = hi, hi + 2 * step, 2 * step
    else:  # ... or down, to x = 0 at most, whose coverage is 0
        while not _coverage_below(lo, N, T, zn, zd):
            lo, hi, step = max(lo - 2 * step, 0), lo, 2 * step
    while lo + 1 < hi:  # coverage(lo) < zeta <= coverage(hi)
        mid = (lo + hi) // 2
        if _coverage_below(mid, N, T, zn, zd):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Monte Carlo

def _hit_row(u: int, N: int, T: int):
    """How many of u unseen covers one use shows: k = max(0, N-T+u) .. min(N, u),
    and P(k) = C(u,k) C(T-u,N-k) / C(T,N) in float64 from term ratios taken
    outward from the mode and a correctly rounded sum: IEEE operations only."""
    import numpy as np

    lo, hi = max(0, N - T + u), min(N, u)
    mode = min(max((N + 1) * (u + 1) // (T + 2), lo), hi) - lo
    k = np.arange(lo, hi, dtype=np.float64)
    ratio = (u - k) * (N - k) / ((k + 1) * (T - u - N + k + 1))  # P(k+1) / P(k)
    down = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    row = np.concatenate((down, [1.0], np.cumprod(ratio[mode:])))
    return np.arange(lo, hi + 1), row / fsum(row.tolist())


def _occupancy(x: int, N: int, T: int, trials: int, seed: int):
    """Sorted distinct unseen counts after x uses, and the trials at each (some
    may be 0): the c trials at a state move by one multinomial over its hit
    row if the row has fewer than c cells, else by one hypergeometric draw each,
    after the multinomials and in ascending u, one scalar ``hypergeometric(u,
    T - u, N, size=c)`` call a state: it draws what one array call over the
    repeated states would, without numpy's ~30 us of array checks.  Each
    distinct u's next states u - k are kept beside its row for the call.  A use
    merges its next states by one argsort: each run of equal states is summed
    by ``np.add.reduceat`` at the run starts, exact in int64, as ``np.unique``
    and ``np.add.at`` would."""
    import numpy as np  # deferred: only the Monte-Carlo route computes with numpy

    gen = np.random.Generator(np.random.Philox(key=seed))

    @cache
    def hit(u: int):  # the next states beside the row
        k, p = _hit_row(u, N, T)
        return u - k, p
    states, counts = np.array([T], dtype=np.int64), np.array([trials], dtype=np.int64)
    for _ in range(x):
        if states[0] == 0 and counts[0] == trials:  # u = 0 is absorbing
            break
        pooled = counts > np.minimum(N, states) - np.maximum(0, N - T + states) + 1
        next_states, next_counts = [], []
        for u, c in zip(states[pooled].tolist(), counts[pooled].tolist()):
            after, p = hit(u)
            next_states.append(after)
            next_counts.append(gen.multinomial(c, p))
        live = ~pooled & (counts > 0)
        times = counts[live].tolist()
        next_states += [u - gen.hypergeometric(u, T - u, N, size=c) for u, c in zip(states[live].tolist(), times)]
        next_counts.append(np.ones(sum(times), dtype=np.int64))
        merged = np.concatenate(next_states)
        order = merged.argsort()
        merged = merged[order]
        starts = np.flatnonzero(np.concatenate(([True], merged[1:] != merged[:-1])))
        states, counts = merged[starts], np.add.reduceat(np.concatenate(next_counts)[order], starts)
    return states, counts


def _check_mc(T: int, trials: int, seed: int, max_workers: int | None = None) -> None:
    check_int("trials", trials, 1, high=(1 << 63) - 1)  # the occupancy counts trials in int64
    check_seed(seed)
    if max_workers is not None:
        check_int("max_workers", max_workers, low=1)
    check_int("T", T, high=10**9 - 1)  # numpy's hypergeometric refuses 10**9 or more good or bad items


def pr_coverage_mc(x: int, N: int, T: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo (estimate, standard error) for the coverage probability, from
    one Philox stream keyed by ``seed``."""
    _check_txn(x, N, T)
    _check_mc(T, trials, seed)
    states, counts = _occupancy(x, N, T, trials, seed)
    p_hat = int(counts[0]) / trials if states[0] == 0 else 0.0
    return p_hat, sqrt(p_hat * (1.0 - p_hat) / trials)


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


def coverage_report(x: int, N: int, T: int, mc_trials: int | None = None, seed: int = 0,
                    max_workers: int | None = None) -> CoverageReport:
    _check_txn(x, N, T)
    if mc_trials is not None:  # before the exact walk, which can be long
        _check_mc(T, mc_trials, seed, max_workers)
    p_published, p_exact, in_range, matches = _report_values(x, N, T)
    p_mc = mc_se = within = None
    if mc_trials is not None:
        p_mc, mc_se = pr_coverage_mc(x, N, T, mc_trials, seed)
        within = abs(p_mc - p_exact) <= 4.0 * mc_se if mc_se > 0 else p_mc == p_exact
    return CoverageReport(
        T=T, N=N, x=x, p_published=p_published, p_exact=p_exact, published_in_range=in_range,
        published_matches_exact=matches, p_mc=p_mc, mc_se=mc_se, mc_trials=mc_trials,
        mc_seed=seed if mc_trials is not None else None, mc_within_4se=within,
    )
