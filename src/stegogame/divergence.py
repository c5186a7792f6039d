"""Histogram distances between observable distributions, with a verdict.

Two sample sets are reduced to equal-width histograms over a shared support,
then compared under KL, Jensen-Shannon, total variation, or 1-Wasserstein.
A pair is called distinguishable at threshold epsilon when the chosen
distance exceeds epsilon; a permutation-null helper, drawing resplit counts
from their hypergeometric law, picks epsilon when the caller has none.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import BinMismatch, EmptySamples, InvalidParams, check_int, check_real, check_seed, show

MASS_TOLERANCE = 1e-12
# calibrate_epsilon's block of resplits, in count cells: non-empty bins for JS, else all bins
CHUNK_CELLS = 16384
# The most bins a histogram may have: calibrate_epsilon's KL, TV and W1 nulls score full-width
# rows, and at 200 runs on 400 + 400 samples took 0.3-0.5 s at 2**16, 3.7-7.9 s at 2**20
# (numpy 2.4, 2 cores).  JS's works over the non-empty bins only.
MAX_BINS = 1 << 16


def _finite_samples(samples) -> np.ndarray:
    try:
        if np.iscomplexobj(samples):  # the cast would drop the imaginary parts
            raise TypeError
        arr = np.asarray(samples, dtype=float)
    except (TypeError, ValueError):  # strings, complex numbers, ragged nesting
        raise InvalidParams("samples must be an array of real numbers") from None
    if not np.all(np.isfinite(arr)):
        raise InvalidParams("samples must be finite numbers, not nan or inf")
    return arr


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Normalized histogram: len(edges) == len(masses) + 1."""

    edges: np.ndarray
    masses: np.ndarray
    n_samples: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "masses", masses)
        if edges.ndim != 1 or masses.ndim != 1 or edges.size != masses.size + 1:
            raise InvalidParams("edges must be 1-D with one more entry than masses")
        if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
            raise InvalidParams("bin edges must be finite and strictly increasing")
        # `not >= 0` rather than `< 0`, so that a NaN mass is refused too
        if not np.all(masses >= 0) or abs(float(masses.sum()) - 1.0) > MASS_TOLERANCE:
            raise InvalidParams("masses must be finite, non-negative and sum to 1")
        check_int("n_samples", self.n_samples, low=1)

    @property
    def bins(self) -> int:
        return int(self.masses.size)

    @property
    def centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0


def _histogram(arr: np.ndarray, bins: int, support) -> tuple[np.ndarray, np.ndarray]:
    """``np.histogram``; a support (None: the samples' range) that is not a pair of reals
    finite as floats, or that ``bins`` finite bins cannot cut, is InvalidParams (on older
    numpy, from EmpiricalDistribution's edge check), and so are more than ``MAX_BINS``
    bins, refused before anything is allocated."""
    check_int("bins", bins, low=1)
    if bins > MAX_BINS:
        raise InvalidParams(f"bins must be at most MAX_BINS = {MAX_BINS}, got {show(bins)}")
    if support is not None:
        ends = tuple(support) if isinstance(support, (tuple, list)) else ()
        try:  # isfinite takes each end as a float, which 10**5000 overflows
            finite = len(ends) == 2 and all(
                isinstance(end, Real) and not isinstance(end, bool) and math.isfinite(end) for end in ends
            )
        except OverflowError:
            finite = False
        if not finite:
            shown = f"({show(ends[0])}, {show(ends[1])})" if len(ends) == 2 else show(support)
            raise InvalidParams(f"support must be a pair of finite real numbers, got {shown}")
        support = (float(ends[0]), float(ends[1]))
    try:
        return np.histogram(arr, bins=bins, range=support)
    except ValueError as exc:
        raise InvalidParams(f"cannot cut support {support!r} into {bins} finite bins: {exc}") from None


def estimate_distribution(
    samples: Sequence[float],
    bins: int,
    support: tuple[float, float] | None = None,
) -> EmpiricalDistribution:
    """Equal-width histogram of scalar samples.

    ``support`` fixes the range so that two sample sets can share bins;
    out-of-range samples are dropped and the rest renormalized.
    """
    arr = _finite_samples(samples)
    if arr.size == 0:
        raise EmptySamples("need at least one sample")
    counts, edges = _histogram(arr, bins, support)
    total = int(counts.sum())
    if total == 0:
        raise EmptySamples("no samples fall inside the requested support")
    return EmpiricalDistribution(edges=edges, masses=counts / total, n_samples=total)


_BYTE_EDGES = np.arange(257, dtype=float) - 0.5
_BYTE_EDGES.flags.writeable = False  # shared by every byte histogram


def byte_counts(blob: bytes) -> np.ndarray:
    """Byte-value counts (256 categories), the default observable for opaque
    cover content before normalizing; sums of counts pool several blobs."""
    return np.bincount(np.frombuffer(blob, dtype=np.uint8), minlength=256)


def normalize_byte_counts(counts: np.ndarray) -> EmpiricalDistribution:
    """Byte-value histogram of (possibly pooled) byte counts."""
    total = int(counts.sum())
    if total == 0:
        raise EmptySamples("no bytes supplied")
    return EmpiricalDistribution(edges=_BYTE_EDGES, masses=counts / total, n_samples=total)


# Row-batched kernels: each metric on two (rows, bins) mass matrices over
# shared bins, one value per row.  Each row reduces along axis 1 exactly as a
# lone 1-D vector would, so batching never moves a value.


def _at_least_zero(values: np.ndarray) -> np.ndarray:
    """``max(0.0, v)`` per value: nonnegative in exact arithmetic, rounding
    can leave about -1e-18."""
    return np.where(values > 0.0, values, 0.0)


def _kl(pm: np.ndarray, qm: np.ndarray, n_p: int, n_q: int) -> np.ndarray:
    pm = pm + 1.0 / (2.0 * n_p)
    qm = qm + 1.0 / (2.0 * n_q)
    pm = pm / pm.sum(axis=1, keepdims=True)
    qm = qm / qm.sum(axis=1, keepdims=True)
    return _at_least_zero((pm * np.log(pm / qm)).sum(axis=1))


def _js_terms(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    """Each cell's ``0.5*tA + 0.5*tB``, the sides' ``p * log(p / mid)`` (0 where p = 0), clamped
    at 0 (it is >= 0 by the log-sum inequality; rounding can leave about -1e-18) and rounded once
    to an int64 multiple of 2**-60.  A row of k cells sums below ln 2 * 2**60 + k < 2**63."""
    both = np.stack([pm, qm])
    mid = (pm + qm) / 2.0
    terms = both * np.log(np.divide(both, mid, out=np.ones_like(both), where=both > 0))
    return np.rint(np.maximum(0.5 * terms[0] + 0.5 * terms[1], 0.0) * 2.0**60).astype(np.int64)


def _js(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    """JS per row: one exact integer sum of its k cells' terms, so no value depends on the
    batch, the bin order or the empty bins; rounding the terms moves it by at most k * 2**-61."""
    return _js_terms(pm, qm).sum(axis=1) * 2.0**-60


def _tv(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(pm - qm).sum(axis=1)


def _w1(pm: np.ndarray, qm: np.ndarray, center_gaps: np.ndarray) -> np.ndarray:
    cdf_gap = np.cumsum(pm - qm, axis=1)[:, :-1]
    return (np.abs(cdf_gap) * center_gaps).sum(axis=1)


def _one_row(
    kernel: Callable[..., np.ndarray], p: EmpiricalDistribution, q: EmpiricalDistribution, *args
) -> float:
    """``kernel`` on the masses of two distributions over the same bins."""
    shared = p.edges is q.edges  # byte histograms all share one edges array
    if not shared and (p.bins != q.bins or not np.array_equal(p.edges, q.edges)):
        raise BinMismatch("distributions use different bins")
    return float(kernel(p.masses[None], q.masses[None], *args)[0])


def kl(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """KL divergence (natural log) with additive smoothing.

    Each side gets 1/(2 * its own sample count) pseudo-mass per bin, then is
    renormalized; empirical zeros would otherwise make the value infinite.
    """
    return _one_row(_kl, p, q, p.n_samples, q.n_samples)


def js(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Jensen-Shannon divergence, natural log, bounded by ln 2."""
    return _one_row(_js, p, q)


def tv(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Total variation distance, in [0, 1]."""
    return _one_row(_tv, p, q)


def w1(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """1-Wasserstein distance over the bin-center metric."""
    return _one_row(_w1, p, q, np.diff(p.centers))


METRICS: dict[str, Callable[..., float]] = {f.__name__: f for f in (kl, js, tv, w1)}

VERDICT_INDISTINGUISHABLE = "indistinguishable-at-epsilon"
VERDICT_DISTINGUISHABLE = "distinguishable"


@dataclass(frozen=True)
class DistanceReport:
    metric: str
    value: float
    epsilon: float
    elapsed: float
    verdict: str
    bins: int
    n_a: int
    n_b: int


def _pooled_support(samples_a: Sequence[float], samples_b: Sequence[float], metric: str):
    """Both sample sets as arrays, then pooled, and the range their shared
    bins span: (a, b, pooled, (low, high)); the metric is checked first."""
    if metric not in METRICS:
        raise InvalidParams(f"unknown metric {show(metric)}; choose from {sorted(METRICS)}")
    a, b = _finite_samples(samples_a), _finite_samples(samples_b)
    if a.size == 0 or b.size == 0:
        raise EmptySamples("both sample sets must be non-empty")
    if 0 in (a.ndim, b.ndim) or a.shape[1:] != b.shape[1:]:  # what np.concatenate refuses
        raise InvalidParams(f"cannot pool samples of shapes {a.shape} and {b.shape}")
    pooled = np.concatenate([a, b])
    return a, b, pooled, (float(pooled.min()), float(pooled.max()))


def distinguishability_test(
    samples_a: Sequence[float], samples_b: Sequence[float], epsilon: float, metric: str = "js", bins: int = 64
) -> DistanceReport:
    """Histogram both sample sets over their pooled range and compare.

    Verdict is 'distinguishable' iff the metric value exceeds epsilon; any
    single metric past its threshold is enough to separate two sources, so
    callers probing several metrics should take the OR of verdicts.
    """
    check_real("epsilon", epsilon)
    start = time.perf_counter()
    a, b, _, support = _pooled_support(samples_a, samples_b, metric)
    dist_a = estimate_distribution(a, bins, support=support)
    dist_b = estimate_distribution(b, bins, support=support)
    value = METRICS[metric](dist_a, dist_b)
    elapsed = time.perf_counter() - start
    verdict = VERDICT_DISTINGUISHABLE if value > epsilon else VERDICT_INDISTINGUISHABLE
    return DistanceReport(
        metric=metric, value=value, epsilon=epsilon, elapsed=elapsed, verdict=verdict,
        bins=bins, n_a=int(a.size), n_b=int(b.size),
    )


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` bit for bit: numpy's "linear" rule, its ``_lerp``
    between the order statistics next to numpy's virtual index, or the maximum."""
    at = (len(values) - 1) * (q / 100)
    lo, hi = (int(at), int(at) + 1) if at < len(values) - 1 else (-1, -1)
    part = np.partition(values, (0, lo, hi, -1))  # numpy's own partition points
    a, b, t = float(part[lo]), float(part[hi]), at - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def calibrate_epsilon(
    samples_a: Sequence[float], samples_b: Sequence[float], metric: str = "js", bins: int = 64,
    runs: int = 200, percentile: float = 99.0, seed: int = 0,
) -> float:
    """Permutation-null threshold: the given percentile of the metric over
    random resplits of the pooled samples, each drawn as the first side's
    count per non-empty bin (multivariate hypergeometric, largest bin first,
    row after row, so no value depends on ``CHUNK_CELLS``).  KL, TV and W1
    score full-width rows.  JS sums, per run, its k non-empty bins' terms from
    a per-block table of ``_js_terms`` at the counts drawn there: each cell's
    ``0.5*tA + 0.5*tB`` rounded once to an int64 multiple of 2**-60, as ``_js``
    rounds it on the full row, so the exact integer sums make each value
    ``_js``'s bit for bit.  The rounding moves a value by at most k * 2**-61;
    it moved JS values and thresholds once, in their last digits, from the
    float row sums it replaced.  Every block is drawn once; memory is O(block + runs).
    """
    check_int("runs", runs, low=1)
    check_real("percentile", percentile, 0, 100)
    check_seed(seed)
    a, _, pooled, support = _pooled_support(samples_a, samples_b, metric)
    pooled_counts, edges = _histogram(pooled, bins, support)
    pooled_dist = EmpiricalDistribution(edges, pooled_counts / pooled.size, pooled.size)  # checks edges
    n_a, n_b = a.size, pooled.size - a.size
    # the non-empty bins, largest first and ties in bin order
    filled = np.argsort(-pooled_counts, kind="stable")[: np.count_nonzero(pooled_counts)]
    colours = pooled_counts[filled]
    kernel = {"kl": partial(_kl, n_p=n_a, n_q=n_b), "tv": _tv,
              "w1": partial(_w1, center_gaps=np.diff(pooled_dist.centers))}.get(metric)  # JS: tables
    gen = np.random.Generator(np.random.Philox(key=seed))
    block = max(1, CHUNK_CELLS // (filled.size if metric == "js" else bins))
    values = np.empty(runs)
    for start in range(0, runs, block):
        counts = gen.multivariate_hypergeometric(colours, n_a, size=min(block, runs - start), method="marginals")
        if metric == "js":  # a table of each bin's terms at its drawn counts lo..hi
            lo, hi = counts.min(axis=0), counts.max(axis=0)
            offsets = np.cumsum(hi - lo + 1) - hi - 1  # count a of bin i is cell offsets[i] + a
            cell_a = np.arange(offsets[-1] + hi[-1] + 1) - np.repeat(offsets, hi - lo + 1)
            cell_b = np.repeat(colours, hi - lo + 1) - cell_a
            table = _js_terms(cell_a / n_a, cell_b / n_b)
            values[start : start + block] = table[counts + offsets].sum(axis=1) * 2.0**-60
        else:
            full = np.zeros((len(counts), bins), dtype=counts.dtype)
            full[:, filled] = counts
            values[start : start + block] = kernel(full / n_a, (pooled_counts - full) / n_b)
    return _percentile(values, float(percentile))
