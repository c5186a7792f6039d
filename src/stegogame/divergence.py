"""Histogram distances between observable distributions, with a verdict.

Two sample sets are reduced to equal-width histograms over a shared support,
then compared under KL, Jensen-Shannon, total variation, or 1-Wasserstein.
A pair is called distinguishable at threshold epsilon when the chosen
distance exceeds epsilon; a permutation-null helper, drawing resplit counts
from their hypergeometric law, picks epsilon when the caller has none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import BinMismatch, EmptySamples, InvalidParams, check_int, check_real, check_seed

MASS_TOLERANCE = 1e-12
# calibrate_epsilon's block of resplits, in count cells: non-empty bins for JS, else all bins
CHUNK_CELLS = 16384


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
    """``np.histogram``; a support (None: the samples' range) that ``bins`` finite bins
    cannot cut is InvalidParams (on older numpy, from EmpiricalDistribution's edge check)."""
    check_int("bins", bins, low=1)
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


def _js_terms(pm: np.ndarray, qm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' cell terms ``p * log(p / mid)``, side A's rows on side B's,
    and where they are kept: where p > 0 (there mid > 0 too); 0 elsewhere."""
    mid = (pm + qm) / 2.0
    both = np.concatenate([pm, qm])
    keep = both > 0
    ratio = np.divide(both, np.concatenate([mid, mid]), out=np.ones_like(both), where=keep)
    return both * np.log(ratio), keep


def _js_of_terms(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """JS from :func:`_js_terms`.  The rows of one kept count k are selected
    together, so their kept terms sum as one (rows, k) matrix along axis 1; a
    zero-padded row or ``np.add.reduceat`` would round differently."""
    counts = np.count_nonzero(keep, axis=1)
    sums = np.empty(len(counts))
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        rows = counts == k
        sums[rows] = terms[rows][keep[rows]].reshape(-1, k).sum(axis=1)
    half = len(sums) // 2
    return _at_least_zero(0.5 * sums[:half] + 0.5 * sums[half:])


def _js(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    return _js_of_terms(*_js_terms(pm, qm))


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
        raise InvalidParams(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    a, b = _finite_samples(samples_a), _finite_samples(samples_b)
    if a.size == 0 or b.size == 0:
        raise EmptySamples("both sample sets must be non-empty")
    if 0 in (a.ndim, b.ndim) or a.shape[1:] != b.shape[1:]:  # what np.concatenate refuses
        raise InvalidParams(f"cannot pool samples of shapes {a.shape} and {b.shape}")
    pooled = np.concatenate([a, b])
    return a, b, pooled, (float(pooled.min()), float(pooled.max()))


def distinguishability_test(
    samples_a: Sequence[float],
    samples_b: Sequence[float],
    epsilon: float,
    metric: str = "js",
    bins: int = 64,
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


def calibrate_epsilon(
    samples_a: Sequence[float],
    samples_b: Sequence[float],
    metric: str = "js",
    bins: int = 64,
    runs: int = 200,
    percentile: float = 99.0,
    seed: int = 0,
) -> float:
    """Permutation-null threshold: pool the samples, resplit at random many
    times, and return the given percentile of the null distances.

    A resplit's only output is the first side's count per pooled bin:
    multivariate hypergeometric, the pooled counts as colours.  An empty bin
    is 0 on both sides of every resplit, so only the non-empty bins are
    drawn, largest first (the same law, drawn faster), row after row, so no
    value depends on ``CHUNK_CELLS``.  JS takes a block's terms from a table
    over each bin's drawn counts; the others score full-width rows.
    """
    check_int("runs", runs, low=1)
    check_real("percentile", percentile)
    if not 0 <= percentile <= 100:
        raise InvalidParams(f"percentile must be a real number in [0, 100], got {percentile!r}")
    check_seed(seed)
    a, _, pooled, support = _pooled_support(samples_a, samples_b, metric)
    pooled_counts, edges = _histogram(pooled, bins, support)
    pooled_dist = EmpiricalDistribution(edges, pooled_counts / pooled.size, pooled.size)  # checks edges
    n_a, n_b = a.size, pooled.size - a.size
    filled = np.flatnonzero(pooled_counts)
    colours = pooled_counts[filled]
    order = np.argsort(-colours, kind="stable")
    undo = np.argsort(order)
    kernel = {
        "kl": partial(_kl, n_p=n_a, n_q=n_b),
        "tv": _tv,
        "w1": partial(_w1, center_gaps=np.diff(pooled_dist.centers)),
    }.get(metric)

    gen = np.random.Generator(np.random.Philox(key=seed))
    block = max(1, CHUNK_CELLS // (filled.size if metric == "js" else bins))
    values = np.empty(runs)
    for start in range(0, runs, block):
        counts = gen.multivariate_hypergeometric(
            colours[order], n_a, size=min(block, runs - start), method="marginals"
        )[:, undo]
        if metric == "js":  # a table of both sides' terms at each bin's drawn counts lo..hi
            lo, hi = counts.min(axis=0), counts.max(axis=0)
            offsets = np.cumsum(hi - lo + 1) - hi - 1  # count a of bin i is cell offsets[i] + a
            cell_a = np.arange(offsets[-1] + hi[-1] + 1) - np.repeat(offsets, hi - lo + 1)
            cell_b = np.repeat(colours, hi - lo + 1) - cell_a
            table, kept = (t.ravel() for t in _js_terms(cell_a[None] / n_a, cell_b[None] / n_b))
            cells = np.concatenate([counts + offsets, counts + (offsets + cell_a.size)])
            values[start : start + len(counts)] = _js_of_terms(table[cells], kept[cells])
        else:
            full = np.zeros((len(counts), bins), dtype=counts.dtype)
            full[:, filled] = counts
            values[start : start + len(counts)] = kernel(full / n_a, (pooled_counts - full) / n_b)
    return float(np.percentile(values, percentile))
