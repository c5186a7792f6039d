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
from typing import Callable, Sequence

import numpy as np

from .errors import BinMismatch, EmptySamples, InvalidParams, check_int, check_real, check_seed

MASS_TOLERANCE = 1e-12
# calibrate_epsilon draws and scores its resplits in blocks of about this many count cells
CHUNK_CELLS = 4096


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
    check_int("bins", bins, low=1)
    if support is not None and not (-math.inf < support[0] <= support[1] < math.inf):
        raise InvalidParams(f"support must be finite with low <= high, got {support!r}")
    counts, edges = np.histogram(arr, bins=bins, range=support)
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


def _require_same_bins(p: EmpiricalDistribution, q: EmpiricalDistribution) -> None:
    shared = p.edges is q.edges  # byte histograms all share one edges array
    if not shared and (p.bins != q.bins or not np.array_equal(p.edges, q.edges)):
        raise BinMismatch("distributions use different bins")


# Row-batched kernels: the arithmetic of each metric on two (rows, bins)
# mass matrices over bins already known to be shared, one value per row.
# The public metrics check the bins and score one row; calibrate_epsilon
# scores a block of resplits per call on bins it checked once.  Each row
# reduces along axis 1 exactly as a lone 1-D vector would (row sums, cumsums
# and logs round as the 1-D calls do), so batching never moves a value; JS
# sums both sides' rows in groups of equal kept-cell count, each on its own.


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


def _rel_entropy_to_mid(a: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Row sums of ``a * log(a / mid)`` over the cells where a > 0 (there
    mid > 0 too), with rows sorted by kept-cell count k: the terms of each run
    of rows with one k lie back to back and sum as one (rows, k) matrix along
    axis 1.  A zero-padded row or ``np.add.reduceat`` would round differently."""
    mask = a > 0
    counts = np.count_nonzero(mask, axis=1)
    order = np.argsort(counts, kind="stable")
    a, mid, mask = a[order], mid[order], mask[order]
    kept = a[mask]
    terms = kept * np.log(kept / mid[mask])
    rows = np.bincount(counts)  # rows per kept count k, in the sorted order
    ks = np.flatnonzero(rows)
    sums, start = [], 0
    for k, n in zip(ks.tolist(), rows[ks].tolist()):
        sums.append(terms[start : start + n * k].reshape(n, k).sum(axis=1))
        start += n * k
    return np.concatenate(sums)[np.argsort(order)]


def _js(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    mid = (pm + qm) / 2.0
    both = _rel_entropy_to_mid(np.concatenate([pm, qm]), np.concatenate([mid, mid]))
    return _at_least_zero(0.5 * both[: len(pm)] + 0.5 * both[len(pm) :])


def _tv(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(pm - qm).sum(axis=1)


def _w1(pm: np.ndarray, qm: np.ndarray, center_gaps: np.ndarray) -> np.ndarray:
    cdf_gap = np.cumsum(pm - qm, axis=1)[:, :-1]
    return (np.abs(cdf_gap) * center_gaps).sum(axis=1)


def _one_row(
    kernel: Callable[..., np.ndarray], p: EmpiricalDistribution, q: EmpiricalDistribution, *args
) -> float:
    """``kernel`` on the masses of two distributions over the same bins."""
    _require_same_bins(p, q)
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


def _pooled_support(samples_a: Sequence[float], samples_b: Sequence[float]):
    """Both sample sets as arrays, then pooled, and the range their shared
    bins span: (a, b, pooled, (low, high))."""
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
    if metric not in METRICS:
        raise InvalidParams(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    check_real("epsilon", epsilon)
    start = time.perf_counter()
    a, b, _, support = _pooled_support(samples_a, samples_b)
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

    A resplit's only output is the first side's count per pooled bin, which
    is multivariate hypergeometric: the pooled counts are the colours, the
    first side's size the sample size.  Each block of about ``CHUNK_CELLS``
    count cells draws its rows in one call and scores them in one kernel
    call; ``marginals`` draws row after row, so no value depends on the
    block size.
    """
    if metric not in METRICS:
        raise InvalidParams(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    check_int("bins", bins, low=1)
    check_int("runs", runs, low=1)
    check_real("percentile", percentile)
    if not 0 <= percentile <= 100:
        raise InvalidParams(f"percentile must be a real number in [0, 100], got {percentile!r}")
    check_seed(seed)
    a, _, pooled, support = _pooled_support(samples_a, samples_b)
    pooled_counts, edges = np.histogram(pooled, bins, range=support)
    # the one validation of these edges (and of the pooled masses) per call
    pooled_dist = EmpiricalDistribution(
        edges=edges, masses=pooled_counts / pooled.size, n_samples=pooled.size
    )
    n_a, n_b = a.size, pooled.size - a.size
    kernel = {
        "kl": partial(_kl, n_p=n_a, n_q=n_b),
        "js": _js,
        "tv": _tv,
        "w1": partial(_w1, center_gaps=np.diff(pooled_dist.centers)),
    }[metric]

    gen = np.random.Generator(np.random.Philox(key=seed))
    block = max(1, CHUNK_CELLS // bins)
    values = np.empty(runs)
    for start in range(0, runs, block):
        counts_a = gen.multivariate_hypergeometric(
            pooled_counts, n_a, size=min(block, runs - start), method="marginals"
        )
        values[start : start + len(counts_a)] = kernel(
            counts_a / n_a, (pooled_counts - counts_a) / n_b
        )
    return float(np.percentile(values, percentile))
