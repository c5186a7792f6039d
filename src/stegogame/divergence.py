"""Histogram distances between observable distributions, with a verdict.

Two sample sets are reduced to equal-width histograms over a shared support,
then compared under KL, Jensen-Shannon, total variation, or 1-Wasserstein.
A pair is called distinguishable at threshold epsilon when the chosen
distance exceeds epsilon; a permutation-null helper picks a defensible
epsilon when the caller has none.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

from .errors import BinMismatch, EmptySamples, InvalidParams

MASS_TOLERANCE = 1e-12


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidParams(f"{name} must be >= 1, got {value}")


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
        if self.n_samples < 1:
            raise InvalidParams("n_samples must be >= 1")

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
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise EmptySamples("need at least one sample")
    _check_count("bins", bins)
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


# Masses-level kernels: the arithmetic of each metric on two mass vectors
# over bins already known to be shared.  The public metrics check the bins
# and call these; calibrate_epsilon calls them on bins it checked once.


def _kl(pm: np.ndarray, qm: np.ndarray, n_p: int, n_q: int) -> float:
    pm = pm + 1.0 / (2.0 * n_p)
    qm = qm + 1.0 / (2.0 * n_q)
    pm = pm / pm.sum()
    qm = qm / qm.sum()
    # nonnegative in exact arithmetic; rounding can leave about -1e-18
    return max(0.0, float((pm * np.log(pm / qm)).sum()))


def _rel_entropy_to_mid(a: np.ndarray, mid: np.ndarray) -> float:
    mask = a > 0  # where a > 0, mid > 0 too
    a = a[mask]
    return float((a * np.log(a / mid[mask])).sum())


def _js(pm: np.ndarray, qm: np.ndarray) -> float:
    mid = (pm + qm) / 2.0
    value = 0.5 * _rel_entropy_to_mid(pm, mid) + 0.5 * _rel_entropy_to_mid(qm, mid)
    return max(0.0, value)  # as for kl, rounding can dip just below zero


def _tv(pm: np.ndarray, qm: np.ndarray) -> float:
    return float(0.5 * np.abs(pm - qm).sum())


def _w1(pm: np.ndarray, qm: np.ndarray, center_gaps: np.ndarray) -> float:
    cdf_gap = np.cumsum(pm - qm)[:-1]
    return float((np.abs(cdf_gap) * center_gaps).sum())


def kl(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """KL divergence (natural log) with additive smoothing.

    Each side gets 1/(2 * its own sample count) pseudo-mass per bin, then is
    renormalized; empirical zeros would otherwise make the value infinite.
    """
    _require_same_bins(p, q)
    return _kl(p.masses, q.masses, p.n_samples, q.n_samples)


def js(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Jensen-Shannon divergence, natural log, bounded by ln 2."""
    _require_same_bins(p, q)
    return _js(p.masses, q.masses)


def tv(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Total variation distance, in [0, 1]."""
    _require_same_bins(p, q)
    return _tv(p.masses, q.masses)


def w1(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """1-Wasserstein distance over the bin-center metric."""
    _require_same_bins(p, q)
    return _w1(p.masses, q.masses, np.diff(p.centers))


METRICS: dict[str, Callable[[EmpiricalDistribution, EmpiricalDistribution], float]] = {
    "kl": kl,
    "js": js,
    "tv": tv,
    "w1": w1,
}

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
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptySamples("both sample sets must be non-empty")
    pooled = np.concatenate([a, b])
    if not np.all(np.isfinite(pooled)):
        raise InvalidParams("samples must be finite numbers, not nan or inf")
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
    if not math.isfinite(epsilon):
        raise InvalidParams("epsilon must be finite")
    start = time.perf_counter()
    a, b, _, support = _pooled_support(samples_a, samples_b)
    dist_a = estimate_distribution(a, bins, support=support)
    dist_b = estimate_distribution(b, bins, support=support)
    value = METRICS[metric](dist_a, dist_b)
    elapsed = time.perf_counter() - start
    verdict = VERDICT_DISTINGUISHABLE if value > epsilon else VERDICT_INDISTINGUISHABLE
    return DistanceReport(
        metric=metric,
        value=value,
        epsilon=epsilon,
        elapsed=elapsed,
        verdict=verdict,
        bins=bins,
        n_a=int(a.size),
        n_b=int(b.size),
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

    Every pooled sample is binned once, and the bins are checked once: each
    run permutes the bin indices, counts the first side, takes the second
    side's counts as the pooled counts minus the first side's, and hands
    both mass vectors to the metric's kernel.
    """
    if metric not in METRICS:
        raise InvalidParams(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    _check_count("bins", bins)
    _check_count("runs", runs)
    real = isinstance(percentile, Real) and not isinstance(percentile, bool)
    if not (real and 0 <= percentile <= 100):
        raise InvalidParams(f"percentile must be a real number in [0, 100], got {percentile!r}")
    a, _, pooled, support = _pooled_support(samples_a, samples_b)
    edges = np.histogram_bin_edges(pooled, bins, range=support)
    # the bin np.histogram gives each sample: edges[i] <= v < edges[i+1],
    # with the top edge in the last bin
    index = np.minimum(np.searchsorted(edges, pooled, side="right") - 1, bins - 1)
    pooled_counts = np.bincount(index, minlength=bins)
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

    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    values = np.empty(runs)
    for run in range(runs):
        # the stream of Philox(key=seed, counter=run << 128), set in place
        # (word 2 of the 256-bit counter): a new generator per run would
        # cost more than the run's counting
        fresh["state"]["counter"][2] = run
        bitgen.state = fresh
        counts_a = np.bincount(gen.permutation(index)[:n_a], minlength=bins)
        values[run] = kernel(counts_a / n_a, (pooled_counts - counts_a) / n_b)
    return float(np.percentile(values, percentile))
