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
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BinMismatch, EmptySamples, InvalidParams

MASS_TOLERANCE = 1e-12


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
        if not np.all(np.diff(edges) > 0):
            raise InvalidParams("bin edges must be strictly increasing")
        if np.any(masses < 0) or abs(float(masses.sum()) - 1.0) > MASS_TOLERANCE:
            raise InvalidParams("masses must be non-negative and sum to 1")
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
    if bins < 1:
        raise InvalidParams(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(arr, bins=bins, range=support)
    total = int(counts.sum())
    if total == 0:
        raise EmptySamples("no samples fall inside the requested support")
    return EmpiricalDistribution(edges=edges, masses=counts / total, n_samples=total)


def byte_distribution(blobs: Iterable[bytes]) -> EmpiricalDistribution:
    """Byte-value histogram (256 categories), the default observable for
    opaque cover content."""
    counts = np.zeros(256, dtype=np.int64)
    for blob in blobs:
        counts += np.bincount(np.frombuffer(blob, dtype=np.uint8), minlength=256)
    total = int(counts.sum())
    if total == 0:
        raise EmptySamples("no bytes supplied")
    edges = np.arange(257, dtype=float) - 0.5
    return EmpiricalDistribution(edges=edges, masses=counts / total, n_samples=total)


def _require_same_bins(p: EmpiricalDistribution, q: EmpiricalDistribution) -> None:
    if p.bins != q.bins or not np.array_equal(p.edges, q.edges):
        raise BinMismatch("distributions use different bins")


def kl(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """KL divergence (natural log) with additive smoothing.

    Each side gets 1/(2 * its own sample count) pseudo-mass per bin, then is
    renormalized; empirical zeros would otherwise make the value infinite.
    """
    _require_same_bins(p, q)
    pm = p.masses + 1.0 / (2.0 * p.n_samples)
    qm = q.masses + 1.0 / (2.0 * q.n_samples)
    pm = pm / pm.sum()
    qm = qm / qm.sum()
    # nonnegative in exact arithmetic; rounding can leave about -1e-18
    return max(0.0, float(np.sum(pm * np.log(pm / qm))))


def _rel_entropy_to_mid(a: np.ndarray, mid: np.ndarray) -> float:
    mask = a > 0  # where a > 0, mid > 0 too
    return float(np.sum(a[mask] * np.log(a[mask] / mid[mask])))


def js(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Jensen-Shannon divergence, natural log, bounded by ln 2."""
    _require_same_bins(p, q)
    mid = (p.masses + q.masses) / 2.0
    value = 0.5 * _rel_entropy_to_mid(p.masses, mid) + 0.5 * _rel_entropy_to_mid(q.masses, mid)
    return max(0.0, value)  # as for kl, rounding can dip just below zero


def tv(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Total variation distance, in [0, 1]."""
    _require_same_bins(p, q)
    return float(0.5 * np.abs(p.masses - q.masses).sum())


def w1(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """1-Wasserstein distance over the bin-center metric."""
    _require_same_bins(p, q)
    centers = p.centers
    cdf_gap = np.cumsum(p.masses - q.masses)[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(centers)))


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


def _pooled_support(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    pooled = np.concatenate([a, b])
    return float(pooled.min()), float(pooled.max())


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
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptySamples("both sample sets must be non-empty")
    start = time.perf_counter()
    support = _pooled_support(a, b)
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
    times, and return the given percentile of the null distances."""
    if metric not in METRICS:
        raise InvalidParams(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    if runs < 1:
        raise InvalidParams(f"runs must be >= 1, got {runs}")
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptySamples("both sample sets must be non-empty")
    pooled = np.concatenate([a, b])
    support = float(pooled.min()), float(pooled.max())
    values = np.empty(runs)
    for run in range(runs):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=run << 128))
        shuffled = gen.permutation(pooled)
        left = estimate_distribution(shuffled[: a.size], bins, support=support)
        right = estimate_distribution(shuffled[a.size :], bins, support=support)
        values[run] = METRICS[metric](left, right)
    return float(np.percentile(values, percentile))
