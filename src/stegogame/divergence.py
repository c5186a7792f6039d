"""Histogram distances between observable distributions, with a verdict.

Two sample sets are reduced to equal-width histograms over a shared support,
then compared under KL, Jensen-Shannon, total variation, or 1-Wasserstein.
A pair is called distinguishable at threshold epsilon when the chosen
distance exceeds epsilon; a permutation-null helper, drawing resplit counts
from their hypergeometric law, picks epsilon when the caller has none.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import BinMismatch, EmptySamples, InvalidParams, check_choice, check_int, check_real, check_seed, show

MASS_TOLERANCE = 1e-12
# calibrate_epsilon's block of resplits, in count cells: rows of the non-empty bins' counts
CHUNK_CELLS = 16384
# The most bins a histogram may have: it bounds only np.histogram's arrays, all else is per non-empty bin
MAX_BINS = 1 << 16
# calibrate_epsilon's runs: run i draws on stream i // STREAM_RUNS, and at most MAX_RUNS are
# drawn.  Each costs 8 bytes of values (128 MiB at 2**24); 2**20 runs of JS or TV on 500 + 500
# samples in 64 bins took about 10 s (numpy 2.4, 2 cores), and time grows linearly in runs.
STREAM_RUNS = 2048
MAX_RUNS = 1 << 24


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
        check_int("n_samples", self.n_samples, low=1, high=1 << 62)  # KL needs ln(2n + bins) < 64

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
    check_int("bins", bins, 1, high=MAX_BINS)
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


# Each metric is an int64 sum of per-cell terms in whole units, over the bins non-empty on either side:
# exact in any order or batch (the pre-rounding of reproducible summation, Demmel & Nguyen, ARITH 2013).
UNITS = {"kl": 2.0**-57, "js": 2.0**-60, "tv": 2.0**-60, "w1": 2.0**-60}


def _terms(metric: str, pm, qm, n_p=1, n_q=1, bins=1, span=1.0, centers=None, order=slice(None)) -> np.ndarray:
    """Each cell's term in int64 units of ``UNITS[metric]``, the cells on the last axis.  KL:
    ``p * log(p / q)`` of masses smoothed to ``(m + 1/(2n)) / (1 + bins/(2n))``, n each side's
    sample count; the masses sum to 1 within MASS_TOLERANCE, so that divisor is the smoothed sum's
    and each empty bin has one same term.  Terms sum above -1/e, a row below ln(2 n_q + bins) < 64.
    JS: ``0.5*tA + 0.5*tB``, the sides' ``p * log(p / mid)`` (0 where p = 0), clamped at 0 against
    rounding (it is >= 0 by the log-sum inequality).  TV: half of ``|p - q|``.  W1: the CDF gap,
    cells in bin ``order``, times the distance to the next of ``centers`` (the cells', then the
    last bin's) over the edges' ``span``.  JS, TV and W1 rows sum to at most 1."""
    if metric == "kl":
        pm, qm = ((m + 1.0 / (2.0 * n)) / (1.0 + bins / (2.0 * n)) for m, n in ((pm, n_p), (qm, n_q)))
        cells = pm * np.log(pm / qm)
    elif metric == "js":
        both, mid = np.stack([pm, qm]), (pm + qm) / 2.0
        sides = both * np.log(np.divide(both, mid, out=np.ones_like(both), where=both > 0))
        cells = np.maximum(0.5 * sides[0] + 0.5 * sides[1], 0.0)
    elif metric == "tv":
        cells = 0.5 * np.abs(pm - qm)
    else:
        cells = np.abs(np.cumsum((pm - qm)[..., order], axis=-1)) * (np.diff(centers) / span)
    return np.rint(cells / UNITS[metric]).astype(np.int64)


def _total(metric: str, sums, kept=0, n_p=1, n_q=1, bins=1, span=1.0, **_):
    """Row sums of ``_terms`` over ``kept`` cells, finished: KL's ``bins - kept`` empty terms, the
    unit (and W1's span), and a clamp at 0 against KL's rounding."""
    if metric == "kl":
        sums = sums + (bins - kept) * _terms("kl", np.zeros(1), np.zeros(1), n_p, n_q, bins)[0]
    return np.maximum(sums * UNITS[metric] * (span if metric == "w1" else 1.0), 0.0)


def _js(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    """JS per row of two (rows, bins) mass matrices, the SCOA adversary's batch."""
    return _total("js", _terms("js", pm, qm).sum(axis=1))


def _one_row(metric: str, p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """``metric`` on two distributions over the same bins, from the bins non-empty on either side."""
    if not np.array_equal(p.edges, q.edges):
        raise BinMismatch("distributions use different bins")
    kept = np.flatnonzero(p.masses + q.masses)  # the masses are non-negative
    frame = {"n_p": p.n_samples, "n_q": q.n_samples, "bins": p.bins, "span": p.edges[-1] - p.edges[0],
             "centers": p.centers[np.append(kept, -1)] if metric == "w1" else None}
    return float(_total(metric, _terms(metric, p.masses[kept], q.masses[kept], **frame).sum(), kept.size, **frame))


def kl(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """KL divergence (natural log) with additive smoothing.

    Each side gets 1/(2 * its own sample count) pseudo-mass per bin, then is
    divided by its smoothed sum, 1 + bins/(2 * that count); empirical zeros
    would otherwise make the value infinite.
    """
    return _one_row("kl", p, q)


def js(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Jensen-Shannon divergence, natural log, bounded by ln 2."""
    return _one_row("js", p, q)


def tv(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Total variation distance, in [0, 1]."""
    return _one_row("tv", p, q)


def w1(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """1-Wasserstein distance over the bin-center metric."""
    return _one_row("w1", p, q)


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
    check_choice("metric", metric, sorted(METRICS))
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
    part = values.copy()
    part.partition((0, lo, hi, -1))  # numpy's own partition points
    a, b, t = float(part[lo]), float(part[hi]), at - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def calibrate_epsilon(
    samples_a: Sequence[float], samples_b: Sequence[float], metric: str = "js", bins: int = 64,
    runs: int = 200, percentile: float = 99.0, seed: int = 0,
) -> float:
    """Permutation-null threshold: the given percentile of the metric over
    random resplits of the pooled samples, each drawn as the first side's
    count per non-empty bin (multivariate hypergeometric, largest bin first).
    Run i is drawn on stream s = i // ``STREAM_RUNS``, ``Philox(key=seed,
    counter=s << 128)``, row after row, so no value depends on ``CHUNK_CELLS``
    or on how many threads draw: the calling thread draws the even streams and,
    from two streams on, one more thread the odd ones, each lane half a block at
    a time.  Each value is the public kernel's on the full-width row, bit for
    bit: KL, JS and TV sum a run's k terms from a per-lane table of each bin's
    terms, over the counts drawn so far widened by a block's spread each side
    (in [0, c]), rebuilt only when a block's counts leave it, and W1 scores the
    counts in bin order.  Memory is O(block + runs), the table O(drawn spread),
    never O(samples); more than ``MAX_RUNS`` runs is refused.
    """
    check_int("runs", runs, 1, high=MAX_RUNS)
    check_real("percentile", percentile, 0, 100)
    check_seed(seed)
    a, _, pooled, support = _pooled_support(samples_a, samples_b, metric)
    pooled_counts, edges = _histogram(pooled, bins, support)
    pooled_dist = EmpiricalDistribution(edges, pooled_counts / pooled.size, pooled.size)  # checks edges
    n_a, n_b = a.size, pooled.size - a.size
    # the non-empty bins, largest first and ties in bin order
    filled = np.argsort(-pooled_counts, kind="stable")[: np.count_nonzero(pooled_counts)]
    colours = pooled_counts[filled]
    frame = {"n_p": n_a, "n_q": n_b, "bins": bins, "span": edges[-1] - edges[0]}
    if metric == "w1":  # its gaps run over the drawn columns in bin order, each to the next centre
        order = np.argsort(filled)
        frame.update(order=order, centers=pooled_dist.centers[np.append(filled[order], -1)])
    streams = -(-runs // STREAM_RUNS)
    # with two lanes, two blocks are in flight, so each holds half of what one would
    block = max(1, CHUNK_CELLS // filled.size // min(streams, 2))
    values, faults = np.empty(runs), []

    def lane(first: int) -> None:  # streams first, first + 2, ..., each a block at a time
        lo, hi = colours, np.zeros_like(colours)  # this lane's table: each bin's terms at counts lo..hi, none yet
        try:
            for stream in range(first, streams, 2):
                gen = np.random.Generator(np.random.Philox(key=seed, counter=stream << 128))
                end = min(runs, (stream + 1) * STREAM_RUNS)
                for start in range(stream * STREAM_RUNS, end, block):
                    stop = min(start + block, end)
                    counts = gen.multivariate_hypergeometric(colours, n_a, size=stop - start, method="marginals")
                    if metric == "w1":
                        sums = _terms(metric, counts / n_a, (colours - counts) / n_b, **frame).sum(axis=1)
                    else:
                        low, high = counts.min(axis=0), counts.max(axis=0)
                        if (low < lo).any() or (high > hi).any():  # rebuilt over this block too, widened by its spread
                            lo = np.minimum(lo, np.maximum(2 * low - high, 0))
                            hi = np.maximum(hi, np.minimum(2 * high - low, colours))
                            offsets = np.cumsum(hi - lo + 1) - hi - 1  # count a of bin i is cell offsets[i] + a
                            cell_a = np.arange(offsets[-1] + hi[-1] + 1) - np.repeat(offsets, hi - lo + 1)
                            cell_b = np.repeat(colours, hi - lo + 1) - cell_a
                            table = _terms(metric, cell_a / n_a, cell_b / n_b, **frame)
                        sums = table[counts + offsets].sum(axis=1)
                    values[start:stop] = _total(metric, sums, filled.size, **frame)
        except BaseException as exc:  # raised again in the caller, after the join
            faults.append(exc)

    # the draws release the GIL, so a second thread runs the odd streams on another core
    worker = threading.Thread(target=lane, args=(1,)) if streams > 1 else None
    if worker:
        worker.start()
    lane(0)
    if worker:
        worker.join()
    if faults:
        raise faults[0]
    return _percentile(values, float(percentile))
