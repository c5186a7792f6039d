"""Shared test utilities: independent oracles and synthetic libraries.

The oracles here deliberately avoid the package's own algorithms: rank
order comes from itertools enumeration, coverage probabilities from
exhaustive counting with exact rationals, safe-use counts from a search
whose every probe sums the whole inclusion-exclusion series in rationals,
and permutation-null thresholds from a fresh ``np.histogram`` of every
resplit, or from the metrics' earlier 1-D kernels called once per resplit.  The embed/extract oracle is the earlier string path, composed
from the public bitstring functions: ``xor_bits``, then
``bits_to_arrangement`` or ``arrangement_to_bits``, then ``xor_bits``.
Game observations come from one bit draw per payload, embedded at once.
Monte-Carlo blocks mark each draw's N smallest cells through
``argpartition`` and ``put_along_axis``, one fresh array per draw.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np

from stegogame.bits import xor_bits
from stegogame.divergence import METRICS, EmpiricalDistribution
from stegogame.errors import LengthMismatch, NotInLibrary
from stegogame.library import CoverEntry, CoverLibrary, hash_bytes
from stegogame.permcodec import Arrangement, arrangement_to_bits, bits_to_arrangement, capacity
from stegogame.stego import Message, StegoSequence


def lex_arrangements(T: int, N: int) -> list[tuple[int, ...]]:
    """All N-arrangements of range(T) in lexicographic order."""
    return list(itertools.permutations(range(T), N))


def coverage_enumeration(x: int, N: int, T: int) -> Fraction:
    """Exhaustive coverage probability: count draw-tuples of N-subsets whose
    union is everything, over all C(T,N)**x equally likely tuples."""
    subsets = list(itertools.combinations(range(T), N))
    full = frozenset(range(T))
    hits = 0
    for draw in itertools.product(subsets, repeat=x):
        seen = frozenset(itertools.chain.from_iterable(draw))
        if seen == full:
            hits += 1
    total = len(subsets) ** x
    return Fraction(hits, total)


def coverage_inclusion_exclusion(x: int, N: int, T: int) -> Fraction:
    """Coverage for x >= 1 as the full inclusion-exclusion sum, added term
    by term in rationals."""
    total = Fraction(0)
    for y in range(T - N + 1):
        term = comb(T, y) * Fraction(comb(T - y, N), comb(T, N)) ** x
        total += -term if y % 2 else term
    return total


def max_safe_uses_reference(N: int, T: int, zeta: float) -> int:
    """Largest x with coverage below zeta, by exponential then binary search
    over complete rational sums compared with the exact value of zeta."""
    bound = Fraction(zeta)
    if N == T:
        return 0
    hi = 1
    while coverage_inclusion_exclusion(hi, N, T) < bound:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if coverage_inclusion_exclusion(mid, N, T) < bound:
            lo = mid
        else:
            hi = mid
    return hi - 1


def smallest_mask_reference(u: np.ndarray, N: int) -> np.ndarray:
    """The cells ``argpartition`` names as each row's N smallest values."""
    mask = np.zeros(u.shape, dtype=bool)
    np.put_along_axis(mask, np.argpartition(u, N - 1, axis=1)[:, :N], True, axis=1)
    return mask


def mc_block_reference(x: int, N: int, T: int, seed: int, block_index: int, size: int) -> int:
    """Successes within one Monte-Carlo block, one fresh draw per use."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=block_index << 128))
    covered = np.zeros((size, T), dtype=bool)
    for _ in range(x):
        covered |= smallest_mask_reference(gen.random((size, T)), N)
    return int(covered.all(axis=1).sum())


def calibrate_epsilon_histogram_reference(
    samples_a, samples_b, metric, bins, runs, percentile, seed
) -> float:
    """Permutation-null threshold that permutes the pooled samples of every
    run and histograms both halves afresh with ``np.histogram``."""
    a = np.asarray(samples_a, dtype=float)
    pooled = np.concatenate([a, np.asarray(samples_b, dtype=float)])
    support = (float(pooled.min()), float(pooled.max()))
    values = np.empty(runs)
    for run in range(runs):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=run << 128))
        shuffled = gen.permutation(pooled)
        sides = []
        for part in (shuffled[: a.size], shuffled[a.size :]):
            counts, edges = np.histogram(part, bins=bins, range=support)
            total = int(counts.sum())
            sides.append(EmpiricalDistribution(edges=edges, masses=counts / total, n_samples=total))
        values[run] = METRICS[metric](*sides)
    return float(np.percentile(values, percentile))


# The metrics' earlier kernels, one pair of 1-D mass vectors per call.


def kl_1d(pm, qm, n_p, n_q) -> float:
    pm = pm + 1.0 / (2.0 * n_p)
    qm = qm + 1.0 / (2.0 * n_q)
    pm = pm / pm.sum()
    qm = qm / qm.sum()
    return max(0.0, float((pm * np.log(pm / qm)).sum()))


def _rel_entropy_to_mid_1d(a, mid) -> float:
    mask = a > 0
    a = a[mask]
    return float((a * np.log(a / mid[mask])).sum())


def js_1d(pm, qm) -> float:
    mid = (pm + qm) / 2.0
    return max(0.0, 0.5 * _rel_entropy_to_mid_1d(pm, mid) + 0.5 * _rel_entropy_to_mid_1d(qm, mid))


def tv_1d(pm, qm) -> float:
    return float(0.5 * np.abs(pm - qm).sum())


def w1_1d(pm, qm, center_gaps) -> float:
    cdf_gap = np.cumsum(pm - qm)[:-1]
    return float((np.abs(cdf_gap) * center_gaps).sum())


def metric_1d(metric: str, p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """``METRICS[metric](p, q)`` through the 1-D kernels."""
    return {
        "kl": lambda: kl_1d(p.masses, q.masses, p.n_samples, q.n_samples),
        "js": lambda: js_1d(p.masses, q.masses),
        "tv": lambda: tv_1d(p.masses, q.masses),
        "w1": lambda: w1_1d(p.masses, q.masses, np.diff(p.centers)),
    }[metric]()


def null_values_reference(samples_a, samples_b, metric, bins, runs, seed) -> np.ndarray:
    """The permutation null's distances, scored one run at a time: bin the
    pooled samples once, and in every run count the first side of a
    permutation of the bin indices, subtract it from the pooled counts and
    score both mass vectors with a 1-D kernel."""
    a = np.asarray(samples_a, dtype=float)
    pooled = np.concatenate([a, np.asarray(samples_b, dtype=float)])
    edges = np.histogram_bin_edges(pooled, bins, range=(float(pooled.min()), float(pooled.max())))
    index = np.minimum(np.searchsorted(edges, pooled, side="right") - 1, bins - 1)
    pooled_counts = np.bincount(index, minlength=bins)
    n_a, n_b = a.size, pooled.size - a.size
    center_gaps = np.diff((edges[:-1] + edges[1:]) / 2.0)
    kernel = {
        "kl": lambda pm, qm: kl_1d(pm, qm, n_a, n_b),
        "js": js_1d,
        "tv": tv_1d,
        "w1": lambda pm, qm: w1_1d(pm, qm, center_gaps),
    }[metric]
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    values = np.empty(runs)
    for run in range(runs):
        fresh["state"]["counter"][2] = run  # Philox(key=seed, counter=run << 128)
        bitgen.state = fresh
        counts_a = np.bincount(gen.permutation(index)[:n_a], minlength=bins)
        values[run] = kernel(counts_a / n_a, (pooled_counts - counts_a) / n_b)
    return values


def calibrate_epsilon_reference(
    samples_a, samples_b, metric, bins, runs, percentile, seed
) -> float:
    """Permutation-null threshold from :func:`null_values_reference`."""
    values = null_values_reference(samples_a, samples_b, metric, bins, runs, seed)
    return float(np.percentile(values, percentile))


def mem_library(T: int, tag: str = "lib") -> CoverLibrary:
    """In-memory library; ids are real digests of synthetic content, paths
    are never opened."""
    ids = sorted(hash_bytes(f"{tag}-{i}".encode()) for i in range(T))
    entries = tuple(
        CoverEntry(id=cid, path=f"mem://{cid[:8]}", nbytes=32) for cid in ids
    )
    return CoverLibrary(covers=entries)


def bits_of(value: int, length: int) -> str:
    return format(value, f"0{length}b") if length else ""


class OneCoverLibrary:
    """The library interface embed and extract use, at T = 1, where the
    payload is 0 bits wide.  CoverLibrary itself needs two covers."""

    T = 1
    cid = hash_bytes(b"the only cover")

    def id_at(self, index: int) -> str:
        return (self.cid,)[index]

    def lookup(self, cover_id: str) -> int:
        if cover_id != self.cid:
            raise NotInLibrary(cover_id)
        return 0


def embed_reference(m, k, lib, N: int) -> StegoSequence:
    """Embed along the string path: XOR the bitstrings, then decode them."""
    cap = capacity(lib.T, N)
    if m.l != cap.l or k.l != cap.l:
        raise LengthMismatch(f"message has {m.l} bits, key {k.l}; needs {cap.l}")
    arr = bits_to_arrangement(xor_bits(m.bits, k.bits), lib.T, N)
    return StegoSequence(ids=tuple(lib.id_at(i) for i in arr.indices))


def extract_reference(seq, k, lib) -> Message:
    """Extract along the string path: encode the bitstring, then XOR it."""
    arr = Arrangement(indices=tuple(lib.lookup(cid) for cid in seq.ids), T=lib.T)
    payload = arrangement_to_bits(arr)
    if k.l != len(payload):
        raise LengthMismatch(f"key has {k.l} bits, sequence decodes to {len(payload)}")
    return Message(bits=xor_bits(payload, k.bits))


def observations_reference(scenario, session_key, gen) -> tuple[StegoSequence, ...]:
    """A learning phase's observed traffic, built eagerly: each payload is
    drawn bit by bit on ``gen`` and embedded along the string path."""
    l = session_key.l
    return tuple(
        embed_reference(
            Message("".join("1" if b else "0" for b in gen.integers(0, 2, size=l))),
            session_key,
            scenario.library,
            scenario.N,
        )
        for _ in range(scenario.observations)
    )


def kca_membership_reference(challenge_ids, known) -> str:
    """The earlier leak-membership rule: stego when the share of challenge
    ids found in ``known`` reaches 1.0; natural on an empty challenge."""
    if not challenge_ids:
        return "natural"
    inside = sum(1 for cid in challenge_ids if cid in known)
    return "stego" if inside / len(challenge_ids) >= 1.0 else "natural"


def cca_replay_reference(challenge_ids, known, outputs) -> str:
    """The earlier oracle-replay rule: stego when the challenge repeats an
    oracle output or observed sequence, or when all of its ids are known."""
    if challenge_ids in outputs:
        return "stego"
    if known and all(cid in known for cid in challenge_ids):
        return "stego"
    return "natural"
