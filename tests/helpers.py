"""Shared test utilities: independent oracles and synthetic libraries.

The oracles here deliberately avoid the package's own algorithms: rank
order comes from itertools enumeration, coverage probabilities from
exhaustive counting with exact rationals, safe-use counts from a search
whose every probe sums the whole inclusion-exclusion series in rationals,
and permutation-null thresholds from a fresh ``np.histogram`` of every
resplit.  The embed/extract oracle is the earlier string path, composed
from the public bitstring functions: ``xor_bits``, then
``bits_to_arrangement`` or ``arrangement_to_bits``, then ``xor_bits``.
Game observations come from one bit draw per payload, embedded at once.
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


def calibrate_epsilon_reference(
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
