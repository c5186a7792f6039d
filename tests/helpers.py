"""Shared test utilities: independent oracles and synthetic libraries.

The oracles here deliberately avoid the package's own algorithms: rank
order comes from itertools enumeration, ranks themselves from the earlier walk
that pops each index from a list of all T, coverage probabilities from
exhaustive counting with exact rationals, safe-use counts from a search
whose every probe sums the whole inclusion-exclusion series in rationals,
coverage reports from one full pass over the integer numerators,
and permutation nulls from a shuffle of the pooled samples' bins in every
resplit (the law), or from one hypergeometric row per draw over the
non-empty bins (the exact values), both scored on full-width rows by 1-D
kernels: each metric's fixed-point rule applied one cell at a time in Python
ints (``kl_fixed_1d``, ``js_fixed_1d``, ``tv_fixed_1d``, ``w1_fixed_1d``),
beside the metrics' earlier float kernels (``kl_1d``, ``js_1d``, ``tv_1d``,
``w1_1d``).
An ACCA round's leak is a fresh permutation of the library each round, and
a channel-statistics warden's positive control is a library of covers whose
bytes below 128 are drawn more often than the world pool's.
The embed/extract oracle is the earlier string path, composed
from the bitstring functions: ``xor_bits``, then
``bits_to_arrangement`` or ``arrangement_to_bits``, then ``xor_bits``.
Game payloads are the top l bits of their own raw Philox words, read as
one binary string, and game observations are embedded at once.
Monte-Carlo blocks mark each draw's N smallest cells through
``argpartition`` and ``put_along_axis``, one fresh array per draw, and the
law of the covers still unseen comes from stepping its chain in rationals;
the occupancy chain's reference draws every use's single trials in one
array call to ``Generator.hypergeometric`` and merges each use's states
with ``np.unique`` and ``np.add.at``.
The best detector's exact rate is 1/2 + TV/2 between the two laws of what it
sees, each law counted over every arrangement from itertools enumeration, or,
for the count of a challenge's ids seen in earlier uses, summed by
inclusion-exclusion in rationals.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np

from stegogame.attackgame.game import _derive_key
from stegogame.attackgame.scenario import Scenario, _library_of
from stegogame.bits import xor_bits
from stegogame.budget import _hit_row
from stegogame.divergence import STREAM_RUNS, EmpiricalDistribution
from stegogame.errors import LengthMismatch, NotInLibrary
from stegogame.library import CoverEntry, CoverLibrary, hash_bytes
from stegogame.permcodec import Arrangement, _places, arrangement_to_bits, bits_to_arrangement, capacity
from stegogame.stego import Message, StegoSequence


def lex_arrangements(T: int, N: int) -> list[tuple[int, ...]]:
    """All N-arrangements of range(T) in lexicographic order."""
    return list(itertools.permutations(range(T), N))


def rank_reference(arr: Arrangement) -> int:
    """Lexicographic rank by the earlier walk: each index's digit is its
    position among the indices not yet placed, kept in a list of all T."""
    available = list(range(arr.T))
    value = 0
    for idx, place in zip(arr.indices, _places(arr.T, arr.N)):
        pos = bisect_left(available, idx)
        value += pos * place
        available.pop(pos)
    return value


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


def coverage_report_reference(x: int, N: int, T: int) -> tuple[float, float, bool, bool]:
    """A coverage report's p_published, p_exact, published_in_range and
    published_matches_exact from one pass over every inclusion-exclusion
    numerator C(T,y) * C(T-y,N)**x over D = C(T,N)**x: the published form
    subtracts each term after the first, the exact one alternates signs
    (and is 0 at x = 0).  Floats only as the integer quotients."""
    D = comb(T, N) ** x
    odd = even = 0
    for y in range(1, T - N + 1):
        term = comb(T, y) * comb(T - y, N) ** x
        if y % 2:
            odd += term
        else:
            even += term
    published, exact = D - odd - even, (D - odd + even) if x else 0
    return published / D, exact / D, 0 <= published <= D, published == exact


def smallest_mask_reference(u: np.ndarray, N: int) -> np.ndarray:
    """The cells ``argpartition`` names as each row's N smallest values."""
    mask = np.zeros(u.shape, dtype=bool)
    np.put_along_axis(mask, np.argpartition(u, N - 1, axis=1)[:, :N], True, axis=1)
    return mask


def mc_block_reference(x: int, N: int, T: int, seed: int, block_index: int, size: int):
    """Covers still unseen after x uses, per trial of one Monte-Carlo block:
    each use marks a literal N-subset, one fresh draw of T floats per trial."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=block_index << 128))
    covered = np.zeros((size, T), dtype=bool)
    for _ in range(x):
        covered |= smallest_mask_reference(gen.random((size, T)), N)
    return T - covered.sum(axis=1)


def unseen_law_reference(x: int, N: int, T: int) -> dict[int, Fraction]:
    """Exact law of the number of covers still unseen after x uses: a use
    sees k of u unseen covers with probability C(u,k) C(T-u,N-k) / C(T,N)."""
    law = {T: Fraction(1)}
    for _ in range(x):
        step: dict[int, Fraction] = {}
        for u, p in law.items():
            for k in range(max(0, N - (T - u)), min(u, N) + 1):
                step[u - k] = step.get(u - k, 0) + p * Fraction(
                    comb(u, k) * comb(T - u, N - k), comb(T, N)
                )
        law = step
    return law


def occupancy_reference(x: int, N: int, T: int, trials: int, seed: int):
    """``budget._occupancy`` with each use's single trials, those at a state
    with no more trials than its hit row has cells, drawn in one array call."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    states, counts = np.array([T], dtype=np.int64), np.array([trials], dtype=np.int64)
    for _ in range(x):
        if states[0] == 0 and counts[0] == trials:
            break
        pooled = counts > np.minimum(N, states) - np.maximum(0, N - T + states) + 1
        next_states, next_counts = [], []
        for u, c in zip(states[pooled].tolist(), counts[pooled].tolist()):
            k, p = _hit_row(u, N, T)
            next_states.append(u - k)
            next_counts.append(gen.multinomial(c, p))
        single = np.repeat(states[~pooled], counts[~pooled])
        next_states.append(single - gen.hypergeometric(single, T - single, N))
        next_counts.append(np.ones_like(single))
        states, where = np.unique(np.concatenate(next_states), return_inverse=True)
        counts = np.zeros_like(states)
        np.add.at(counts, where, np.concatenate(next_counts))
    return states, counts


def best_detection_rate(stego: Counter, natural: Counter) -> Fraction:
    """The exact success rate of the best detector of a stego view against a
    natural one under a fair coin, each law given as counts of its views:
    1/2 + TV/2, TV the total variation between the two laws (Neyman-Pearson,
    in Cachin's 1998 frame)."""
    s, n = sum(stego.values()), sum(natural.values())
    gap = sum(abs(stego[v] * n - natural[v] * s) for v in stego.keys() | natural.keys())
    return Fraction(1, 2) + Fraction(gap, 4 * s * n)


def challenge_laws(T: int, N: int, view=tuple) -> tuple[Counter, Counter]:
    """The laws of ``view`` of a detection challenge's indices into the
    library's public order, when the world pool is the library: a uniform
    payload XOR the key is a uniform rank below 2**l, so a stego challenge
    is one of the first 2**l arrangements in lexicographic order, uniformly;
    a natural one is any of the r arrangements, uniformly."""
    arrangements = lex_arrangements(T, N)
    l = len(arrangements).bit_length() - 1
    return Counter(map(view, arrangements[: 2**l])), Counter(map(view, arrangements))


def seen_count_law(x: int, N: int, T: int, m: int) -> Counter:
    """The law of K, how many of a challenge's m library ids are among the
    covers of x uniform N-subsets of the library, by inclusion-exclusion over
    the unseen covers: C(m, k) * sum_i (-1)^i C(k, i) (C(T-m+k-i, N)/C(T, N))^x."""
    unseen = [Fraction(comb(T - j, N), comb(T, N)) ** x for j in range(m + 1)]
    return Counter({k: comb(m, k) * sum((-1) ** i * comb(k, i) * unseen[m - k + i] for i in range(k + 1))
                    for k in range(m + 1)})


def seen_count_rate(x: int, N: int, T: int, W: int) -> Fraction:
    """The best rate of a warden who counts a challenge's ids seen in x
    earlier uses, 1/2 + TV/2: a stego challenge has m = N library ids, a
    natural one m ~ hypergeometric(W, T, N)."""
    natural = Counter()
    for m in range(max(0, N - (W - T)), min(N, T) + 1):
        weight = Fraction(comb(T, m) * comb(W - T, N - m), comb(W, N))
        natural.update({k: weight * p for k, p in seen_count_law(x, N, T, m).items()})
    return best_detection_rate(seen_count_law(x, N, T, N), natural)


def order_pattern(arrangement: tuple[int, ...]) -> tuple[int, ...]:
    """The relative order of an arrangement's indices, all a warden who sees
    ids alone can compare: their places in it, sorted by index."""
    return tuple(sorted(range(len(arrangement)), key=arrangement.__getitem__))


# The metrics' 1-D kernels, one pair of mass vectors per call: the earlier
# float sums, and the fixed-point rule, whose terms are added as Python ints.


def kl_1d(pm, qm, n_p, n_q) -> float:
    pm = pm + 1.0 / (2.0 * n_p)
    qm = qm + 1.0 / (2.0 * n_q)
    pm = pm / pm.sum()
    qm = qm / qm.sum()
    return max(0.0, float((pm * np.log(pm / qm)).sum()))


def kl_fixed_1d(pm, qm, n_p, n_q) -> float:
    """KL by the fixed-point rule: each side smoothed by 1/(2n) a bin and
    divided by 1 + bins/(2n), each bin's ``p * log(p / q)``, empty or not,
    rounded half to even to a whole number of 2**-57 and added as a Python
    int; the total times 2**-57, clamped at 0."""
    bins = len(pm)
    pm = (pm + 1.0 / (2.0 * n_p)) / (1.0 + bins / (2.0 * n_p))
    qm = (qm + 1.0 / (2.0 * n_q)) / (1.0 + bins / (2.0 * n_q))
    cells = (pm * np.log(pm / qm)).tolist()
    return max(0.0, sum(round(cell * 2**57) for cell in cells) * 2.0**-57)


def _rel_entropy_to_mid_1d(a, mid) -> float:
    mask = a > 0
    a = a[mask]
    return float((a * np.log(a / mid[mask])).sum())


def js_1d(pm, qm) -> float:
    """JS as a float sum of each side's terms, the independent reference."""
    mid = (pm + qm) / 2.0
    return max(0.0, 0.5 * _rel_entropy_to_mid_1d(pm, mid) + 0.5 * _rel_entropy_to_mid_1d(qm, mid))


def js_fixed_1d(pm, qm) -> float:
    """JS by the fixed-point rule: each cell's ``0.5*tA + 0.5*tB`` that is
    above 0, rounded half to even to a whole number of 2**-60 and added as a
    Python int; the total times 2**-60."""
    mid = (pm + qm) / 2.0
    sides = []
    for side in (pm, qm):
        terms, kept = np.zeros(len(side)), side > 0
        terms[kept] = side[kept] * np.log(side[kept] / mid[kept])
        sides.append(terms)
    cells = (0.5 * sides[0] + 0.5 * sides[1]).tolist()
    return sum(round(cell * 2**60) for cell in cells if cell > 0) * 2.0**-60


def tv_1d(pm, qm) -> float:
    return float(0.5 * np.abs(pm - qm).sum())


def tv_fixed_1d(pm, qm) -> float:
    """TV by the fixed-point rule: each bin's ``0.5 * |p - q|`` rounded half
    to even to a whole number of 2**-60 and added as a Python int; the total
    times 2**-60."""
    return sum(round(cell * 2**60) for cell in (0.5 * np.abs(pm - qm)).tolist()) * 2.0**-60


def w1_1d(pm, qm, center_gaps) -> float:
    cdf_gap = np.cumsum(pm - qm)[:-1]
    return float((np.abs(cdf_gap) * center_gaps).sum())


def w1_fixed_1d(pm, qm, edges) -> float:
    """W1 by the fixed-point rule: the CDF gap added up bin by bin in floats;
    at each bin that is non-empty on either side, its |gap| times the distance
    from the bin's centre to the next such bin's (the last such bin's to the
    last centre) over the edges' span, rounded half to even to a whole number
    of 2**-60 and added as a Python int; the total times 2**-60 and the span."""
    centers = ((edges[:-1] + edges[1:]) / 2.0).tolist()
    span = float(edges[-1] - edges[0])
    kept = [i for i in range(len(pm)) if pm[i] > 0 or qm[i] > 0]
    gap, gaps = 0.0, []
    for p, q in zip(pm.tolist(), qm.tolist()):
        gap += p - q
        gaps.append(gap)
    total = sum(round(abs(gaps[i]) * ((centers[j] - centers[i]) / span) * 2**60)
                for i, j in zip(kept, kept[1:] + [len(pm) - 1]))
    return max(0.0, total * 2.0**-60 * span)


def metric_1d(metric: str, p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """``METRICS[metric](p, q)`` through the fixed-point 1-D kernels."""
    return {
        "kl": lambda: kl_fixed_1d(p.masses, q.masses, p.n_samples, q.n_samples),
        "js": lambda: js_fixed_1d(p.masses, q.masses),
        "tv": lambda: tv_fixed_1d(p.masses, q.masses),
        "w1": lambda: w1_fixed_1d(p.masses, q.masses, p.edges),
    }[metric]()


def _null_setup(samples_a, samples_b, metric, bins):
    """Each pooled sample's bin by ``np.histogram``'s rule (edges[i] <= v <
    edges[i+1], the top edge in the last bin), the two sides' sizes and the
    metric's fixed-point 1-D kernel over those bins."""
    a = np.asarray(samples_a, dtype=float)
    pooled = np.concatenate([a, np.asarray(samples_b, dtype=float)])
    edges = np.histogram_bin_edges(pooled, bins, range=(float(pooled.min()), float(pooled.max())))
    index = np.minimum(np.searchsorted(edges, pooled, side="right") - 1, bins - 1)
    n_a, n_b = a.size, pooled.size - a.size
    kernel = {
        "kl": lambda pm, qm: kl_fixed_1d(pm, qm, n_a, n_b),
        "js": js_fixed_1d,
        "tv": tv_fixed_1d,
        "w1": lambda pm, qm: w1_fixed_1d(pm, qm, edges),
    }[metric]
    return index, n_a, n_b, kernel


def permutation_null_reference(samples_a, samples_b, metric, bins, runs, seed) -> np.ndarray:
    """The permutation null's distances by its definition: every run
    shuffles the pooled samples' bins (``Generator.permuted`` row by row over
    a block of runs), counts both halves afresh and scores them with a 1-D
    kernel.  Shuffling bins is shuffling samples, as each sample's bin is
    fixed; a fresh ``np.histogram`` per half costs about five times more."""
    index, n_a, n_b, kernel = _null_setup(samples_a, samples_b, metric, bins)
    gen = np.random.Generator(np.random.Philox(key=seed))
    values = []
    for start in range(0, runs, 1000):
        for row in gen.permuted(np.tile(index, (min(1000, runs - start), 1)), axis=1):
            counts_a = np.bincount(row[:n_a], minlength=bins)
            counts_b = np.bincount(row[n_a:], minlength=bins)
            values.append(kernel(counts_a / n_a, counts_b / n_b))
    return np.array(values)


def null_values_reference(samples_a, samples_b, metric, bins, runs, seed) -> np.ndarray:
    """The hypergeometric null's distances, one run at a time: bin the pooled
    samples once, draw every run's first-side counts in a call of its own,
    run i on the stream of ``Philox(key=seed, counter=s << 128)`` with s =
    i // ``STREAM_RUNS``, over the non-empty bins only, the largest pooled
    count first and ties in bin order, put them back in their bins, subtract
    them from the pooled counts and score both full-width mass vectors with a
    1-D kernel."""
    index, n_a, n_b, kernel = _null_setup(samples_a, samples_b, metric, bins)
    pooled_counts = np.bincount(index, minlength=bins)
    drawn = sorted(np.flatnonzero(pooled_counts).tolist(), key=lambda i: -pooled_counts[i])
    values = np.empty(runs)
    for run in range(runs):
        stream, place = divmod(run, STREAM_RUNS)
        if place == 0:
            gen = np.random.Generator(np.random.Philox(key=seed, counter=stream << 128))
        counts_a = np.zeros(bins, dtype=np.int64)
        counts_a[drawn] = gen.multivariate_hypergeometric(pooled_counts[drawn], n_a, method="marginals")
        values[run] = kernel(counts_a / n_a, (pooled_counts - counts_a) / n_b)
    return values


def calibrate_epsilon_reference(
    samples_a, samples_b, metric, bins, runs, percentile, seed
) -> float:
    """Permutation-null threshold from :func:`null_values_reference`."""
    values = null_values_reference(samples_a, samples_b, metric, bins, runs, seed)
    return float(np.percentile(values, percentile))


def biased_scenario(bias: float, seed: int = 0) -> Scenario:
    """A positive control for a channel-statistics warden: 16 library covers
    of 2,048 bytes whose byte values below 128 are drawn with weight
    ``1 + bias`` (the others 1), and a world pool of those 16 plus 48 covers
    of uniform bytes; N = 4 and no observations, so a warden learns the world
    pool alone."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    weights = np.where(np.arange(256) < 128, 1.0 + bias, 1.0)
    library = [gen.choice(256, size=2048, p=weights / weights.sum()).astype(np.uint8).tobytes() for _ in range(16)]
    uniform = [gen.integers(0, 256, size=2048, dtype=np.uint8).tobytes() for _ in range(48)]
    corpus = {hash_bytes(blob): blob for blob in library + uniform}
    return Scenario(
        library=_library_of(list(map(hash_bytes, library)), corpus), world=_library_of(list(corpus), corpus),
        N=4, observations=0, content_map=corpus,
    )


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


def message_of(bits: str) -> Message:
    """The message whose MSB-first binary digits are ``bits``."""
    return Message(int(bits or "0", 2), len(bits))


class OneCoverLibrary:
    """The library interface embed, extract and the attack games use, at
    T = 1, where the payload is 0 bits wide.  CoverLibrary itself needs two
    covers."""

    T = 1
    cid = hash_bytes(b"the only cover")

    def lookup(self, cover_id: str) -> int:
        if cover_id != self.cid:
            raise NotInLibrary(cover_id)
        return 0

    def ids(self) -> tuple[str, ...]:
        return (self.cid,)


def embed_reference(m, k, lib, N: int) -> StegoSequence:
    """Embed along the string path: XOR the bitstrings, then decode them."""
    cap = capacity(lib.T, N)
    if m.l != cap.l or k.l != cap.l:
        raise LengthMismatch(f"message has {m.l} bits, key {k.l}; needs {cap.l}")
    arr = bits_to_arrangement(xor_bits(bits_of(m.value, m.l), bits_of(k.value, k.l)), lib.T, N)
    return StegoSequence(ids=tuple(lib.ids()[i] for i in arr.indices))


def extract_reference(seq, k, lib) -> Message:
    """Extract along the string path: encode the bitstring, then XOR it."""
    arr = Arrangement(indices=tuple(lib.lookup(cid) for cid in seq.ids), T=lib.T)
    payload = arrangement_to_bits(arr)
    if k.l != len(payload):
        raise LengthMismatch(f"key has {k.l} bits, sequence decodes to {len(payload)}")
    return message_of(xor_bits(payload, bits_of(k.value, k.l)))


def payload_bits_reference(gen, l: int) -> str:
    """One l-bit game payload as a bitstring: the first l of the binary
    digits of its ceil(l / 64) raw words on ``gen``, each written in 64."""
    words = gen.bit_generator.random_raw(-(-l // 64)).tolist()
    return "".join(format(word, "064b") for word in words)[:l]


def leak_reference(scenario, seed: int, round_index: int) -> tuple[str, ...]:
    """What has leaked by ACCA round ``round_index``, drawn afresh for that
    round: the first ``leak_size(round_index)`` ids in the order of a
    permutation of the library on the leak key's Philox at counter 0."""
    gen = np.random.Generator(np.random.Philox(key=_derive_key(seed, "leak")))
    order = gen.permutation(scenario.library.T)[: scenario.leak_size(round_index)]
    return tuple(scenario.library.ids()[i] for i in order)


def observations_reference(scenario, session_key, gen) -> tuple[StegoSequence, ...]:
    """A learning phase's observed traffic, built eagerly: each payload is
    drawn on ``gen`` by :func:`payload_bits_reference` and embedded along
    the string path."""
    return tuple(
        embed_reference(
            message_of(payload_bits_reference(gen, session_key.l)),
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
