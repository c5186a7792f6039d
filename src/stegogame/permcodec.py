"""Exact rank/unrank coding between bitstrings and arrangements.

An arrangement is an ordered selection of N distinct indices out of
``range(T)``.  There are r = T*(T-1)*...*(T-N+1) of them, numbered
0..r-1 in lexicographic order of their index tuples.  A payload of
l = floor(log2 r) bits is interpreted as a big-endian integer and selects
one of the first 2**l arrangements; because 2**l <= r, every payload is
representable and the coding is injective.  Arrangements of rank >= 2**l
exist but lie outside the codec image, and decoding one is an error
rather than a silent truncation.

Ranks are plain Python integers, so capacities beyond 64 bits are exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .bits import bits_to_int, int_to_bits, validate_bits
from .errors import (
    InvalidArrangement,
    InvalidParams,
    RankOutOfRange,
    UnreachableArrangement,
    WrongPayloadLength,
)


@dataclass(frozen=True)
class Arrangement:
    """Ordered selection of distinct indices from ``range(T)``."""

    indices: tuple[int, ...]
    T: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        n = len(self.indices)
        if not 1 <= n <= self.T:
            raise InvalidArrangement(f"length {n} not in [1, T={self.T}]")
        seen = set()
        for idx in self.indices:
            if not isinstance(idx, int) or not 0 <= idx < self.T:
                raise InvalidArrangement(f"index {idx!r} out of range [0, {self.T})")
            if idx in seen:
                raise InvalidArrangement(f"duplicate index {idx}")
            seen.add(idx)

    @property
    def N(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Capacity:
    """Arrangement count r and usable payload bits l = floor(log2 r)."""

    r: int
    l: int


def capacity(T: int, N: int) -> Capacity:
    """Exact number of N-arrangements of T items and the payload width."""
    # exact ints: a bool is an int subclass, and this check runs on every
    # embed and extract
    if type(T) is not int or type(N) is not int or N < 1 or N > T:
        raise InvalidParams(f"need 1 <= N <= T, got T={T}, N={N}")
    r = 1
    for i in range(T, T - N, -1):
        r *= i
    return Capacity(r=r, l=r.bit_length() - 1)


def unrank(rank: int, T: int, N: int) -> Arrangement:
    """The rank-th arrangement in lexicographic order of index tuples.

    Mixed-radix decoding: at step j there are T-j unused indices and
    A(T-1-j, N-1-j) arrangements per choice, so the digit rank // block
    picks the digit-th smallest unused index.
    """
    cap = capacity(T, N)
    if not isinstance(rank, int) or rank < 0 or rank >= cap.r:
        raise RankOutOfRange(f"rank {rank} not in [0, {cap.r})")
    available = list(range(T))
    block = cap.r // T
    indices = []
    remainder = rank
    for j in range(N):
        digit, remainder = divmod(remainder, block)
        indices.append(available.pop(digit))
        if j < N - 1:
            block //= T - 1 - j
    return Arrangement(indices=tuple(indices), T=T)


def rank(arr: Arrangement) -> int:
    """Lexicographic rank of an arrangement; inverse of :func:`unrank`."""
    T, N = arr.T, arr.N
    cap = capacity(T, N)
    available = list(range(T))
    block = cap.r // T
    value = 0
    for j, idx in enumerate(arr.indices):
        pos = bisect_left(available, idx)
        value += pos * block
        available.pop(pos)
        if j < N - 1:
            block //= T - 1 - j
    return value


def bits_to_arrangement(payload: str, T: int, N: int) -> Arrangement:
    """Map an l-bit payload (big-endian) to its arrangement."""
    validate_bits(payload)
    cap = capacity(T, N)
    if len(payload) != cap.l:
        raise WrongPayloadLength(
            f"payload has {len(payload)} bits, capacity(T={T}, N={N}) needs {cap.l}"
        )
    return unrank(bits_to_int(payload), T, N)


def arrangement_to_bits(arr: Arrangement) -> str:
    """Inverse of :func:`bits_to_arrangement`.

    Raises UnreachableArrangement when the arrangement's rank is >= 2**l,
    i.e. no payload can produce it; such a sequence cannot have come from
    this codec.
    """
    cap = capacity(arr.T, arr.N)
    value = rank(arr)
    if value >> cap.l:
        raise UnreachableArrangement(
            f"rank {value} >= 2**{cap.l}; arrangement outside the codec image"
        )
    return int_to_bits(value, cap.l)
