"""Exact rank/unrank coding between payloads and arrangements.

An arrangement is an ordered selection of N distinct indices out of
``range(T)``.  There are r = T*(T-1)*...*(T-N+1) of them, numbered
0..r-1 in lexicographic order of their index tuples.  A payload of
l = floor(log2 r) bits is interpreted as a big-endian integer and selects
one of the first 2**l arrangements; because 2**l <= r, every payload is
representable and the coding is injective.  Arrangements of rank >= 2**l
exist but lie outside the codec image, and decoding one is an error
rather than a silent truncation.

Ranks and payloads are plain Python integers, so capacities beyond 64 bits
are exact.  :func:`capacity` computes r and l once per (T, N).  ``_unrank``
and :func:`rank` are the int core, used by ``stego``; ``'0'/'1'`` strings
are validated where they enter, here only in :func:`bits_to_arrangement`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import perm

from .bits import bits_to_int, int_to_bits
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
        if type(self.T) is not int or not 1 <= n <= self.T:
            raise InvalidArrangement(f"length {n} not in [1, T={self.T}]")
        seen = set()
        for idx in self.indices:
            if type(idx) is not int or not 0 <= idx < self.T:
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
    # exact ints: a bool is an int subclass
    if type(T) is not int or type(N) is not int or N < 1 or N > T:
        raise InvalidParams(f"need 1 <= N <= T, got T={T}, N={N}")
    return _capacity(T, N)


@lru_cache(maxsize=256)
def _capacity(T: int, N: int) -> Capacity:
    r = perm(T, N)
    return Capacity(r=r, l=r.bit_length() - 1)


def _unrank(value: int, T: int, N: int) -> tuple[int, ...]:
    """Index tuple of rank ``value``, for valid (T, N) and 0 <= value < r.
    Mixed-radix decoding: at step j there are T-j unused indices and
    A(T-1-j, N-1-j) arrangements per choice, so the digit value // block
    picks the digit-th smallest unused index.
    """
    available = list(range(T))
    block = _capacity(T, N).r // T
    indices = []
    for j in range(N):
        digit, value = divmod(value, block)
        indices.append(available.pop(digit))
        if j < N - 1:
            block //= T - 1 - j
    return tuple(indices)


def unrank(rank: int, T: int, N: int) -> Arrangement:
    """The rank-th arrangement in lexicographic order of index tuples."""
    cap = capacity(T, N)
    if type(rank) is not int or not 0 <= rank < cap.r:
        raise RankOutOfRange(f"rank {rank} not in [0, {cap.r})")
    return Arrangement(indices=_unrank(rank, T, N), T=T)


def rank(arr: Arrangement) -> int:
    """Lexicographic rank of an arrangement; inverse of :func:`unrank`."""
    T, N = arr.T, arr.N
    available = list(range(T))
    block = _capacity(T, N).r // T
    value = 0
    for j, idx in enumerate(arr.indices):
        pos = bisect_left(available, idx)
        value += pos * block
        available.pop(pos)
        if j < N - 1:
            block //= T - 1 - j
    return value


def payload_value(arr: Arrangement) -> tuple[int, int]:
    """(value, l) of the payload ``arr`` carries; UnreachableArrangement if its rank >= 2**l."""
    l = _capacity(arr.T, arr.N).l
    value = rank(arr)
    if value >> l:
        raise UnreachableArrangement(f"rank {value} >= 2**{l}; arrangement outside the codec image")
    return value, l


def bits_to_arrangement(payload: str, T: int, N: int) -> Arrangement:
    """Map an l-bit payload (big-endian) to its arrangement."""
    value = bits_to_int(payload)
    cap = capacity(T, N)
    if len(payload) != cap.l:
        raise WrongPayloadLength(
            f"payload has {len(payload)} bits, capacity(T={T}, N={N}) needs {cap.l}"
        )
    return Arrangement(indices=_unrank(value, T, N), T=T)


def arrangement_to_bits(arr: Arrangement) -> str:
    """Inverse of :func:`bits_to_arrangement`; see :func:`payload_value`."""
    return int_to_bits(*payload_value(arr))
