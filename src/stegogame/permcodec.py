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
are exact.  :func:`capacity` (r and l) and ``_places`` run once per (T, N).
``_unrank``, one walk over any T items (``range(T)``, or a library's ids for
``stego.embed`` and the game codec), and :func:`rank` are the int core;
``'0'/'1'`` strings are validated only in :func:`bits_to_arrangement`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import perm

from .bits import bits_to_int, int_to_bits
from .errors import (
    InvalidArrangement, InvalidParams, RankOutOfRange, UnreachableArrangement, WrongPayloadLength,
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
    # errors.check_int's rule (exactly int), inline: a game makes thousands of calls
    if type(T) is not int or type(N) is not int or N < 1 or N > T:
        raise InvalidParams(f"need 1 <= N <= T, got T={T}, N={N}")
    return _capacity(T, N)


@lru_cache(maxsize=256)
def _capacity(T: int, N: int) -> Capacity:
    r = perm(T, N)
    return Capacity(r=r, l=r.bit_length() - 1)


@lru_cache(maxsize=256)
def _places(T: int, N: int) -> tuple[int, ...]:
    """Place value of each digit of a rank: the A(T-1-j, N-1-j)
    arrangements that follow each choice at step j."""
    return tuple(perm(T - 1 - j, N - 1 - j) for j in range(N))


def _unrank(value: int, items: tuple | range, places: tuple[int, ...]) -> list:
    """The items at the indices of rank ``value``, for 0 <= value < r and
    ``places = _places(len(items), N)``.  Mixed-radix decoding: digit j,
    value // place, picks the digit-th item not yet picked."""
    pool = list(items)
    picked = []
    for place in places:
        picked.append(pool.pop(value // place))
        value %= place
    return picked


def unrank(rank: int, T: int, N: int) -> Arrangement:
    """The rank-th arrangement in lexicographic order of index tuples."""
    cap = capacity(T, N)
    if type(rank) is not int or not 0 <= rank < cap.r:
        raise RankOutOfRange(f"rank {rank} not in [0, {cap.r})")
    return Arrangement(indices=_unrank(rank, range(T), _places(T, N)), T=T)


def rank(arr: Arrangement) -> int:
    """Lexicographic rank of an arrangement; inverse of :func:`unrank`."""
    available = list(range(arr.T))
    value = 0
    for idx, place in zip(arr.indices, _places(arr.T, arr.N)):
        pos = bisect_left(available, idx)
        value += pos * place
        available.pop(pos)
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
    return unrank(value, T, N)


def arrangement_to_bits(arr: Arrangement) -> str:
    """Inverse of :func:`bits_to_arrangement`; see :func:`payload_value`."""
    return int_to_bits(*payload_value(arr))
