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
``stego._codec``, the one codec), and :func:`rank` are the int core;
``'0'/'1'`` strings are validated only in :func:`bits_to_arrangement`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import perm

from .bits import bits_to_int, int_to_bits
from .errors import (
    InvalidArrangement, RankOutOfRange, Record, UnreachableArrangement, WrongPayloadLength,
    check_int, check_shape, show,
)


class Arrangement(Record):
    """Ordered selection of distinct indices from ``range(T)``."""

    def __init__(self, indices: tuple[int, ...], T: int):
        self.__dict__.update(indices=tuple(indices), T=T)
        check_shape(T, len(self.indices), InvalidArrangement)
        seen = set()
        for idx in self.indices:
            check_int("index", idx, 0, InvalidArrangement, T - 1)
            if idx in seen:
                raise InvalidArrangement(f"duplicate index {show(idx)}")
            seen.add(idx)

    @property
    def N(self) -> int:
        return len(self.indices)


class Capacity(Record):
    """Arrangement count r and usable payload bits l = floor(log2 r)."""

    def __init__(self, r: int, l: int):
        self.__dict__.update(r=r, l=l)


def capacity(T: int, N: int) -> Capacity:
    """Exact number of N-arrangements of T items and the payload width."""
    check_shape(T, N)
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
    check_int("rank", rank, 0, RankOutOfRange, capacity(T, N).r - 1)
    return Arrangement(indices=_unrank(rank, range(T), _places(T, N)), T=T)


def rank(arr: Arrangement) -> int:
    """Lexicographic rank of an arrangement; inverse of :func:`unrank`."""
    used: list[int] = []  # the indices placed so far, sorted: O(N**2) work at most, none per T
    value = 0
    for idx, place in zip(arr.indices, _places(arr.T, arr.N)):
        pos = bisect_left(used, idx)
        value += (idx - pos) * place  # the digit: how many indices below idx are not yet placed
        used.insert(pos, idx)
    return value


def payload_value(arr: Arrangement) -> tuple[int, int]:
    """(value, l) of the payload ``arr`` carries; UnreachableArrangement if its rank >= 2**l."""
    l = _capacity(arr.T, arr.N).l
    value = rank(arr)
    if value >> l:
        raise UnreachableArrangement(f"rank {show(value)} >= 2**{l}; arrangement outside the codec image")
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
