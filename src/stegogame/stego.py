"""The coverless scheme: key generation, embed, extract.

Embedding never touches cover bytes.  The payload is XORed with an equally
long uniform key, the result is read as an arrangement rank, and the
arrangement's indices are resolved to cover ids through the library's
canonical order.  The transmitted object is just the ordered list of ids.
``_codec`` (and :func:`embed`, on checked blocks) and ``_decode`` hold that
pad and rank, on ints, for every caller; ``permcodec._unrank`` is the one walk.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from typing import TYPE_CHECKING, Callable

from .bits import hex_to_int, int_to_hex
from .errors import EntropyUnavailable, InvalidConfig, InvalidParams, LengthMismatch, MalformedFile
from .errors import Record, StegogameError, check_int, check_width, show
from .library import (
    CoverId, CoverLibrary, check_cover_id, read_json, read_text, write_json, write_text,
)
from .permcodec import Arrangement, _places, _unrank, capacity, payload_value
# not called here; perfbench/tracer.py looks them up in this module by name
from .bits import bits_to_hex, hex_to_bits, xor_bits  # noqa: F401
from .permcodec import arrangement_to_bits, bits_to_arrangement  # noqa: F401

if TYPE_CHECKING:
    import random

SEQUENCE_VERSION = 1
MAX_KEY_BITS = 10**9 - 1  # the most a key file's one-to-nine-digit ``l=`` line holds


class _Block(Record):
    """An l-bit value: an int in [0, 2**l), checked on construction."""

    def __init__(self, value: int, l: int):
        self.__dict__.update(value=check_width("block value", value, l, l_name="block length"), l=l)


class StegoKey(_Block):
    """Uniformly random l-bit key; the key space has size 2**l."""


class Message(_Block):
    """One l-bit payload block; exactly one block is carried per sequence."""


class StegoSequence(Record):
    """Ordered cover ids as exchanged on the channel."""

    def __init__(self, ids: tuple[CoverId, ...]):
        self.__dict__["ids"] = tuple(ids)

    @property
    def N(self) -> int:
        return len(self.ids)


def keygen(l: int, entropy: random.Random | None = None) -> StegoKey:
    """Sample an l-bit key, 1 <= l <= MAX_KEY_BITS, as ``entropy.getrandbits(l)``;
    OS entropy (``secrets.SystemRandom``) by default."""
    check_int("key length", l, 1, high=MAX_KEY_BITS)
    if entropy is None:
        import secrets  # here, not at the top: a seeded keygen does not load it

        entropy = secrets.SystemRandom()
    try:
        return StegoKey(entropy.getrandbits(l), l)
    except (OSError, NotImplementedError) as exc:
        raise EntropyUnavailable(str(exc)) from exc
    except InvalidParams as exc:  # l is checked, so the draw is not an l-bit int
        raise EntropyUnavailable(f"entropy source: {exc}") from exc


def _decode(seq: StegoSequence, lookup: Callable[[CoverId], int], T: int, key: int) -> tuple[int, int]:
    """(value, l) of the payload ``seq`` carries under ``key``, its ids
    ``lookup``-ed to indices into ``range(T)``: its rank, below 2**l, XOR key."""
    value, l = payload_value(Arrangement(indices=tuple(map(lookup, seq.ids)), T=T))
    return value ^ key, l


# One key's codec on int payloads: l, key, and value -> sequence -> value.
_Codec = namedtuple("_Codec", "l key embed extract")


def _codec(lib: CoverLibrary, N: int, key: int) -> _Codec:
    """``embed`` and ``extract`` of ``lib`` at N under ``key``, with the ids, the place values
    and l bound.  ``embed`` arranges the ids at rank ``value ^ key``; ``check_width`` refuses a
    value not of l bits.  ``extract`` is :func:`_decode`."""
    l, ids, places = capacity(lib.T, N).l, lib.ids(), _places(lib.T, N)

    def embed(value: int) -> StegoSequence:
        if type(value) is not int or value < 0 or value >> l:
            check_width("payload", value, l, InvalidConfig)
        seq = object.__new__(StegoSequence)  # what its __init__ stores
        seq.__dict__["ids"] = tuple(_unrank(value ^ key, ids, places))
        return seq

    return _Codec(l, key, embed, lambda seq: _decode(seq, lib.lookup, lib.T, key)[0])


def embed(m: Message, k: StegoKey, lib: CoverLibrary, N: int) -> StegoSequence:
    """Map one message block to a cover sequence under key k.

    Deterministic given (m, k, lib, N); reads only the library manifest,
    never cover file contents.
    """
    l = capacity(lib.T, N).l
    if m.l != l or k.l != l:
        raise LengthMismatch(f"message has {show(m.l)} bits, key {show(k.l)}; capacity(T={lib.T}, N={N}) needs {l}")
    return StegoSequence(_unrank(m.value ^ k.value, lib.ids(), _places(lib.T, N)))  # both of l bits, as checked


def extract(seq: StegoSequence, k: StegoKey, lib: CoverLibrary) -> Message:
    """Invert :func:`embed`.  A wrong key yields garbage, not an error.

    A cover id that does not resolve in the library is surfaced as
    NotInLibrary: the sequence cannot have come from this library, which
    is itself a detection signal for the receiver.
    """
    value, l = _decode(seq, lib.lookup, lib.T, k.value)
    if k.l != l:
        raise LengthMismatch(f"key has {show(k.l)} bits, sequence decodes to {l}")
    return Message(value, l)


# ---------------------------------------------------------------------------
# file formats

_KEY_LINE1 = re.compile(r"^l=([0-9]{1,9})$")  # ASCII digits, few enough for int()


def save_key(key: StegoKey, path: str | os.PathLike) -> None:
    """Key file: line 1 ``l=<int>``, line 2 the value as ceil(l/4) hex digits."""
    write_text(f"l={key.l}\n{int_to_hex(key.value, key.l)}\n", path, "key file")


def load_key(path: str | os.PathLike) -> StegoKey:
    lines = read_text(path, "key file").splitlines()
    if len(lines) < 2:
        raise MalformedFile(f"key file {path} needs two lines, got {len(lines)}")
    if any(line.strip() for line in lines[2:]):
        raise MalformedFile(f"key file {path} has text after its second line")
    m = _KEY_LINE1.match(lines[0].strip())
    if not m:
        raise MalformedFile(f"key file {path}: first line must be 'l=<int>'")
    l = int(m.group(1))
    check_int(f"key file {path}: key length", l, 1, MalformedFile, MAX_KEY_BITS)
    try:
        value = hex_to_int(lines[1].strip().lower(), l)
    except StegogameError as exc:
        raise MalformedFile(f"key file {path}: {exc}") from exc
    return StegoKey(value, l)


def sequence_to_json(seq: StegoSequence) -> dict:
    return {"version": SEQUENCE_VERSION, "N": seq.N, "ids": list(seq.ids)}


def sequence_from_json(doc: dict) -> StegoSequence:
    try:
        version, ids, declared_n = doc["version"], doc["ids"], doc["N"]
    except (KeyError, TypeError) as exc:
        raise MalformedFile(f"sequence missing field: {exc}") from exc
    check_int("sequence version", version, error=MalformedFile)
    if version != SEQUENCE_VERSION:
        raise MalformedFile(f"unsupported sequence version {show(version)}")
    check_int("sequence N", declared_n, 1, MalformedFile)
    if type(ids) is not list:
        raise MalformedFile(f"sequence ids must be a JSON array, got {type(ids).__name__}")
    if declared_n != len(ids):
        raise MalformedFile(f"sequence declares N={declared_n} but lists {len(ids)} ids")
    for cid in ids:
        check_cover_id(cid)
    return StegoSequence(ids=ids)


def save_sequence(seq: StegoSequence, path: str | os.PathLike) -> None:
    write_json(sequence_to_json(seq), path, "sequence file")


def load_sequence(path: str | os.PathLike) -> StegoSequence:
    return sequence_from_json(read_json(path, "sequence file"))
