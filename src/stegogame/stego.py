"""The coverless scheme: key generation, embed, extract.

Embedding never touches cover bytes.  The payload is XORed with an equally
long uniform key, the result is read as an arrangement rank, and the
arrangement's indices are resolved to cover ids through the library's
canonical order.  The transmitted object is just the ordered list of ids.
"""

from __future__ import annotations

import os
import re
import secrets
from dataclasses import dataclass
from typing import Protocol

# xor_bits, arrangement_to_bits and bits_to_arrangement are not called here;
# perfbench/tracer.py looks them up in this module by name.
from .bits import bits_to_hex, hex_to_bits, int_to_bits, validate_bits, xor_bits  # noqa: F401
from .errors import EntropyUnavailable, LengthMismatch, MalformedFile, StegogameError, check_int
from .library import (
    CoverId, CoverLibrary, check_cover_id, read_json, read_text, write_json, write_text,
)
from .permcodec import Arrangement, _places, _unrank, capacity, payload_value
from .permcodec import arrangement_to_bits, bits_to_arrangement  # noqa: F401

SEQUENCE_VERSION = 1


@dataclass(frozen=True)
class _Block:
    """An l-bit string, validated on construction."""

    bits: str

    def __post_init__(self):
        validate_bits(self.bits)

    @property
    def l(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> int:
        """The bits as a big-endian integer; 0 when l = 0."""
        return int(self.bits, 2) if self.bits else 0


@dataclass(frozen=True)
class StegoKey(_Block):
    """Uniformly random l-bit key; the key space has size 2**l."""


@dataclass(frozen=True)
class Message(_Block):
    """One l-bit payload block; exactly one block is carried per sequence."""


@dataclass(frozen=True)
class StegoSequence:
    """Ordered cover ids as exchanged on the channel."""

    ids: tuple[CoverId, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def N(self) -> int:
        return len(self.ids)


class EntropySource(Protocol):
    def bits(self, n: int) -> str: ...


class SystemEntropy:
    """OS-backed entropy; the production default."""

    def bits(self, n: int) -> str:
        try:
            return int_to_bits(secrets.randbits(n), n) if n else ""
        except (OSError, NotImplementedError) as exc:
            raise EntropyUnavailable(str(exc)) from exc


class SeededEntropy:
    """Deterministic entropy for tests and replayable experiments."""

    def __init__(self, seed: int):
        import random

        self._rng = random.Random(seed)

    def bits(self, n: int) -> str:
        return int_to_bits(self._rng.getrandbits(n), n) if n else ""


def keygen(l: int, entropy: EntropySource | None = None) -> StegoKey:
    """Sample an l-bit key from the given source (OS entropy by default)."""
    check_int("key length", l, low=1)
    source = entropy if entropy is not None else SystemEntropy()
    key = StegoKey(bits=source.bits(l))
    if key.l != l:
        raise EntropyUnavailable(f"entropy source returned {key.l} bits, wanted {l}")
    return key


def embed(m: Message, k: StegoKey, lib: CoverLibrary, N: int) -> StegoSequence:
    """Map one message block to a cover sequence under key k.

    Deterministic given (m, k, lib, N); reads only the library manifest,
    never cover file contents.
    """
    cap = capacity(lib.T, N)
    if m.l != cap.l or k.l != cap.l:
        raise LengthMismatch(
            f"message has {m.l} bits, key {k.l}; capacity(T={lib.T}, N={N}) needs {cap.l}"
        )
    return StegoSequence(ids=_unrank(m.value ^ k.value, lib.ids(), _places(lib.T, N)))


def extract(seq: StegoSequence, k: StegoKey, lib: CoverLibrary) -> Message:
    """Invert :func:`embed`.  A wrong key yields garbage, not an error.

    A cover id that does not resolve in the library is surfaced as
    NotInLibrary: the sequence cannot have come from this library, which
    is itself a detection signal for the receiver.
    """
    value, l = payload_value(Arrangement(indices=tuple(map(lib.lookup, seq.ids)), T=lib.T))
    if k.l != l:
        raise LengthMismatch(f"key has {k.l} bits, sequence decodes to {l}")
    return Message(bits=int_to_bits(value ^ k.value, l))


# ---------------------------------------------------------------------------
# file formats

_KEY_LINE1 = re.compile(r"^l=(\d+)$")


def save_key(key: StegoKey, path: str | os.PathLike) -> None:
    """Key file: line 1 ``l=<int>``, line 2 the bits as MSB-first hex."""
    write_text(f"l={key.l}\n{bits_to_hex(key.bits)}\n", path, "key file")


def load_key(path: str | os.PathLike) -> StegoKey:
    lines = read_text(path, "key file").splitlines()
    if len(lines) < 2:
        raise MalformedFile(f"key file {path} needs two lines, got {len(lines)}")
    m = _KEY_LINE1.match(lines[0].strip())
    if not m:
        raise MalformedFile(f"key file {path}: first line must be 'l=<int>'")
    l = int(m.group(1))
    try:
        bits = hex_to_bits(lines[1].strip().lower(), l)
    except StegogameError as exc:
        raise MalformedFile(f"key file {path}: {exc}") from exc
    return StegoKey(bits=bits)


def sequence_to_json(seq: StegoSequence) -> dict:
    return {"version": SEQUENCE_VERSION, "N": seq.N, "ids": list(seq.ids)}


def sequence_from_json(doc: dict) -> StegoSequence:
    try:
        if doc["version"] != SEQUENCE_VERSION:
            raise MalformedFile(f"unsupported sequence version {doc['version']!r}")
        ids = tuple(doc["ids"])
        declared_n = doc["N"]
    except (KeyError, TypeError) as exc:
        raise MalformedFile(f"sequence missing field: {exc}") from exc
    if declared_n != len(ids):
        raise MalformedFile(f"sequence declares N={declared_n} but lists {len(ids)} ids")
    for cid in ids:
        check_cover_id(cid)
    return StegoSequence(ids=ids)


def save_sequence(seq: StegoSequence, path: str | os.PathLike) -> None:
    write_json(sequence_to_json(seq), path, "sequence file")


def load_sequence(path: str | os.PathLike) -> StegoSequence:
    return sequence_from_json(read_json(path, "sequence file"))
