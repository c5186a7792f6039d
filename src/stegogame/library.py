"""Content-addressed cover library.

A library is the ordered secret set of cover files shared by sender and
receiver.  Covers are opaque byte blobs identified by the SHA-256 of their
content; the canonical order is ascending digest, so both parties derive
the identical indexing from content alone, independent of filenames or the
order files were supplied in.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

from .bits import HEX_DIGITS
from .errors import (
    CoverReadError, DuplicateCover, FileWriteError, LibraryTooSmall, MalformedFile, NotInLibrary,
    StegogameError,
)

# CoverId is the lowercase-hex SHA-256 of the cover's bytes (32 bytes, 64 hex chars).
CoverId = str

DIGEST_HEX_LEN = 64
MANIFEST_VERSION = 1


def check_cover_id(cover_id: object) -> None:
    """Raise MalformedFile unless ``cover_id`` is 64 lowercase hex digits."""
    if (
        not isinstance(cover_id, str)
        or len(cover_id) != DIGEST_HEX_LEN
        or not HEX_DIGITS.issuperset(cover_id)
    ):
        raise MalformedFile(f"bad cover id {cover_id!r}")


def hash_bytes(data: bytes) -> CoverId:
    return hashlib.sha256(data).hexdigest()


def hash_file(path: str | os.PathLike) -> tuple[CoverId, int]:
    """SHA-256 digest and byte length of a file."""
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest(), fh.tell()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CoverReadError(str(path), reason=str(exc)) from exc


@dataclass(frozen=True)
class CoverEntry:
    id: CoverId
    path: str
    nbytes: int


@dataclass(frozen=True)
class CoverLibrary:
    """Immutable, canonically ordered cover set; index i is the library index."""

    covers: tuple[CoverEntry, ...]

    def __post_init__(self):
        ids = self.ids()
        if len(ids) < 2:
            raise LibraryTooSmall(f"need at least 2 covers, got {len(ids)}")
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise DuplicateCover(a)
            if a > b:
                raise MalformedFile("covers are not in ascending digest order")

    @property
    def T(self) -> int:
        return len(self.covers)

    @cached_property
    def _index(self) -> dict[CoverId, int]:
        return {c.id: i for i, c in enumerate(self.covers)}

    def lookup(self, cover_id: CoverId) -> int:
        try:
            return self._index[cover_id]
        except KeyError:
            raise NotInLibrary(cover_id) from None

    def lookup_entry(self, cover_id: CoverId) -> CoverEntry:
        return self.covers[self.lookup(cover_id)]

    @cached_property
    def _ids(self) -> tuple[CoverId, ...]:
        return tuple(c.id for c in self.covers)

    def ids(self) -> tuple[CoverId, ...]:
        return self._ids


def build_library(paths: list[str | os.PathLike]) -> CoverLibrary:
    """Hash the given files and assemble a library in canonical order.

    Pure in the multiset of file contents: the same bytes yield the same
    library whatever order the paths come in.  Hashing runs serially: for
    covers of a few KiB a thread pool costs more to start than it saves.
    """
    paths = list(paths)
    if len(paths) < 2:
        raise LibraryTooSmall(f"need at least 2 cover files, got {len(paths)}")
    hashed = ((str(path), *hash_file(path)) for path in paths)
    entries = sorted(
        (CoverEntry(id=digest, path=path, nbytes=size) for path, digest, size in hashed),
        key=lambda e: e.id,
    )
    for a, b in zip(entries, entries[1:]):
        if a.id == b.id:
            raise DuplicateCover(a.id, paths=(a.path, b.path))
    return CoverLibrary(covers=tuple(entries))


def library_to_manifest(lib: CoverLibrary) -> dict:
    return {
        "version": MANIFEST_VERSION,
        "T": lib.T,
        "covers": [{"id": c.id, "path": c.path, "bytes": c.nbytes} for c in lib.covers],
    }


def library_from_manifest(doc: dict) -> CoverLibrary:
    try:
        if doc["version"] != MANIFEST_VERSION:
            raise MalformedFile(f"unsupported manifest version {doc['version']!r}")
        covers = tuple(
            CoverEntry(id=c["id"], path=c["path"], nbytes=c["bytes"]) for c in doc["covers"]
        )
        declared_t = doc["T"]
    except (KeyError, TypeError) as exc:
        raise MalformedFile(f"manifest missing field: {exc}") from exc
    for c in covers:
        check_cover_id(c.id)
        if not isinstance(c.path, str) or "\x00" in c.path:
            raise MalformedFile(f"bad cover path {c.path!r}")
        if type(c.nbytes) is not int or c.nbytes < 0:
            raise MalformedFile(f"bad cover size {c.nbytes!r}")
    lib = CoverLibrary(covers=covers)
    if lib.T != declared_t:
        raise MalformedFile(f"manifest T={declared_t} but {lib.T} covers listed")
    return lib


def save_manifest(lib: CoverLibrary, path: str | os.PathLike) -> None:
    write_json(library_to_manifest(lib), path, "manifest")


def load_manifest(path: str | os.PathLike) -> CoverLibrary:
    return library_from_manifest(read_json(path, "manifest", unreadable=CoverReadError))


# ---------------------------------------------------------------------------
# input and output files

_Unreadable = Callable[[str, str, str], StegogameError]  # (path, reason, what) -> error


def read_bytes(path: str | os.PathLike, what: str, unreadable: _Unreadable | None = None) -> bytes:
    """The bytes of the ``what`` file at ``path``.  One that cannot be read, a
    NUL byte in its path included, raises ``unreadable`` or MalformedFile."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        if unreadable is not None:
            raise unreadable(str(path), str(exc), what) from exc
        raise MalformedFile(f"cannot read {what} {path}: {exc}") from exc


def read_text(path: str | os.PathLike, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``; MalformedFile when it
    cannot be read or is not UTF-8."""
    data = read_bytes(path, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{what} {path} is not UTF-8 text ({exc})") from exc


def read_json(path: str | os.PathLike, what: str, unreadable: _Unreadable | None = None):
    """The JSON document in the ``what`` file at ``path``; unreadable as in
    :func:`read_bytes`, and MalformedFile when it is not UTF-8 JSON."""
    data = read_bytes(path, what, unreadable)
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFile(f"{path}: not valid JSON ({exc})") from exc


def write_text(text: str, path: str | os.PathLike, what: str) -> None:
    """Write ``text`` as the UTF-8 ``what`` file at ``path``.  One that cannot
    be written, a NUL byte in its path included, raises FileWriteError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise FileWriteError(str(path), what, str(exc)) from exc


def write_json(doc, path: str | os.PathLike, what: str) -> None:
    """Write ``doc`` as the ``what`` file at ``path``: one line of compact JSON."""
    write_text(json.dumps(doc, separators=(",", ":")) + "\n", path, what)
