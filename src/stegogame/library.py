"""Content-addressed cover library.

A library is the ordered secret set of cover files shared by sender and
receiver.  Covers are opaque byte blobs identified by the SHA-256 of their
content; the canonical order is ascending digest, so both parties derive
the identical indexing from content alone, independent of filenames or the
order files were supplied in.
"""

from __future__ import annotations

import json
import os
from functools import cached_property
from pathlib import Path

from .bits import HEX_DIGITS
from .errors import (
    CoverReadError, DuplicateCover, FileWriteError, LibraryTooSmall, MalformedFile, NotInLibrary,
    Record, show,
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
        raise MalformedFile(f"bad cover id {show(cover_id)}")


def hash_bytes(data: bytes) -> CoverId:
    import hashlib  # here, not at the top: only hashing subcommands load it

    return hashlib.sha256(data).hexdigest()


def hash_file(path: str | os.PathLike) -> tuple[CoverId, int]:
    """SHA-256 digest and byte length of a file, read in 1 MiB chunks."""
    import hashlib

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
            return digest.hexdigest(), fh.tell()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CoverReadError(str(path), reason=_reason(exc)) from exc


class CoverEntry(Record):
    def __init__(self, id: CoverId, path: str, nbytes: int):
        self.__dict__.update(id=id, path=path, nbytes=nbytes)


class CoverLibrary(Record):
    """Immutable, canonically ordered cover set; index i is the library index."""

    def __init__(self, covers: tuple[CoverEntry, ...]):
        ids = tuple(c.id for c in covers)
        self.__dict__.update(covers=covers, _ids=ids)
        if len(ids) < 2:
            raise LibraryTooSmall(f"need at least 2 covers, got {len(ids)}")
        for a, b in zip(covers, covers[1:]):
            if a.id == b.id:
                raise DuplicateCover(a.id, (a.path, b.path))
            if a.id > b.id:
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

    def ids(self) -> tuple[CoverId, ...]:
        return self._ids


def build_library(paths: list[str | os.PathLike]) -> CoverLibrary:
    """Hash the given files and assemble a library in canonical order.

    Pure in the multiset of file contents: the same bytes yield the same
    library whatever order the paths come in.  Hashing runs serially: for
    covers of a few KiB a thread pool costs more to start than it saves.
    """
    hashed = ((str(path), *hash_file(path)) for path in paths)
    entries = sorted(
        (CoverEntry(id=digest, path=path, nbytes=size) for path, digest, size in hashed),
        key=lambda e: e.id,
    )
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
            raise MalformedFile(f"unsupported manifest version {show(doc['version'])}")
        covers = tuple(
            CoverEntry(id=c["id"], path=c["path"], nbytes=c["bytes"]) for c in doc["covers"]
        )
        declared_t = doc["T"]
    except (KeyError, TypeError) as exc:
        raise MalformedFile(f"manifest missing field: {exc}") from exc
    for c in covers:
        check_cover_id(c.id)
        if not isinstance(c.path, str) or "\x00" in c.path:
            raise MalformedFile(f"bad cover path {show(c.path)}")
        if type(c.nbytes) is not int or c.nbytes < 0:
            raise MalformedFile(f"bad cover size {show(c.nbytes)}")
    lib = CoverLibrary(covers=covers)
    if lib.T != declared_t:
        raise MalformedFile(f"manifest T={declared_t} but {lib.T} covers listed")
    return lib


def save_manifest(lib: CoverLibrary, path: str | os.PathLike) -> None:
    write_json(library_to_manifest(lib), path, "manifest")


def load_manifest(path: str | os.PathLike) -> CoverLibrary:
    return library_from_manifest(read_json(path, "manifest"))


# ---------------------------------------------------------------------------
# input and output files

def _reason(exc: OSError | ValueError) -> str:
    """Why a file could not be opened, without its path: an OSError's strerror."""
    return getattr(exc, "strerror", None) or str(exc)


def read_bytes(path: str | os.PathLike, what: str) -> bytes:
    """The bytes of any input file, the ``what`` file at ``path``.  One that
    cannot be read, a NUL byte in its path included, raises CoverReadError."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CoverReadError(str(path), _reason(exc), what) from exc


def read_text(path: str | os.PathLike, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``; unreadable as in
    :func:`read_bytes`, and MalformedFile when it is not UTF-8."""
    data = read_bytes(path, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{what} {path} is not UTF-8 text ({exc})") from exc


def read_json(path: str | os.PathLike, what: str):
    """The JSON document in the ``what`` file at ``path``; as :func:`read_text`,
    and MalformedFile when it is not JSON."""
    try:  # read_text raises no ValueError: a non-UTF-8 file is MalformedFile already
        return json.loads(read_text(path, what))
    except (ValueError, RecursionError) as exc:  # ValueError: also an int past the digit limit
        raise MalformedFile(f"{what} {path} is not valid JSON ({exc})") from exc


def write_text(text: str, path: str | os.PathLike, what: str) -> None:
    """Write ``text`` as the UTF-8 ``what`` file at ``path``.  One that cannot
    be written, a NUL byte in its path included, raises FileWriteError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise FileWriteError(str(path), what, _reason(exc)) from exc


def write_json(doc, path: str | os.PathLike, what: str) -> None:
    """Write ``doc`` as the ``what`` file at ``path``: one line of compact JSON."""
    write_text(json.dumps(doc, separators=(",", ":")) + "\n", path, what)
