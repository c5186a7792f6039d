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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .bits import HEX_DIGITS
from .errors import (
    CoverReadError,
    DuplicateCover,
    LibraryTooSmall,
    MalformedFile,
    NotInLibrary,
)

# CoverId is the lowercase-hex SHA-256 of the cover's bytes (32 bytes, 64 hex chars).
CoverId = str

DIGEST_HEX_LEN = 64
MANIFEST_VERSION = 1
_CHUNK = 1 << 20

THREADS_ENV = "STEGOGAME_THREADS"


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
    """SHA-256 digest and byte length of a file, read in chunks."""
    digest = hashlib.sha256()
    total = 0
    try:
        with open(path, "rb") as fh:
            while True:
                chunk = fh.read(_CHUNK)
                if not chunk:
                    break
                digest.update(chunk)
                total += len(chunk)
    except OSError as exc:
        raise CoverReadError(str(path), reason=str(exc)) from exc
    return digest.hexdigest(), total


@dataclass(frozen=True)
class CoverEntry:
    id: CoverId
    path: str
    nbytes: int


@dataclass(frozen=True, eq=False)
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

    def id_at(self, index: int) -> CoverId:
        return self.covers[index].id

    @cached_property
    def _ids(self) -> tuple[CoverId, ...]:
        return tuple(c.id for c in self.covers)

    def ids(self) -> tuple[CoverId, ...]:
        return self._ids

    def __eq__(self, other) -> bool:
        return isinstance(other, CoverLibrary) and self.covers == other.covers

    def __hash__(self) -> int:
        return hash(self.covers)


def default_workers() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


def build_library(paths: list[str | os.PathLike], max_workers: int | None = None) -> CoverLibrary:
    """Hash the given files and assemble a library in canonical order.

    Pure in the multiset of file contents: the same bytes yield the same
    library whatever order the paths come in.  Hashing runs on a thread
    pool; the subsequent sort makes the result order-independent.
    """
    paths = list(paths)
    if len(paths) < 2:
        raise LibraryTooSmall(f"need at least 2 cover files, got {len(paths)}")
    workers = max_workers or default_workers()
    if workers > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hashed = list(pool.map(hash_file, paths))
    else:
        hashed = [hash_file(p) for p in paths]
    entries = sorted(
        (CoverEntry(id=digest, path=str(path), nbytes=size) for path, (digest, size) in zip(paths, hashed)),
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
    lib = CoverLibrary(covers=covers)
    if lib.T != declared_t:
        raise MalformedFile(f"manifest T={declared_t} but {lib.T} covers listed")
    return lib


def save_manifest(lib: CoverLibrary, path: str | os.PathLike) -> None:
    Path(path).write_text(
        json.dumps(library_to_manifest(lib), separators=(",", ":")) + "\n", encoding="utf-8"
    )


def load_manifest(path: str | os.PathLike) -> CoverLibrary:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"{path}: not valid JSON ({exc})") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CoverReadError(str(path), reason=str(exc)) from exc
    return library_from_manifest(doc)
