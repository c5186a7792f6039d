"""Domain error hierarchy.

Every error carries a short machine-readable ``code`` that the CLI uses for
its JSON error objects, e.g. ``{"error": "NotInLibrary", ...}``.
"""

from __future__ import annotations


class StegogameError(Exception):
    """Base class for all domain errors raised by this package."""

    code: str = "Error"


class InvalidParams(StegogameError):
    code = "InvalidParams"


class LibraryTooSmall(StegogameError):
    code = "LibraryTooSmall"


class DuplicateCover(StegogameError):
    code = "DuplicateCover"

    def __init__(self, digest: str, paths: tuple[str, str] | None = None):
        self.digest = digest
        self.paths = paths
        detail = f" ({paths[0]!r} and {paths[1]!r})" if paths else ""
        super().__init__(f"duplicate cover content with digest {digest}{detail}")


class CoverReadError(StegogameError):
    """A cover file could not be read."""

    code = "IoError"

    def __init__(self, path: str, reason: str = ""):
        self.path = path
        super().__init__(f"cannot read cover file {path!r}" + (f": {reason}" if reason else ""))


class FileWriteError(StegogameError):
    """An output file could not be written."""

    code = "IoError"

    def __init__(self, path: str, what: str, reason: str = ""):
        self.path = path
        super().__init__(f"cannot write {what} {path!r}" + (f": {reason}" if reason else ""))


class NotInLibrary(StegogameError):
    code = "NotInLibrary"

    def __init__(self, cover_id: str):
        self.cover_id = cover_id
        super().__init__(f"cover id {cover_id} is not in the library")


class RankOutOfRange(StegogameError):
    code = "RankOutOfRange"


class InvalidArrangement(StegogameError):
    code = "InvalidArrangement"


class WrongPayloadLength(StegogameError):
    code = "WrongPayloadLength"


class UnreachableArrangement(StegogameError):
    """The arrangement is valid but its rank is >= 2**l, outside the codec image."""

    code = "UnreachableArrangement"


class EntropyUnavailable(StegogameError):
    code = "EntropyUnavailable"


class LengthMismatch(StegogameError):
    code = "LengthMismatch"


class MalformedFile(StegogameError):
    """A key, sequence, manifest, or scenario file violates its schema."""

    code = "MalformedFile"


class EmptySamples(StegogameError):
    code = "EmptySamples"


class BinMismatch(StegogameError):
    code = "BinMismatch"


class OracleBudgetExceeded(StegogameError):
    code = "OracleBudgetExceeded"


class InvalidConfig(StegogameError):
    code = "InvalidConfig"
