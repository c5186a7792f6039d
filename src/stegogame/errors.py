"""Domain error hierarchy, and the one rule per argument kind.

Every error carries a short machine-readable ``code`` that the CLI uses for
its JSON error objects, e.g. ``{"error": "NotInLibrary", ...}``.

Integer, real and seed arguments are checked by :func:`check_int`,
:func:`check_real` and :func:`check_seed`, each raising the caller's error
class.  An integer is exactly an ``int``: a bool or a numpy int, which would
wrap around in the exact integer math, is refused.
"""

from __future__ import annotations

import math
from numbers import Real


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
    """A cover file, or the manifest that lists covers, could not be read."""

    code = "IoError"

    def __init__(self, path: str, reason: str = "", what: str = "cover file"):
        self.path = path
        super().__init__(f"cannot read {what} {path!r}" + (f": {reason}" if reason else ""))


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


def check_int(name: str, value, low: int | None = None, error=InvalidParams) -> None:
    """Raise ``error`` unless ``value`` is an ``int`` (not a bool, not a numpy
    int) and, given ``low``, at least ``low``."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def check_real(name: str, value, error=InvalidParams) -> None:
    """Raise ``error`` unless ``value`` is a finite real number, not a bool.
    Tested by comparison: ``math.isfinite`` cannot convert an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, Real) or not -math.inf < value < math.inf:
        raise error(f"{name} must be a finite real number, got {value!r}")


def check_seed(seed, error=InvalidParams) -> None:
    """Raise ``error`` unless ``seed`` can key a Philox generator."""
    if type(seed) is not int or not 0 <= seed < 1 << 128:
        raise error("seed must be an integer in [0, 2**128)")
