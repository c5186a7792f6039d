"""Domain error hierarchy, the one rule per argument kind, and frozen records.

Every error carries a short machine-readable ``code`` that the CLI uses for
its JSON error objects, e.g. ``{"error": "NotInLibrary", ...}``.

Integer and seed arguments are checked by :func:`check_int` (between optional
bounds; a seed in [0, ``MAX_SEED``] where it keys a Philox generator), real
ones by :func:`check_real` (in an interval, closed by default), l-bit values by
:func:`check_width`, (T, N) by :func:`check_shape` and names from a fixed set
by :func:`check_choice`, each raising the caller's error class.  An integer is
exactly an ``int``, not a bool or a numpy int, which would wrap around in the
exact integer math.  :func:`show` prints a refused value: past the 4,300-digit ``str`` limit as ``<int of 14729 bits>``.
"""

from __future__ import annotations

import math
from numbers import Real

MAX_SEED = (1 << 128) - 1  # a Philox key's largest value, so the largest seed that keys one


class StegogameError(Exception):
    """Base class for all domain errors raised by this package."""

    code: str = "Error"


class InvalidParams(StegogameError):
    code = "InvalidParams"


class LibraryTooSmall(StegogameError):
    code = "LibraryTooSmall"


class DuplicateCover(StegogameError):
    code = "DuplicateCover"

    def __init__(self, digest: str, paths: tuple[str, str]):
        self.digest = digest
        self.paths = paths
        super().__init__(f"duplicate cover content with digest {digest} ({paths[0]!r} and {paths[1]!r})")


class CoverReadError(StegogameError):
    """Any input file (cover, manifest, key, sequence, scenario or samples) could not be read."""

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


def show(value) -> str:
    """``repr(value)``, or its type and size: ``-<int of 16610 bits>``, ``<Fraction of 16610/2 bits>``."""
    try:
        return repr(value)
    except Exception:  # an int past the str limit, or a value built on one
        kind = type(value).__qualname__
    try:  # never raises, whatever the type
        n, d, sign = value.numerator.bit_length(), value.denominator.bit_length(), "-" * (value < 0)
    except Exception:
        return f"<{kind}>"
    return f"{sign}<{kind} of {n}{f'/{d}' if d > 1 else ''} bits>"


def check_int(name: str, value, low: int | None = None, error=InvalidParams, high: int | None = None) -> None:
    """Raise ``error`` unless ``value`` is an ``int`` (not a bool, not a numpy
    int) and, given ``low`` and ``high``, at least ``low`` and at most ``high``."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {show(value)}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {show(low)}, got {show(value)}")
    if high is not None and value > high:
        raise error(f"{name} must be at most {show(high)}, got {show(value)}")


def check_choice(name: str, value, choices, error=InvalidParams) -> None:
    """Raise ``error`` unless ``value`` equals one of ``choices`` and is of its type (a
    ``str`` subclass passes for a ``str``), so a list or an array is refused, not hashed."""
    if not any(isinstance(value, type(choice)) and value == choice for choice in choices):
        raise error(f"unknown {name} {show(value)}; choose from {list(choices)}")


def check_real(name: str, value, low=-math.inf, high=math.inf, error=InvalidParams, closed=True) -> None:
    """Raise ``error`` unless ``value`` is a finite real number, not a bool, in [low, high], or
    (low, high) unless ``closed``.  By comparison: ``math.isfinite`` cannot convert a huge int."""
    if isinstance(value, bool) or not isinstance(value, Real) or not -math.inf < value < math.inf:
        raise error(f"{name} must be a finite real number, got {show(value)}")
    if not (low <= value <= high if closed else low < value < high):
        interval = f"[{low}, {high}" + ("]" if high < math.inf else ")") if closed else f"({low}, {high})"
        raise error(f"{name} must be a real number in {interval}, got {show(value)}")


def check_width(name: str, value, l, error=InvalidParams, l_name: str = "l") -> int:
    """``value`` if it is an int in [0, 2**l), l (``l_name``) an int >= 0; else raise ``error``."""
    check_int(l_name, l, 0, error)
    if type(value) is not int or value < 0 or value >> l:
        raise error(f"{name} must be an int in [0, 2**{show(l)}), got {show(value)}")
    return value


def check_shape(T, N, error=InvalidParams) -> None:
    """Raise ``error`` unless T and N are ints with 1 <= N <= T."""
    if type(T) is not int or type(N) is not int or not 1 <= N <= T:
        raise error(f"need 1 <= N <= T, got T={show(T)}, N={show(N)}")


class Record:
    """Base of a frozen value type that does not load ``dataclasses`` (and its
    ``inspect``).  The fields are the subclass ``__init__``'s arguments, in
    order, which it stores in ``__dict__``; ``==`` (same class only), ``hash``,
    ``repr`` and frozenness are a frozen dataclass's."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={show(value)}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError  # an AttributeError; loaded only on a refusal

        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__
