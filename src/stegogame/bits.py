"""Fixed-width payloads as hex digits, and as MSB-first '0'/'1' bitstrings.

``src/`` uses the int and hex helpers: the files and the CLI write an l-bit value
as ceil(l/4) zero-padded hex digits, so l survives the round trip.  The bitstring
ones (``"0110"`` is 6) stay only for the benchmark's tracer and the tests.
"""

from __future__ import annotations

from .errors import InvalidParams, WrongPayloadLength, check_int, check_width, show

_BITSET = frozenset("01")
HEX_DIGITS = frozenset("0123456789abcdef")


def bits_to_int(bits: str) -> int:
    if not isinstance(bits, str) or not _BITSET.issuperset(bits):
        raise InvalidParams(f"not a bitstring: {show(bits)}")
    return int(bits, 2) if bits else 0


def int_to_bits(value: int, length: int) -> str:
    check_width("value", value, length, l_name="length")
    return format(value, f"0{length}b") if length else ""


def xor_bits(a: str, b: str) -> str:
    value = bits_to_int(a) ^ bits_to_int(b)
    if len(a) != len(b):
        raise WrongPayloadLength(f"cannot XOR bitstrings of lengths {len(a)} and {len(b)}")
    return int_to_bits(value, len(a))


def hex_digits_for(length: int) -> int:
    return (length + 3) // 4


def int_to_hex(value: int, length: int) -> str:
    """``value``, which must fit in ``length`` bits, as ceil(length/4) lowercase hex digits."""
    check_width("value", value, length, l_name="length")
    return format(value, f"0{hex_digits_for(length)}x") if length else ""


def bits_to_hex(bits: str) -> str:
    return int_to_hex(bits_to_int(bits), len(bits))


def hex_to_int(hexstr: str, length: int) -> int:
    """Decode ceil(length/4) lowercase hex digits into a value below 2**length."""
    check_int("length", length, 0, WrongPayloadLength)  # the width rule's check, before the digit count
    expected = hex_digits_for(length)
    if len(hexstr) != expected:
        raise WrongPayloadLength(
            f"expected {show(expected)} hex digits for {show(length)} bits, got {len(hexstr)}"
        )
    # int(s, 16) alone would also take "0x1", "+01", " 1 " and "f_f"
    if not HEX_DIGITS.issuperset(hexstr):
        raise InvalidParams(f"not a hex string: {hexstr!r}")
    value = int(hexstr, 16) if hexstr else 0
    return check_width("hex value", value, length, WrongPayloadLength, "length")


def hex_to_bits(hexstr: str, length: int) -> str:
    return int_to_bits(hex_to_int(hexstr, length), length)
