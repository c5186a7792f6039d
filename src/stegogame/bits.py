"""Helpers for fixed-length bitstrings rendered as '0'/'1' text.

Bitstrings are MSB-first throughout: ``"0110"`` is the integer 6.  Hex
renderings are zero-padded to ceil(l/4) digits so a bitstring's length
survives the round trip through hex.
"""

from __future__ import annotations

from .errors import InvalidParams, WrongPayloadLength

_BITSET = frozenset("01")
HEX_DIGITS = frozenset("0123456789abcdef")


def validate_bits(bits: str) -> str:
    if not isinstance(bits, str) or not _BITSET.issuperset(bits):
        raise InvalidParams(f"not a bitstring: {bits!r}")
    return bits


def bits_to_int(bits: str) -> int:
    validate_bits(bits)
    return int(bits, 2) if bits else 0


def int_to_bits(value: int, length: int) -> str:
    if value < 0 or (length >= 0 and value >> length):
        raise InvalidParams(f"{value} does not fit in {length} bits")
    if length == 0:
        return ""
    return format(value, f"0{length}b")


def xor_bits(a: str, b: str) -> str:
    value = bits_to_int(a) ^ bits_to_int(b)
    if len(a) != len(b):
        raise WrongPayloadLength(f"cannot XOR bitstrings of lengths {len(a)} and {len(b)}")
    return int_to_bits(value, len(a))


def hex_digits_for(length: int) -> int:
    return (length + 3) // 4


def bits_to_hex(bits: str) -> str:
    value = bits_to_int(bits)
    return format(value, f"0{hex_digits_for(len(bits))}x") if bits else ""


def hex_to_bits(hexstr: str, length: int) -> str:
    """Decode ceil(length/4) lowercase hex digits into exactly ``length`` bits."""
    expected = hex_digits_for(length)
    if len(hexstr) != expected:
        raise WrongPayloadLength(
            f"expected {expected} hex digits for {length} bits, got {len(hexstr)}"
        )
    # int(s, 16) alone would also take "0x1", "+01", " 1 " and "f_f"
    if not HEX_DIGITS.issuperset(hexstr):
        raise InvalidParams(f"not a hex string: {hexstr!r}")
    if length == 0:
        return ""
    value = int(hexstr, 16)
    if value >> length:
        raise WrongPayloadLength(f"hex value {hexstr} does not fit in {length} bits")
    return int_to_bits(value, length)
