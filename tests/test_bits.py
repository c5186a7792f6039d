import pytest
from hypothesis import given, strategies as st

from stegogame.bits import (
    bits_to_hex,
    bits_to_int,
    hex_digits_for,
    hex_to_bits,
    hex_to_int,
    int_to_bits,
    int_to_hex,
    xor_bits,
)
from stegogame.errors import InvalidParams, StegogameError, WrongPayloadLength

bitstrings = st.text(alphabet="01", min_size=0, max_size=64)


def test_empty_bits_round_trip():
    assert bits_to_int("") == 0
    assert int_to_bits(0, 0) == ""
    assert bits_to_hex("") == ""
    assert int_to_hex(0, 0) == "" and hex_to_int("", 0) == 0


def test_bits_to_int_rejects_non_bits():
    for bad in ["2", "0b1", "01 ", "abc", "012", 5, None]:
        with pytest.raises(InvalidParams, match="^not a bitstring: "):
            bits_to_int(bad)


@given(bitstrings)
def test_int_round_trip(bits):
    assert int_to_bits(bits_to_int(bits), len(bits)) == bits


@given(st.integers(min_value=0, max_value=2**40 - 1))
def test_bits_round_trip(value):
    assert bits_to_int(int_to_bits(value, 40)) == value


def test_int_to_bits_overflow():
    with pytest.raises(InvalidParams):
        int_to_bits(4, 2)


@given(bitstrings)
def test_xor_self_is_zero(bits):
    assert xor_bits(bits, bits) == "0" * len(bits)


@given(bitstrings, st.data())
def test_xor_involution(a, data):
    b = data.draw(st.text(alphabet="01", min_size=len(a), max_size=len(a)))
    assert xor_bits(xor_bits(a, b), b) == a


def test_xor_length_mismatch():
    with pytest.raises(WrongPayloadLength):
        xor_bits("01", "011")


def test_hex_digit_count():
    assert [hex_digits_for(l) for l in (1, 4, 5, 8, 9)] == [1, 1, 2, 2, 3]


@given(st.integers(min_value=1, max_value=40), st.data())
def test_hex_round_trip(l, data):
    value = data.draw(st.integers(min_value=0, max_value=2**l - 1))
    bits = int_to_bits(value, l)
    assert hex_to_bits(bits_to_hex(bits), l) == bits
    assert int_to_hex(value, l) == bits_to_hex(bits) and hex_to_int(int_to_hex(value, l), l) == value


def test_int_to_hex_pads_and_refuses_overflow():
    assert int_to_hex(1, 5) == "01" and int_to_hex(31, 5) == "1f"
    for value, l in ((32, 5), (-1, 5), (1, 0)):
        with pytest.raises(InvalidParams):
            int_to_hex(value, l)


@pytest.mark.parametrize("call", [
    lambda: hex_to_bits("", -1), lambda: int_to_hex(0, -1), lambda: int_to_bits(0, -1),
], ids=["hex_to_bits", "int_to_hex", "int_to_bits"])
def test_negative_width_refused_with_a_typed_error(call):
    """A negative width is refused before anything shifts by it, which would
    raise ValueError("negative shift count")."""
    with pytest.raises(StegogameError, match="length must be >= 0, got -1"):
        call()


@pytest.mark.parametrize("length, message", [
    (None, "length must be an integer, got None"), (-5, "length must be >= 0, got -5"),
])
def test_hex_decoders_check_length_first(length, message):
    """``length`` is checked by the width rule before the digit count is
    worked out from it, which would raise TypeError on None or expect -1
    digits for -5 bits."""
    for decode in (hex_to_bits, hex_to_int):
        for hexstr in ("", "a"):
            with pytest.raises(WrongPayloadLength, match=f"^{message}$"):
                decode(hexstr, length)


def test_hex_to_bits_rejects_wrong_width():
    for decode in (hex_to_bits, hex_to_int):
        with pytest.raises(WrongPayloadLength):
            decode("0f", 4)  # needs exactly 1 digit
        with pytest.raises(WrongPayloadLength):
            decode("f", 8)


def test_hex_to_bits_rejects_overflow_value():
    for decode in (hex_to_bits, hex_to_int):
        # l=5 uses 2 digits but only values < 32 are valid
        with pytest.raises(WrongPayloadLength):
            decode("20", 5)


def test_hex_to_bits_rejects_non_hex():
    for decode in (hex_to_bits, hex_to_int):
        with pytest.raises(InvalidParams):
            decode("zz", 8)
        # int(s, 16) accepts all of these; a payload must be bare hex digits
        for text in ("0x1", "+01", " 1 ", "f_f"):
            with pytest.raises(InvalidParams):
                decode(text, 12)
