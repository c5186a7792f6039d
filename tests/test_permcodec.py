import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bits_of, lex_arrangements, rank_reference
from stegogame.errors import (
    InvalidArrangement,
    InvalidParams,
    RankOutOfRange,
    UnreachableArrangement,
    WrongPayloadLength,
)
from stegogame.permcodec import (
    Arrangement,
    Capacity,
    arrangement_to_bits,
    bits_to_arrangement,
    capacity,
    rank,
    unrank,
)


class TestCapacity:
    def test_known_values(self):
        assert (capacity(4, 3).r, capacity(4, 3).l) == (24, 4)
        assert (capacity(3, 3).r, capacity(3, 3).l) == (6, 2)
        assert capacity(2, 1).r == 2

    def test_matches_stdlib_falling_factorial(self):
        for T, N in [(10, 4), (50, 7), (128, 16)]:
            assert capacity(T, N).r == math.perm(T, N)

    def test_payload_bound_is_tight(self):
        for T in range(2, 12):
            for N in range(1, T + 1):
                cap = capacity(T, N)
                assert 2**cap.l <= cap.r < 2 ** (cap.l + 1)

    def test_rejects_bad_params(self):
        for T, N in [(0, 0), (3, 0), (2, 3), (-1, 1), (True, True), (3, True), (True, 1), (4.0, 2)]:
            with pytest.raises(InvalidParams):
                capacity(T, N)

    def test_bools_refused_after_the_int_is_cached(self):
        # True == 1 and hashes alike, so a cache keyed on (T, N) alone would
        # answer capacity(True, 1) from the (1, 1) entry
        assert capacity(1, 1) == Capacity(r=1, l=0)
        for T, N in [(True, 1), (1, True), (True, True)]:
            with pytest.raises(InvalidParams):
                capacity(T, N)


class TestRankUnrank:
    def test_known_unranks(self):
        assert unrank(5, T=3, N=2).indices == (2, 1)
        assert unrank(6, T=4, N=3).indices == (1, 0, 2)
        assert unrank(0, T=4, N=3).indices == (0, 1, 2)

    @pytest.mark.parametrize("T", range(2, 7))
    def test_exhaustive_lexicographic_bijection(self, T):
        for N in range(1, T + 1):
            expected = lex_arrangements(T, N)
            assert capacity(T, N).r == len(expected)
            for i, indices in enumerate(expected):
                arr = unrank(i, T, N)
                assert arr.indices == indices
                assert rank(arr) == i

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            unrank(24, T=4, N=3)
        with pytest.raises(RankOutOfRange):
            unrank(-1, T=4, N=3)

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_non_int_rank_refused(self, bad):
        with pytest.raises(RankOutOfRange):
            unrank(bad, 4, 2)

    @given(st.data())
    @settings(max_examples=200)
    def test_round_trip_random(self, data):
        T = data.draw(st.integers(min_value=2, max_value=40))
        N = data.draw(st.integers(min_value=1, max_value=T))
        r = capacity(T, N).r
        i = data.draw(st.integers(min_value=0, max_value=r - 1))
        assert rank(unrank(i, T, N)) == i

    @given(st.data())
    @settings(max_examples=100)  # _places takes up to 0.2 s at a new (T, N) near T = N = 2000
    def test_rank_matches_reference_walk(self, data):
        T = data.draw(st.integers(min_value=1, max_value=2000))
        N = data.draw(st.integers(min_value=1, max_value=T))
        indices = data.draw(st.randoms(use_true_random=False)).sample(range(T), N)
        arr = Arrangement(indices=tuple(indices), T=T)
        assert rank(arr) == rank_reference(arr)

    def test_rank_of_a_million_covers(self):
        arr = Arrangement(indices=(999_999, 0, 500_000, 3, 999_998, 1, 2, 7), T=10**6)
        assert rank(arr) == rank_reference(arr)
        assert unrank(rank(arr), 10**6, 8) == arr


class TestArrangement:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArrangement):
            Arrangement(indices=(1, 1), T=3)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(InvalidArrangement):
            Arrangement(indices=(0, 3), T=3)

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidArrangement):
            Arrangement(indices=(), T=3)
        with pytest.raises(InvalidArrangement):
            Arrangement(indices=(0, 1, 2, 3), T=3)

    @pytest.mark.parametrize("indices, T", [
        ((True, 0), 2), ((0, False), 2), ((1.0, 0), 2), (("0",), 2), ((0,), True), ((0,), 2.0),
    ])
    def test_rejects_non_int_indices_and_size(self, indices, T):
        with pytest.raises(InvalidArrangement):
            Arrangement(indices=indices, T=T)


class TestBitsCodec:
    def test_zero_bits_is_identity_arrangement(self):
        arr = bits_to_arrangement("0000", T=4, N=3)
        assert arr.indices == (0, 1, 2)

    def test_rank_six_example(self):
        arr = bits_to_arrangement("0110", T=4, N=3)
        assert arr.indices == lex_arrangements(4, 3)[6]

    def test_wrong_payload_length(self):
        with pytest.raises(WrongPayloadLength):
            bits_to_arrangement("000", T=4, N=3)

    def test_zero_width_payload(self):
        # T = N = 1: one arrangement, so l = 0 and the payload is ""
        assert bits_to_arrangement("", 1, 1).indices == (0,)
        assert arrangement_to_bits(Arrangement(indices=(0,), T=1)) == ""
        with pytest.raises(WrongPayloadLength):
            bits_to_arrangement("0", 1, 1)

    def test_non_bits_refused(self):
        for bad in ["0120", "01 0", 6, None]:
            with pytest.raises(InvalidParams):
                bits_to_arrangement(bad, T=4, N=3)

    def test_unreachable_arrangement(self):
        # T=3, N=2 has 6 arrangements but a 2-bit payload: ranks 4, 5 can
        # never be produced by an embed
        arr = unrank(5, T=3, N=2)
        with pytest.raises(UnreachableArrangement):
            arrangement_to_bits(arr)

    @given(st.data())
    @settings(max_examples=200)
    def test_bits_round_trip(self, data):
        T = data.draw(st.integers(min_value=2, max_value=9))
        N = data.draw(st.integers(min_value=1, max_value=T))
        l = capacity(T, N).l
        value = data.draw(st.integers(min_value=0, max_value=2**l - 1))
        bits = bits_of(value, l)
        assert arrangement_to_bits(bits_to_arrangement(bits, T, N)) == bits

    def test_every_payload_reachable_small(self):
        # the codec image covers exactly the ranks below 2**l
        T, N = 4, 3
        l = capacity(T, N).l
        seen = set()
        for value in range(2**l):
            arr = bits_to_arrangement(bits_of(value, l), T, N)
            seen.add(arr.indices)
        assert len(seen) == 2**l
