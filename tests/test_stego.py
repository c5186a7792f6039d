import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bits_of, lex_arrangements, mem_library
from stegogame.errors import (
    EntropyUnavailable,
    InvalidArrangement,
    InvalidParams,
    LengthMismatch,
    MalformedFile,
    NotInLibrary,
    UnreachableArrangement,
)
from stegogame.permcodec import capacity, unrank
from stegogame.stego import (
    Message,
    SeededEntropy,
    StegoKey,
    StegoSequence,
    embed,
    extract,
    keygen,
    load_key,
    load_sequence,
    save_key,
    save_sequence,
)


class FixedEntropy:
    def __init__(self, bits: str):
        self._bits = bits

    def bits(self, n: int) -> str:
        return self._bits[:n]


class TestKeygen:
    def test_passes_injected_entropy_through(self):
        assert keygen(4, FixedEntropy("1010")).bits == "1010"

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidParams):
            keygen(0)

    def test_seeded_entropy_is_reproducible(self):
        assert keygen(64, SeededEntropy(9)).bits == keygen(64, SeededEntropy(9)).bits
        assert keygen(64, SeededEntropy(9)).bits != keygen(64, SeededEntropy(10)).bits

    def test_system_entropy_varies(self):
        keys = {keygen(64).bits for _ in range(8)}
        assert len(keys) == 8

    def test_short_entropy_source_rejected(self):
        with pytest.raises(EntropyUnavailable):
            keygen(8, FixedEntropy("101"))


class TestEmbed:
    def test_zero_payload_takes_first_covers(self):
        lib = mem_library(4)
        seq = embed(Message("0000"), StegoKey("0000"), lib, N=3)
        assert seq.ids == lib.ids()[:3]

    def test_xor_self_inverse_pair(self):
        lib = mem_library(4)
        a = embed(Message("0000"), StegoKey("0000"), lib, N=3)
        b = embed(Message("0110"), StegoKey("0110"), lib, N=3)
        assert a == b

    def test_rank_six_example(self):
        lib = mem_library(4)
        seq = embed(Message("0011"), StegoKey("0101"), lib, N=3)
        expected = lex_arrangements(4, 3)[6]
        assert seq.ids == tuple(lib.id_at(i) for i in expected)

    def test_length_mismatch(self):
        lib = mem_library(4)
        with pytest.raises(LengthMismatch):
            embed(Message("000"), StegoKey("0000"), lib, N=3)
        with pytest.raises(LengthMismatch):
            embed(Message("0000"), StegoKey("00000"), lib, N=3)

    def test_never_reads_cover_content(self):
        # entries point at mem:// paths that cannot be opened; embedding and
        # extraction must succeed anyway
        lib = mem_library(5)
        seq = embed(Message("00000"), StegoKey("11111"), lib, N=3)
        assert extract(seq, StegoKey("11111"), lib).bits == "00000"

    @given(st.data())
    @settings(max_examples=60)
    def test_key_xor_shift_symmetry(self, data):
        lib = mem_library(4)
        l = capacity(4, 3).l
        m = data.draw(st.integers(0, 2**l - 1))
        k = data.draw(st.integers(0, 2**l - 1))
        d = data.draw(st.integers(0, 2**l - 1))
        direct = embed(Message(bits_of(m, l)), StegoKey(bits_of(k, l)), lib, 3)
        shifted = embed(Message(bits_of(m ^ d, l)), StegoKey(bits_of(k ^ d, l)), lib, 3)
        assert direct == shifted


class TestExtract:
    def test_round_trip_many(self):
        lib = mem_library(6)
        l = capacity(6, 3).l
        rng = random.Random(0)
        for _ in range(300):
            m = Message(bits_of(rng.getrandbits(l), l))
            k = StegoKey(bits_of(rng.getrandbits(l), l))
            assert extract(embed(m, k, lib, 3), k, lib) == m

    def test_wrong_key_agreement_near_half(self):
        lib = mem_library(6)
        l = capacity(6, 3).l
        rng = random.Random(1)
        m = Message(bits_of(rng.getrandbits(l), l))
        agree = total = 0
        for _ in range(500):
            k = StegoKey(bits_of(rng.getrandbits(l), l))
            wrong = StegoKey(bits_of(rng.getrandbits(l), l))
            got = extract(embed(m, k, lib, 3), wrong, lib)
            agree += sum(a == b for a, b in zip(got.bits, m.bits))
            total += l
        assert abs(agree / total - 0.5) < 0.05

    def test_foreign_id_raises(self):
        lib = mem_library(4)
        seq = embed(Message("0000"), StegoKey("0000"), lib, 3)
        forged = StegoSequence(ids=("f" * 64,) + seq.ids[1:])
        with pytest.raises(NotInLibrary):
            extract(forged, StegoKey("0000"), lib)

    def test_duplicate_ids_raise(self):
        lib = mem_library(4)
        cid = lib.id_at(0)
        with pytest.raises(InvalidArrangement):
            extract(StegoSequence(ids=(cid, cid, lib.id_at(1))), StegoKey("0000"), lib)

    def test_unreachable_arrangement(self):
        lib = mem_library(3)
        arr = unrank(5, T=3, N=2)  # rank beyond the 2-bit payload image
        seq = StegoSequence(ids=tuple(lib.id_at(i) for i in arr.indices))
        with pytest.raises(UnreachableArrangement):
            extract(seq, StegoKey("00"), lib)

    def test_key_length_mismatch(self):
        lib = mem_library(4)
        seq = embed(Message("0000"), StegoKey("0000"), lib, 3)
        with pytest.raises(LengthMismatch):
            extract(seq, StegoKey("00000"), lib)

    @given(st.data())
    @settings(max_examples=80)
    def test_round_trip_property(self, data):
        T = data.draw(st.integers(2, 10))
        N = data.draw(st.integers(1, T))
        lib = mem_library(T)
        l = capacity(T, N).l
        m = Message(bits_of(data.draw(st.integers(0, 2**l - 1)), l))
        k = StegoKey(bits_of(data.draw(st.integers(0, 2**l - 1)), l))
        assert extract(embed(m, k, lib, N), k, lib) == m


class TestKeyFile:
    def test_round_trip(self, tmp_path):
        key = StegoKey("10110")
        p = tmp_path / "key.txt"
        save_key(key, p)
        assert p.read_text() == "l=5\n16\n"
        assert load_key(p) == key

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "key.txt"
        for text in ["", "l=5\n", "length=5\n16\n", "l=5\nzz\n", "l=5\n166\n", "l=5\nff\n"]:
            p.write_text(text)
            with pytest.raises(MalformedFile):
                load_key(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedFile):
            load_key(tmp_path / "ghost.txt")


class TestSequenceFile:
    def test_round_trip(self, tmp_path):
        lib = mem_library(5)
        seq = embed(Message("00000"), StegoKey("10101"), lib, 3)
        p = tmp_path / "seq.json"
        save_sequence(seq, p)
        assert load_sequence(p) == seq

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "seq.json"
        lib = mem_library(4)
        good_ids = list(embed(Message("0000"), StegoKey("0000"), lib, 3).ids)
        cases = [
            "{not json",
            '{"version":2,"N":3,"ids":%s}' % __import__("json").dumps(good_ids),
            '{"version":1,"N":2,"ids":%s}' % __import__("json").dumps(good_ids),
            '{"version":1,"N":1,"ids":["short"]}',
            '{"version":1,"N":1,"ids":["%s"]}' % ("g" * 64),
            '{"version":1,"ids":[]}',
        ]
        for text in cases:
            p.write_text(text)
            with pytest.raises(MalformedFile):
                load_sequence(p)
