import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    OneCoverLibrary,
    bits_of,
    embed_reference,
    extract_reference,
    lex_arrangements,
    mem_library,
)
from stegogame.errors import (
    EntropyUnavailable,
    InvalidArrangement,
    InvalidParams,
    LengthMismatch,
    MalformedFile,
    NotInLibrary,
    UnreachableArrangement,
)
from stegogame.attackgame.game import _codec
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

    @pytest.mark.parametrize("l", [True, False, 4.0, "4", None])
    def test_non_int_length_rejected(self, l):
        with pytest.raises(InvalidParams):
            keygen(l, FixedEntropy("1010"))


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
        assert seq.ids == tuple(lib.ids()[i] for i in expected)

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
        cid = lib.ids()[0]
        with pytest.raises(InvalidArrangement):
            extract(StegoSequence(ids=(cid, cid, lib.ids()[1])), StegoKey("0000"), lib)

    def test_unreachable_arrangement(self):
        lib = mem_library(3)
        arr = unrank(5, T=3, N=2)  # rank beyond the 2-bit payload image
        seq = StegoSequence(ids=tuple(lib.ids()[i] for i in arr.indices))
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


class TestZeroWidthPayload:
    """At T = N = 1 there is one arrangement, so l = 0 and the payload is
    the empty string."""

    def test_round_trip(self):
        lib = OneCoverLibrary()
        seq = embed(Message(""), StegoKey(""), lib, 1)
        assert seq.ids == (lib.cid,)
        assert extract(seq, StegoKey(""), lib) == Message("")

    def test_lengths_still_checked(self):
        lib = OneCoverLibrary()
        with pytest.raises(LengthMismatch):
            embed(Message("0"), StegoKey(""), lib, 1)
        with pytest.raises(LengthMismatch):
            extract(StegoSequence(ids=(lib.cid,)), StegoKey("1"), lib)


def _outcome(fn, *args):
    """What a call returns, or the type of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raised", type(exc)


_LIBRARIES = {}


def _library(T):
    if T not in _LIBRARIES:
        _LIBRARIES[T] = OneCoverLibrary() if T == 1 else mem_library(T, tag=f"oracle{T}")
    return _LIBRARIES[T]


def _bits(data, length):
    return "".join(data.draw(st.lists(st.sampled_from("01"), min_size=length, max_size=length)))


@pytest.mark.parametrize(
    "T, N, count", [(2, 1, None), (3, 3, None), (5, 2, None), (16, 4, 500), (20, 4, 500),
                    (1024, 16, 500), (10000, 64, 500)],
)
def test_codec_walks_agree(T, N, count):
    """The game codec, embed and unrank walk one digit path: every value at
    the small shapes (count None), 500 seeded ones at the others, all map to
    the same ids, and both extract directions return the value."""
    lib = _library(T)
    l = capacity(T, N).l
    rng = random.Random(T * 1000 + N)
    key = rng.getrandbits(l)
    codec = _codec(SimpleNamespace(library=lib, N=N), l, key)
    stego_key = StegoKey(bits_of(key, l))
    values = range(1 << l) if count is None else [rng.getrandbits(l) for _ in range(count)]
    for v in values:
        seq = codec.embed(v)
        assert seq == embed(Message(bits_of(v, l)), stego_key, lib, N)
        assert seq.ids == tuple(lib.ids()[i] for i in unrank(v ^ key, T, N).indices)
        assert codec.extract(seq) == v
        assert extract(seq, stego_key, lib).value == v


class TestMatchesStringPath:
    """embed and extract agree with the earlier string path, which XORs and
    codes '0'/'1' strings, on outputs and on the type of every error."""

    def _check(self, data, T, N, l_message, l_key):
        lib = _library(T)
        m, k = Message(_bits(data, l_message)), StegoKey(_bits(data, l_key))
        got = _outcome(embed, m, k, lib, N)
        assert got == _outcome(embed_reference, m, k, lib, N)
        if got[0] == "returned":
            assert _outcome(extract, got[1], k, lib) == _outcome(extract_reference, got[1], k, lib)
            assert extract(got[1], k, lib) == m

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_shape_up_to_twelve(self, data):
        T = data.draw(st.integers(1, 12))
        N = data.draw(st.integers(1, T))
        l = capacity(T, N).l
        self._check(data, T, N, l, l)

    @pytest.mark.parametrize("T, N", [(1024, 16), (10000, 64)])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_large_libraries(self, T, N, data):
        l = capacity(T, N).l
        self._check(data, T, N, l, l)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_length_and_shape_errors(self, data):
        T = data.draw(st.integers(1, 8))
        N = data.draw(st.integers(0, T + 1))
        l = capacity(T, N).l if 1 <= N <= T else 3
        self._check(
            data, T, N, max(0, l + data.draw(st.integers(-1, 1))), max(0, l + data.draw(st.integers(-1, 1)))
        )

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_forged_sequences(self, data):
        """Foreign ids, repeated ids, ranks outside the codec image and keys
        of the wrong length, in any combination."""
        T = data.draw(st.integers(1, 8))
        lib = _library(T)
        pool = [*lib.ids(), "f" * 64]
        ids = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=T + 1))
        n = len(ids)
        l = capacity(T, n).l if 1 <= n <= T else 2
        k = StegoKey(_bits(data, max(0, l + data.draw(st.integers(-1, 1)))))
        seq = StegoSequence(ids=tuple(ids))
        assert _outcome(extract, seq, k, lib) == _outcome(extract_reference, seq, k, lib)


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
