import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    OneCoverLibrary,
    embed_reference,
    extract_reference,
    lex_arrangements,
    mem_library,
)
from stegogame.errors import (
    CoverReadError,
    DuplicateCover,
    EntropyUnavailable,
    InvalidArrangement,
    InvalidConfig,
    InvalidParams,
    LengthMismatch,
    LibraryTooSmall,
    MalformedFile,
    NotInLibrary,
    UnreachableArrangement,
)
from stegogame.library import CoverEntry, CoverLibrary
from stegogame.permcodec import Arrangement, Capacity, capacity, unrank
from stegogame.stego import (
    _Block,
    _codec,
    Message,
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
    """An entropy source whose every draw is ``value``."""

    def __init__(self, value):
        self._value = value

    def getrandbits(self, n: int):
        return self._value


class TestKeygen:
    def test_passes_injected_entropy_through(self):
        assert keygen(4, FixedEntropy(0b1010)) == StegoKey(10, 4)

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidParams):
            keygen(0)

    def test_seeded_entropy_is_reproducible(self):
        assert keygen(64, random.Random(9)) == keygen(64, random.Random(9))
        assert keygen(64, random.Random(9)) != keygen(64, random.Random(10))
        assert keygen(64, random.Random(9)).value == random.Random(9).getrandbits(64)

    def test_system_entropy_varies(self):
        keys = {keygen(64).value for _ in range(8)}
        assert len(keys) == 8

    def test_short_entropy_source_rejected(self):
        """A draw that is not an int in [0, 2**l) is the source's fault."""
        for draw in (256, -1, "101", 5.0, True, None):
            with pytest.raises(EntropyUnavailable):
                keygen(8, FixedEntropy(draw))

    @pytest.mark.parametrize("l", [True, False, 4.0, "4", None])
    def test_non_int_length_rejected(self, l):
        with pytest.raises(InvalidParams):
            keygen(l, FixedEntropy(0b1010))

    def test_os_entropy_failure_is_typed(self, monkeypatch, tmp_path, capsys):
        """An OS that cannot supply entropy fails keygen with
        EntropyUnavailable, and the CLI with exit 1 and a JSON error."""
        from stegogame.cli import dispatch

        def no_entropy(n):
            raise OSError("no entropy source")

        # secrets.SystemRandom().getrandbits reads random._urandom
        monkeypatch.setattr(random, "_urandom", no_entropy)
        with pytest.raises(EntropyUnavailable, match="no entropy source"):
            keygen(8)
        capsys.readouterr()
        assert dispatch(["keygen", "--bits", "8", "-o", str(tmp_path / "key.txt")]) == 1
        out, err = capsys.readouterr()
        assert out == '{"detail":"no entropy source","error":"EntropyUnavailable"}\n'
        assert "Traceback" not in err and not (tmp_path / "key.txt").exists()


class TestEmbed:
    def test_zero_payload_takes_first_covers(self):
        lib = mem_library(4)
        seq = embed(Message(0, 4), StegoKey(0, 4), lib, N=3)
        assert seq.ids == lib.ids()[:3]

    def test_xor_self_inverse_pair(self):
        lib = mem_library(4)
        a = embed(Message(0, 4), StegoKey(0, 4), lib, N=3)
        b = embed(Message(6, 4), StegoKey(6, 4), lib, N=3)
        assert a == b

    def test_rank_six_example(self):
        lib = mem_library(4)
        seq = embed(Message(3, 4), StegoKey(5, 4), lib, N=3)
        expected = lex_arrangements(4, 3)[6]
        assert seq.ids == tuple(lib.ids()[i] for i in expected)

    def test_length_mismatch(self):
        lib = mem_library(4)
        with pytest.raises(LengthMismatch):
            embed(Message(0, 3), StegoKey(0, 4), lib, N=3)
        with pytest.raises(LengthMismatch):
            embed(Message(0, 4), StegoKey(0, 5), lib, N=3)

    def test_never_reads_cover_content(self):
        # entries point at mem:// paths that cannot be opened; embedding and
        # extraction must succeed anyway
        lib = mem_library(5)
        seq = embed(Message(0, 5), StegoKey(31, 5), lib, N=3)
        assert extract(seq, StegoKey(31, 5), lib) == Message(0, 5)

    @given(st.data())
    @settings(max_examples=60)
    def test_key_xor_shift_symmetry(self, data):
        lib = mem_library(4)
        l = capacity(4, 3).l
        m = data.draw(st.integers(0, 2**l - 1))
        k = data.draw(st.integers(0, 2**l - 1))
        d = data.draw(st.integers(0, 2**l - 1))
        direct = embed(Message(m, l), StegoKey(k, l), lib, 3)
        shifted = embed(Message(m ^ d, l), StegoKey(k ^ d, l), lib, 3)
        assert direct == shifted


class TestExtract:
    def test_round_trip_many(self):
        lib = mem_library(6)
        l = capacity(6, 3).l
        rng = random.Random(0)
        for _ in range(300):
            m = Message(rng.getrandbits(l), l)
            k = StegoKey(rng.getrandbits(l), l)
            assert extract(embed(m, k, lib, 3), k, lib) == m

    def test_wrong_key_agreement_near_half(self):
        lib = mem_library(6)
        l = capacity(6, 3).l
        rng = random.Random(1)
        m = Message(rng.getrandbits(l), l)
        agree = total = 0
        for _ in range(500):
            k = StegoKey(rng.getrandbits(l), l)
            wrong = StegoKey(rng.getrandbits(l), l)
            got = extract(embed(m, k, lib, 3), wrong, lib)
            agree += l - (got.value ^ m.value).bit_count()
            total += l
        assert abs(agree / total - 0.5) < 0.05

    def test_foreign_id_raises(self):
        lib = mem_library(4)
        seq = embed(Message(0, 4), StegoKey(0, 4), lib, 3)
        forged = StegoSequence(ids=("f" * 64,) + seq.ids[1:])
        with pytest.raises(NotInLibrary):
            extract(forged, StegoKey(0, 4), lib)

    def test_duplicate_ids_raise(self):
        lib = mem_library(4)
        cid = lib.ids()[0]
        with pytest.raises(InvalidArrangement):
            extract(StegoSequence(ids=(cid, cid, lib.ids()[1])), StegoKey(0, 4), lib)

    def test_unreachable_arrangement(self):
        lib = mem_library(3)
        arr = unrank(5, T=3, N=2)  # rank beyond the 2-bit payload image
        seq = StegoSequence(ids=tuple(lib.ids()[i] for i in arr.indices))
        with pytest.raises(UnreachableArrangement):
            extract(seq, StegoKey(0, 2), lib)

    def test_key_length_mismatch(self):
        lib = mem_library(4)
        seq = embed(Message(0, 4), StegoKey(0, 4), lib, 3)
        with pytest.raises(LengthMismatch):
            extract(seq, StegoKey(0, 5), lib)

    @given(st.data())
    @settings(max_examples=80)
    def test_round_trip_property(self, data):
        T = data.draw(st.integers(2, 10))
        N = data.draw(st.integers(1, T))
        lib = mem_library(T)
        l = capacity(T, N).l
        m = Message(data.draw(st.integers(0, 2**l - 1)), l)
        k = StegoKey(data.draw(st.integers(0, 2**l - 1)), l)
        assert extract(embed(m, k, lib, N), k, lib) == m


class TestZeroWidthPayload:
    """At T = N = 1 there is one arrangement, so l = 0 and the payload is
    the empty string."""

    def test_round_trip(self):
        lib = OneCoverLibrary()
        seq = embed(Message(0, 0), StegoKey(0, 0), lib, 1)
        assert seq.ids == (lib.cid,)
        assert extract(seq, StegoKey(0, 0), lib) == Message(0, 0)

    def test_lengths_still_checked(self):
        lib = OneCoverLibrary()
        with pytest.raises(LengthMismatch):
            embed(Message(0, 1), StegoKey(0, 0), lib, 1)
        with pytest.raises(LengthMismatch):
            extract(StegoSequence(ids=(lib.cid,)), StegoKey(1, 1), lib)


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


def _block(data, cls, l):
    return cls(data.draw(st.integers(0, 2**l - 1)), l)


@pytest.mark.parametrize(
    "T, N, count", [(2, 1, None), (3, 3, None), (5, 2, None), (16, 4, 500), (20, 4, 500),
                    (1024, 16, 500), (10000, 64, 500)],
)
def test_codec_walks_agree(T, N, count):
    """The int codec, embed and unrank walk one digit path: every value at
    the small shapes (count None), 500 seeded ones at the others, all map to
    the same ids, and both extract directions return the value."""
    lib = _library(T)
    l = capacity(T, N).l
    rng = random.Random(T * 1000 + N)
    key = rng.getrandbits(l)
    codec = _codec(lib, N, key)
    assert codec.l == l
    stego_key = StegoKey(key, l)
    values = range(1 << l) if count is None else [rng.getrandbits(l) for _ in range(count)]
    for v in values:
        seq = codec.embed(v)
        assert seq == embed(Message(v, l), stego_key, lib, N)
        assert seq.ids == tuple(lib.ids()[i] for i in unrank(v ^ key, T, N).indices)
        assert codec.extract(seq) == v
        assert extract(seq, stego_key, lib).value == v


@pytest.mark.parametrize("value", [True, False, -1, 1 << 15], ids=["true", "false", "negative", "2**l"])
def test_codec_refuses_a_value_not_of_l_bits(value):
    """The int codec's embed takes an int in [0, 2**l) only: a bool, a negative
    value and 2**l are InvalidConfig, their text ``check_width``'s."""
    with pytest.raises(InvalidConfig) as caught:
        _codec(_library(16), 4, 5).embed(value)
    assert str(caught.value) == f"payload must be an int in [0, 2**15), got {value!r}"


class TestMatchesStringPath:
    """embed and extract agree with the earlier string path, which XORs and
    codes '0'/'1' strings, on outputs and on the type of every error."""

    def _check(self, data, T, N, l_message, l_key):
        lib = _library(T)
        m, k = _block(data, Message, l_message), _block(data, StegoKey, l_key)
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
        k = _block(data, StegoKey, max(0, l + data.draw(st.integers(-1, 1))))
        seq = StegoSequence(ids=tuple(ids))
        assert _outcome(extract, seq, k, lib) == _outcome(extract_reference, seq, k, lib)


class TestKeyFile:
    def test_round_trip(self, tmp_path):
        key = StegoKey(22, 5)
        p = tmp_path / "key.txt"
        save_key(key, p)
        assert p.read_text() == "l=5\n16\n"
        assert load_key(p) == key

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "key.txt"
        for text in ["", "l=5\n", "length=5\n16\n", "l=5\nzz\n", "l=5\n166\n", "l=5\nff\n", "l=0\n\n"]:
            p.write_text(text)
            with pytest.raises(MalformedFile):
                load_key(p)

    @pytest.mark.parametrize(
        "length", ["٣", "５", "9" * 5000], ids=["arabic-indic", "fullwidth", "5000-digits"]
    )
    def test_length_is_a_short_ascii_number(self, tmp_path, length):
        """``l=`` takes ASCII digits only: an Arabic-Indic or fullwidth digit,
        which ``int`` would read, is refused, and so is a length past the
        digit limit of ``int``."""
        p = tmp_path / "key.txt"
        p.write_text(f"l={length}\n7\n", encoding="utf-8")
        with pytest.raises(MalformedFile, match="first line"):
            load_key(p)

    def test_text_after_the_second_line_refused(self, tmp_path):
        """A key file is its two lines: blank lines may follow them, text may not,
        so a concatenated or overwritten key file is not read as its first key."""
        p = tmp_path / "key.txt"
        for tail in ["anything here\n", "\n\nl=8\n5a\n", " 0\n", "\t-"]:
            p.write_text("l=8\n5a\n" + tail)
            with pytest.raises(MalformedFile, match="text after its second line"):
                load_key(p)
        for tail in ["", "\n", " \t\n\r\n", "\n\n", "\x0c\n"]:
            p.write_text("l=8\n5a\n" + tail)
            assert load_key(p) == StegoKey(0x5A, 8), repr(tail)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CoverReadError, match="cannot read key file"):
            load_key(tmp_path / "ghost.txt")


class TestSequenceFile:
    def test_round_trip(self, tmp_path):
        lib = mem_library(5)
        seq = embed(Message(0, 5), StegoKey(21, 5), lib, 3)
        p = tmp_path / "seq.json"
        save_sequence(seq, p)
        assert load_sequence(p) == seq

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "seq.json"
        lib = mem_library(4)
        good_ids = list(embed(Message(0, 4), StegoKey(0, 4), lib, 3).ids)
        cases = [
            "{not json",
            '{"version":2,"N":3,"ids":%s}' % __import__("json").dumps(good_ids),
            '{"version":1,"N":2,"ids":%s}' % __import__("json").dumps(good_ids),
            '{"version":1,"N":1,"ids":["short"]}',
            '{"version":1,"N":1,"ids":["%s"]}' % ("g" * 64),
            '{"version":1,"ids":[]}',
            '{"version":true,"N":true,"ids":{"%s":0}}' % good_ids[0],
            '{"version":1.0,"N":3,"ids":%s}' % __import__("json").dumps(good_ids),
            '{"version":1,"N":3.0,"ids":%s}' % __import__("json").dumps(good_ids),
            '{"version":1,"N":1,"ids":{"%s":0}}' % good_ids[0],
        ]
        for text in cases:
            p.write_text(text)
            with pytest.raises(MalformedFile):
                load_sequence(p)

    def test_empty_sequence_refused(self, tmp_path):
        """N = 0 arranges nothing that any codec decodes: the file is refused as
        malformed, not left for extract's arrangement check."""
        p = tmp_path / "seq.json"
        p.write_text('{"version":1,"N":0,"ids":[]}')
        with pytest.raises(MalformedFile, match="sequence N must be >= 1, got 0"):
            load_sequence(p)


# The codec's eight value types: (class, field names, field values, repr).
_E1, _E2 = CoverEntry("1" * 64, "a.bin", 3), CoverEntry("2" * 64, "b.bin", 0)
_RECORDS = [
    (CoverEntry, ("id", "path", "nbytes"), ("1" * 64, "a.bin", 3),
     f"CoverEntry(id='{'1' * 64}', path='a.bin', nbytes=3)"),
    (CoverLibrary, ("covers",), ((_E1, _E2),), f"CoverLibrary(covers=({_E1!r}, {_E2!r}))"),
    (Arrangement, ("indices", "T"), ((2, 0), 3), "Arrangement(indices=(2, 0), T=3)"),
    (Capacity, ("r", "l"), (24, 4), "Capacity(r=24, l=4)"),
    (_Block, ("value", "l"), (1, 1), "_Block(value=1, l=1)"),
    (StegoKey, ("value", "l"), (1, 2), "StegoKey(value=1, l=2)"),
    (Message, ("value", "l"), (1, 2), "Message(value=1, l=2)"),
    (StegoSequence, ("ids",), (("x", "y"),), "StegoSequence(ids=('x', 'y'))"),
]


@pytest.mark.parametrize("cls, names, values, text", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_value_types_are_frozen_records(cls, names, values, text):
    """Each value type builds from positional or keyword fields in one order,
    refuses a missing or an extra one, prints as the dataclass repr did,
    equals and hashes as its fields only against its own class, and refuses
    to assign or delete a field."""
    record = cls(*values)
    twin = cls(**dict(zip(names, values)))
    assert repr(record) == repr(twin) == text
    assert record == twin and not record != twin and hash(record) == hash(twin)
    assert [getattr(record, name) for name in names] == list(values)
    assert record != values and values != record and not record == values
    for bad in (lambda: cls(*values[1:]), lambda: cls(*values, None),
                lambda: cls(**dict(zip(names, values)), extra=None)):
        with pytest.raises(TypeError):
            bad()
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == list(values)


def test_value_types_compare_by_class():
    assert Message(1, 2) != StegoKey(1, 2) and not Message(1, 2) == StegoKey(1, 2)
    assert Capacity(24, 4) != (24, 4) and Capacity(24, 4) != Capacity(24, 5)
    assert StegoSequence(("x",)) != ("x",) and StegoSequence(["x"]) == StegoSequence(("x",))
    assert Arrangement([2, 0], 3).indices == (2, 0) and Arrangement([2, 0], 3).N == 2
    assert StegoSequence(["x", "y"]).ids == ("x", "y") and StegoSequence(["x", "y"]).N == 2
    assert {Message(1, 2), Message(1, 2), StegoKey(1, 2)} == {Message(1, 2), StegoKey(1, 2)}
    # an l-bit int and nothing else: no '0'/'1' view of the payload
    assert vars(Message(6, 4)) == {"value": 6, "l": 4} and not hasattr(StegoKey(1, 3), "bits")


@pytest.mark.parametrize("build, error, text", [
    (lambda: Arrangement((0, 0), 3), InvalidArrangement, "duplicate index 0"),
    (lambda: Arrangement((0, 3), 3), InvalidArrangement, "index must be at most 2, got 3"),
    (lambda: Arrangement((True,), 3), InvalidArrangement, "index must be an integer, got True"),
    (lambda: Arrangement((), 3), InvalidArrangement, "need 1 <= N <= T, got T=3, N=0"),
    (lambda: Arrangement((0,), 3.0), InvalidArrangement, "need 1 <= N <= T, got T=3.0, N=1"),
    (lambda: StegoKey("01", 2), InvalidParams, r"block value must be an int in \[0, 2\*\*2\)"),
    (lambda: Message(None, 0), InvalidParams, r"block value must be an int in \[0, 2\*\*0\)"),
    (lambda: Message(16, 4), InvalidParams, r"block value must be an int in \[0, 2\*\*4\)"),
    (lambda: Message(-1, 4), InvalidParams, r"block value must be an int in \[0, 2\*\*4\)"),
    (lambda: Message(True, 1), InvalidParams, r"block value must be an int in \[0, 2\*\*1\)"),
    (lambda: StegoKey(0, -1), InvalidParams, "block length must be >= 0, got -1"),
    (lambda: StegoKey(0, 4.0), InvalidParams, "block length must be an integer, got 4.0"),
    (lambda: CoverLibrary((_E1,)), LibraryTooSmall, "need at least 2 covers, got 1"),
    (lambda: CoverLibrary((_E1, _E1)), DuplicateCover, f"digest {'1' * 64} \\('a.bin' and 'a.bin'\\)$"),
    (lambda: CoverLibrary((_E2, _E1)), MalformedFile, "not in ascending digest order"),
])
def test_value_types_validate_on_construction(build, error, text):
    with pytest.raises(error, match=text) as exc:
        build()
    assert type(exc.value) is error


def test_record_repr_past_the_int_digit_limit():
    """An int field past Python's 4,300-digit str limit prints as its type and
    size, where ``repr`` of the record used to raise ValueError."""
    cap, key = capacity(10000, 2000), keygen(20000, random.Random(1))
    assert repr(cap) == f"Capacity(r=<int of {cap.r.bit_length()} bits>, l={cap.l})"
    assert repr(key) == f"StegoKey(value=<int of {key.value.bit_length()} bits>, l=20000)"


def test_library_lookups_after_construction():
    e3 = CoverEntry("3" * 64, "c.bin", 9)
    lib = CoverLibrary(covers=(_E1, _E2, e3))
    assert lib.T == 3 and lib.ids() == ("1" * 64, "2" * 64, "3" * 64)
    assert [lib.lookup(e.id) for e in (e3, _E1, _E2)] == [2, 0, 1]
    assert lib.lookup_entry("2" * 64) is _E2
    with pytest.raises(NotInLibrary):
        lib.lookup("4" * 64)
    assert lib == CoverLibrary((_E1, _E2, e3)) and hash(lib) == hash(CoverLibrary((_E1, _E2, e3)))


def test_codec_built_sequence_is_a_public_one():
    """The int codec's sequences are the ones the public constructor builds
    from the same ids, in every respect."""
    lib = mem_library(6, tag="records")
    seq = _codec(lib, 3, 5).embed(17)
    public = StegoSequence(ids=list(seq.ids))
    assert type(seq) is StegoSequence and type(seq.ids) is tuple
    assert seq == public and hash(seq) == hash(public) and repr(seq) == repr(public)
    assert seq.N == public.N == 3 and vars(seq) == vars(public)
    with pytest.raises(AttributeError):
        seq.ids = ()
