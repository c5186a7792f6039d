import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stegogame.attackgame.scenario import load_scenario
from stegogame.bits import hex_digits_for
from stegogame.cli import _read_samples
from stegogame.errors import (
    CoverReadError,
    DuplicateCover,
    FileWriteError,
    LibraryTooSmall,
    MalformedFile,
    NotInLibrary,
    StegogameError,
)
from stegogame.library import (
    CoverLibrary,
    build_library,
    hash_bytes,
    hash_file,
    library_from_manifest,
    library_to_manifest,
    load_manifest,
    save_manifest,
)
from stegogame.stego import (
    MAX_KEY_BITS, StegoKey, StegoSequence, load_key, load_sequence, save_key, save_sequence,
    sequence_from_json, sequence_to_json,
)

from helpers import mem_library


def test_hash_bytes_matches_stdlib():
    blob = b"\x00\x01abc"
    assert hash_bytes(blob) == hashlib.sha256(blob).hexdigest()


def test_hash_file_matches_stdlib(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(b"payload" * 1000)
    digest, nbytes = hash_file(p)
    assert digest == hashlib.sha256(b"payload" * 1000).hexdigest()
    assert nbytes == 7000


def test_hash_file_past_its_read_chunks(tmp_path):
    """A file one byte longer than three 1 MiB read chunks hashes whole."""
    data = bytes(range(256)) * (3 * 4096) + b"\x07"
    p = tmp_path / "big.bin"
    p.write_bytes(data)
    assert len(data) == 3 * (1 << 20) + 1
    assert hash_file(p) == (hashlib.sha256(data).hexdigest(), len(data))


def test_hash_file_missing(tmp_path):
    # the path once, then the OS's reason without it
    with pytest.raises(CoverReadError) as exc:
        hash_file(tmp_path / "nope.bin")
    assert exc.value.code == "IoError"
    assert str(exc.value) == f"cannot read cover file {str(tmp_path / 'nope.bin')!r}: No such file or directory"


def test_hash_file_nul_in_path(tmp_path):
    path = tmp_path / "nul\x00.bin"
    with pytest.raises(CoverReadError) as exc:
        hash_file(path)
    assert str(exc.value) == f"cannot read cover file {str(path)!r}: embedded null byte"


class TestBuildLibrary:
    def test_canonical_ascending_order(self, make_covers):
        lib = build_library(make_covers(8))
        ids = lib.ids()
        assert list(ids) == sorted(ids)
        assert lib.T == 8

    def test_lookup_inverse(self, file_library):
        for i in range(file_library.T):
            assert file_library.lookup(file_library.ids()[i]) == i

    def test_lookup_entry(self, file_library):
        cid = file_library.ids()[0]
        assert file_library.lookup_entry(cid).id == cid

    def test_lookup_foreign_raises(self, file_library):
        with pytest.raises(NotInLibrary):
            file_library.lookup("e" * 64)

    def test_order_independent_of_input_order(self, make_covers):
        paths = make_covers(6)
        assert build_library(paths) == build_library(list(reversed(paths)))

    def test_duplicate_content_rejected(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        c = tmp_path / "c.bin"
        a.write_bytes(b"same")
        b.write_bytes(b"same")
        c.write_bytes(b"other")
        with pytest.raises(DuplicateCover) as exc:
            build_library([a, b, c])
        assert {str(a), str(b)} <= set(map(str, exc.value.paths))

    def test_too_small(self, make_covers):
        with pytest.raises(LibraryTooSmall):
            build_library(make_covers(1))

    def test_missing_file(self, make_covers, tmp_path):
        paths = make_covers(2) + [tmp_path / "ghost.bin"]
        with pytest.raises(CoverReadError):
            build_library(paths)


class TestManifest:
    def test_round_trip(self, file_library, tmp_path):
        out = tmp_path / "manifest.json"
        save_manifest(file_library, out)
        assert load_manifest(out) == file_library

    def test_dict_round_trip(self, file_library):
        assert library_from_manifest(library_to_manifest(file_library)) == file_library

    def test_rejects_wrong_version(self, file_library):
        doc = library_to_manifest(file_library)
        doc["version"] = 99
        with pytest.raises(MalformedFile):
            library_from_manifest(doc)

    @pytest.mark.parametrize(
        "field, make",
        [("version", lambda doc: True), ("version", lambda doc: 1.0), ("T", lambda doc: float(doc["T"])),
         ("T", lambda doc: str(doc["T"])), ("covers", lambda doc: {c["id"]: c for c in doc["covers"]})],
        ids=["version-true", "version-float", "T-float", "T-string", "covers-object"],
    )
    def test_rejects_inexact_fields(self, file_library, field, make):
        """``version`` and ``T`` are exact ints, not values equal to one, and
        ``covers`` is a JSON array."""
        doc = library_to_manifest(file_library)
        doc[field] = make(doc)
        with pytest.raises(MalformedFile, match=f"manifest {field} must be"):
            library_from_manifest(json.loads(json.dumps(doc)))

    def test_rejects_unsorted_ids(self, file_library):
        doc = library_to_manifest(file_library)
        doc["covers"].reverse()
        with pytest.raises(MalformedFile):
            library_from_manifest(doc)

    def test_duplicate_id_names_both_paths(self, file_library):
        doc = library_to_manifest(file_library)
        doc["covers"][1]["id"] = doc["covers"][0]["id"]
        doc["covers"][1]["path"] = "twin.bin"
        first = doc["covers"][0]["path"]
        with pytest.raises(DuplicateCover) as exc:
            library_from_manifest(doc)
        assert exc.value.paths == (first, "twin.bin")
        assert str(exc.value).endswith(f"({first!r} and 'twin.bin')")

    def test_rejects_bad_id(self, file_library):
        doc = library_to_manifest(file_library)
        doc["covers"][0]["id"] = "not-a-digest"
        with pytest.raises(MalformedFile):
            library_from_manifest(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("path", 5), ("path", None), ("path", "a\x00b"), ("bytes", -3), ("bytes", True),
         ("bytes", 2.0), ("bytes", "7")],
    )
    def test_rejects_bad_entry(self, file_library, field, value):
        doc = library_to_manifest(file_library)
        doc["covers"][1][field] = value
        with pytest.raises(MalformedFile, match="bad cover path|cover size must be"):
            library_from_manifest(doc)

    def test_rejects_garbage_file(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{not json")
        with pytest.raises(MalformedFile):
            load_manifest(p)
        p.write_text(json.dumps({"version": 1}))
        with pytest.raises(MalformedFile):
            load_manifest(p)


# every reader of an input file (``_read_samples`` reads ``divergence -a`` and
# ``-b``); one rule for all of them: CoverReadError (IoError) for a file that
# cannot be opened, MalformedFile for one that is not UTF-8 or, read as JSON,
# not JSON; each detail names the kind of file and its path once
WHAT = {"load_key": "key file", "load_sequence": "sequence file", "load_manifest": "manifest",
        "load_scenario": "scenario", "divergence -a": "samples file"}
# the OS's reason for each file that cannot be opened or written
REASON = {"missing": "No such file or directory", "missing directory": "No such file or directory",
          "directory": "Is a directory", "nul": "embedded null byte"}
READERS = {
    "load_key": load_key,
    "load_sequence": load_sequence,
    "load_manifest": load_manifest,
    "load_scenario": load_scenario,
    "divergence -a": _read_samples,
}


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8", "nul"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_raises_its_typed_error(tmp_path, reader, case):
    (tmp_path / "noise.bin").write_bytes(b"\xff\xfe\x80{}")
    name = {"missing": "ghost.json", "directory": "", "non-utf8": "noise.bin", "nul": "a\x00b"}
    path = str(tmp_path / name[case])
    with pytest.raises(StegogameError) as exc:
        READERS[reader](path)
    assert type(exc.value) is (MalformedFile if case == "non-utf8" else CoverReadError)
    if case == "non-utf8":
        assert str(exc.value).startswith(f"{WHAT[reader]} {path} is not UTF-8 text (")
    else:
        assert str(exc.value) == f"cannot read {WHAT[reader]} {path!r}: {REASON[case]}"


@pytest.mark.parametrize("reader", ["load_manifest", "load_scenario", "load_sequence"])
def test_json_reader_names_its_file(tmp_path, reader):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedFile) as exc:
        READERS[reader](str(path))
    assert str(exc.value).startswith(f"{WHAT[reader]} {path} is not valid JSON (Expecting property name")



# every writer of an output file, each handed something it can write
WRITERS = {
    "save_manifest": lambda path: save_manifest(mem_library(2), path),
    "save_key": lambda path: save_key(StegoKey(6, 4), path),
    "save_sequence": lambda path: save_sequence(StegoSequence(ids=("a" * 64,)), path),
}


@pytest.mark.parametrize("case", ["missing directory", "directory", "nul"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_raises_file_write_error(tmp_path, writer, case):
    name = {"missing directory": "ghost/out.json", "directory": "", "nul": "a\x00b"}[case]
    with pytest.raises(FileWriteError) as exc:
        WRITERS[writer](str(tmp_path / name))
    assert exc.value.code == "IoError"
    assert str(exc.value).startswith("cannot write ")
    assert str(exc.value).endswith(f" {str(tmp_path / name)!r}: {REASON[case]}")


# Reader fuzzing: any JSON value (or any two lines of text, for a key file)
# either loads or raises a StegogameError, and what loads writes back the same
# document, so no value that merely equals an int (true, 1.0) gets through.
# A document is any JSON value, or a valid one with up to three of its fields
# replaced, deleted or turned from an array into an object; the mutations keep
# to a reader's own fields, since a reader ignores fields it does not know.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_NEAR = st.one_of(st.sampled_from([True, False, 1.0, 0.0, -1, 0, 1, 2, "1", None, []]), _JSON)
_IDS = mem_library(5).ids()
_SEQUENCES = st.lists(st.sampled_from(_IDS), max_size=5).map(
    lambda ids: {"version": 1, "N": len(ids), "ids": ids}
)
_MANIFESTS = st.lists(
    st.tuples(st.sampled_from(_IDS), st.text(max_size=6), st.integers(0, 2**70)), unique_by=lambda c: c[0], max_size=5
).map(lambda covers: {
    "version": 1, "T": len(covers),
    "covers": [{"id": cid, "path": path, "bytes": size} for cid, path, size in sorted(covers)],
})


@st.composite
def _mutated(draw, valid):
    if draw(st.integers(0, 5)) == 0:
        return draw(_JSON)
    doc = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        fields = [(doc, key) for key in doc]
        covers = doc.get("covers") if type(doc.get("covers")) is list else []
        fields += [(entry, key) for entry in covers if type(entry) is dict for key in entry]
        if not fields:
            break
        holder, key = draw(st.sampled_from(fields))
        how = draw(st.sampled_from(["replace", "delete", "object"]))
        if how == "delete":
            del holder[key]
        elif how == "object" and type(holder[key]) is list:
            holder[key] = {json.dumps(item): item for item in holder[key]}
        else:
            holder[key] = draw(_NEAR)
    return doc


def _loads_back(load, dump, doc) -> None:
    try:
        loaded = load(doc)
    except StegogameError:
        return
    assert json.dumps(dump(loaded), sort_keys=True) == json.dumps(doc, sort_keys=True)


@given(_mutated(_SEQUENCES))
@settings(max_examples=400, deadline=None)
def test_sequence_reader_fuzzed(doc):
    _loads_back(sequence_from_json, sequence_to_json, doc)


@given(_mutated(_MANIFESTS))
@settings(max_examples=400, deadline=None)
def test_manifest_reader_fuzzed(doc):
    _loads_back(library_from_manifest, library_to_manifest, doc)


_LINE = st.text(st.characters(exclude_categories=["Cs"]), max_size=10)


@st.composite
def _key_texts(draw):
    """Two lines near a key file's: a length, often small, then as many hex digits as it needs;
    then a line end, blank lines or a third line of any text."""
    l = draw(st.one_of(st.integers(0, 24), st.integers(0, 10**10)))
    digits = hex_digits_for(l) if l <= 24 else draw(st.integers(0, 6))
    hexstr = "".join(draw(st.lists(st.sampled_from("0123456789abcdefABCDEF"), min_size=digits, max_size=digits)))
    first = draw(st.one_of(st.just(f"l={l}"), st.just(f" l={l}\t"), _LINE))
    second = draw(st.one_of(st.just(hexstr), st.just(f" {hexstr} "), _LINE))
    tail = draw(st.one_of(st.sampled_from(["\n", "\r\n", "", "\n \n\t"]), _LINE.map("\n".__add__)))
    return f"{first}\n{second}" + tail


@given(st.one_of(_key_texts(), _LINE))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_key_reader_fuzzed(tmp_path, text):
    """A key loads only at a length keygen draws, 1 <= l <= MAX_KEY_BITS, and with
    no text after its two lines, and saves as those lines stripped, the hex digits
    lower-cased."""
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_bytes(text.encode("utf-8"))
    try:
        key = load_key(src)
    except StegogameError:
        return
    assert 1 <= key.l <= MAX_KEY_BITS
    save_key(key, out)
    lines = text.splitlines()
    assert not any(line.strip() for line in lines[2:])
    assert out.read_text(encoding="utf-8") == f"{lines[0].strip()}\n{lines[1].strip().lower()}\n"
