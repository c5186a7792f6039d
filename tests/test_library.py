import hashlib
import json

import pytest

from stegogame.attackgame.scenario import load_scenario
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
from stegogame.stego import StegoKey, StegoSequence, load_key, load_sequence, save_key, save_sequence

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
    with pytest.raises(CoverReadError) as exc:
        hash_file(tmp_path / "nope.bin")
    assert exc.value.code == "IoError"


def test_hash_file_nul_in_path(tmp_path):
    with pytest.raises(CoverReadError):
        hash_file(tmp_path / "nul\x00.bin")


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
        with pytest.raises(MalformedFile, match="bad cover"):
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
# cannot be opened, MalformedFile for one that is not UTF-8
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
    with pytest.raises(StegogameError) as exc:
        READERS[reader](str(tmp_path / name[case]))
    assert type(exc.value) is (MalformedFile if case == "non-utf8" else CoverReadError)



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
