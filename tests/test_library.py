import hashlib
import json

import pytest

from stegogame.errors import (
    CoverReadError,
    DuplicateCover,
    LibraryTooSmall,
    MalformedFile,
    NotInLibrary,
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


def test_hash_bytes_matches_stdlib():
    blob = b"\x00\x01abc"
    assert hash_bytes(blob) == hashlib.sha256(blob).hexdigest()


def test_hash_file_matches_stdlib(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(b"payload" * 1000)
    digest, nbytes = hash_file(p)
    assert digest == hashlib.sha256(b"payload" * 1000).hexdigest()
    assert nbytes == 7000


def test_hash_file_missing(tmp_path):
    with pytest.raises(CoverReadError) as exc:
        hash_file(tmp_path / "nope.bin")
    assert exc.value.code == "IoError"


class TestBuildLibrary:
    def test_canonical_ascending_order(self, make_covers):
        lib = build_library(make_covers(8))
        ids = lib.ids()
        assert list(ids) == sorted(ids)
        assert lib.T == 8

    def test_lookup_inverse(self, file_library):
        for i in range(file_library.T):
            assert file_library.lookup(file_library.id_at(i)) == i

    def test_lookup_entry(self, file_library):
        cid = file_library.id_at(0)
        assert file_library.lookup_entry(cid).id == cid

    def test_lookup_foreign_raises(self, file_library):
        with pytest.raises(NotInLibrary):
            file_library.lookup("e" * 64)

    def test_order_independent_of_input_order(self, make_covers):
        paths = make_covers(6)
        assert build_library(paths) == build_library(list(reversed(paths)))

    def test_worker_count_invariance(self, make_covers):
        paths = make_covers(9)
        assert build_library(paths, max_workers=1) == build_library(paths, max_workers=4)

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

    def test_rejects_bad_id(self, file_library):
        doc = library_to_manifest(file_library)
        doc["covers"][0]["id"] = "not-a-digest"
        with pytest.raises(MalformedFile):
            library_from_manifest(doc)

    def test_rejects_garbage_file(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{not json")
        with pytest.raises(MalformedFile):
            load_manifest(p)
        p.write_text(json.dumps({"version": 1}))
        with pytest.raises(MalformedFile):
            load_manifest(p)
