import hashlib
import json
import math
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from stegogame.cli import dispatch
from stegogame.library import build_library, save_manifest


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out: str) -> dict:
    return json.loads(out)


class TestCapacity:
    def test_documented_example(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "-T", "4", "-N", "3")
        doc = parse(out)
        assert code == 0
        assert doc["r"] == "24" and doc["l"] == 4
        assert doc["subcommand"] == "capacity"

    def test_big_r_stays_a_string(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "-T", "64", "-N", "32")
        doc = parse(out)
        assert code == 0
        assert int(doc["r"]) > 2**63

    def test_r_past_the_int_digit_limit_printed_exactly(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "capacity", "-T", "3000", "-N", "2000")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        digits = parse(out)["r"]
        assert len(digits) > limit
        value = 0
        for d in digits:  # int(digits) would hit the same limit
            value = value * 10 + int(d)
        assert value == math.perm(3000, 2000)

    def test_domain_error_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "-T", "3", "-N", "9")
        assert code == 1
        assert parse(out)["error"] == "InvalidParams"

    def test_usage_error_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "capacity", "-T", "4")
        assert code == 2
        code, _, _ = run_cli(capsys, "capacity", "-T", "4", "-N", "3", "--nope")
        assert code == 2


class TestFileRoundTrip:
    @pytest.fixture
    def workspace(self, tmp_path, make_covers, capsys):
        lib_path = tmp_path / "lib.json"
        save_manifest(build_library(make_covers(6)), lib_path)
        key_path = tmp_path / "key.txt"
        code, out, _ = run_cli(
            capsys, "keygen", "-T", "6", "-N", "3", "--seed", "42", "-o", str(key_path)
        )
        assert code == 0 and parse(out)["l"] == 6
        return tmp_path, lib_path, key_path

    def test_embed_extract_single_block(self, workspace, capsys):
        tmp_path, lib_path, key_path = workspace
        seq = tmp_path / "seq.json"
        code, out, _ = run_cli(
            capsys, "embed", "-m", "2f", "-k", str(key_path),
            "-x", str(lib_path), "-N", "3", "-o", str(seq),
        )
        assert code == 0 and parse(out)["blocks"] == 1
        code, out, _ = run_cli(
            capsys, "extract", "-s", str(seq), "-k", str(key_path), "-x", str(lib_path)
        )
        assert code == 0
        assert parse(out)["message"] == "2f"

    def test_embed_extract_multi_block(self, workspace, capsys):
        tmp_path, lib_path, key_path = workspace
        out_base = tmp_path / "m.json"
        code, out, _ = run_cli(
            capsys, "embed", "-m", "0a2f3b", "-k", str(key_path),
            "-x", str(lib_path), "-N", "3", "-o", str(out_base),
        )
        doc = parse(out)
        assert code == 0 and doc["blocks"] == 3
        args = ["extract", "-k", str(key_path), "-x", str(lib_path)]
        for p in doc["sequences"]:
            args += ["-s", p]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and parse(out)["message"] == "0a2f3b"

    def test_extract_foreign_sequence(self, workspace, capsys):
        tmp_path, lib_path, key_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "N": 3, "ids": ["a" * 64, "b" * 64, "c" * 64]}))
        code, out, _ = run_cli(
            capsys, "extract", "-s", str(bad), "-k", str(key_path), "-x", str(lib_path)
        )
        assert code == 1
        assert parse(out)["error"] == "NotInLibrary"

    def test_oversized_message_digit_rejected(self, workspace, capsys):
        tmp_path, lib_path, key_path = workspace
        code, out, _ = run_cli(
            capsys, "embed", "-m", "f", "-k", str(key_path),
            "-x", str(lib_path), "-N", "3", "-o", str(tmp_path / "x.json"),
        )
        # l=6 needs two hex digits per block
        assert code == 1

    def test_missing_key_file_names_its_path_once(self, workspace, capsys, monkeypatch):
        tmp_path, lib_path, _ = workspace
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "embed", "-m", "2f", "-k", "ghost.txt", "-x", str(lib_path),
                                 "-N", "3", "-o", "out.json")
        assert code == 1
        assert parse(out) == {"error": "IoError", "detail": "cannot read key file 'ghost.txt': No such file or directory"}
        assert "Traceback" not in err

    @pytest.mark.parametrize("reader", ["embed -k", "extract -s", "divergence -a"])
    def test_non_utf8_file_refused(self, workspace, capsys, reader):
        tmp_path, lib_path, key_path = workspace
        seq, samples, bad = tmp_path / "seq.json", tmp_path / "a.txt", tmp_path / "noise.bin"
        code, _, _ = run_cli(
            capsys, "embed", "-m", "2f", "-k", str(key_path),
            "-x", str(lib_path), "-N", "3", "-o", str(seq),
        )
        assert code == 0
        samples.write_text("1.0\n2.0\n")
        blob = random.Random(11).randbytes(512)
        with pytest.raises(UnicodeDecodeError):
            blob.decode("utf-8")
        bad.write_bytes(blob)
        argv = {
            "embed -k": ["embed", "-m", "2f", "-k", bad, "-x", lib_path, "-N", "3",
                         "-o", tmp_path / "out.json"],
            "extract -s": ["extract", "-s", bad, "-k", key_path, "-x", lib_path],
            "divergence -a": ["divergence", "-a", bad, "-b", samples, "--epsilon", "0.5"],
        }[reader]
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 1
        assert parse(out)["error"] == "MalformedFile"
        assert "UTF-8" in parse(out)["detail"] or "JSON" in parse(out)["detail"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("writer", ["build-library", "keygen", "embed"])
    def test_unwritable_output_is_an_io_error(self, workspace, capsys, writer):
        tmp_path, lib_path, key_path = workspace
        out_path = tmp_path / "missing" / "out.json"
        argv = {
            "build-library": ["build-library", *sorted(tmp_path.glob("cover*.bin")), "-o", out_path],
            "keygen": ["keygen", "--bits", "8", "--seed", "1", "-o", out_path],
            "embed": ["embed", "-m", "2f", "-k", key_path, "-x", lib_path, "-N", "3",
                      "-o", out_path],
        }[writer]
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 1
        assert parse(out)["error"] == "IoError"
        assert "cannot write" in parse(out)["detail"]
        assert "Traceback" not in err
        assert not out_path.parent.exists()

    def test_keygen_seed_reproducible(self, tmp_path, capsys):
        p1, p2 = tmp_path / "k1.txt", tmp_path / "k2.txt"
        run_cli(capsys, "keygen", "--bits", "16", "--seed", "3", "-o", str(p1))
        run_cli(capsys, "keygen", "--bits", "16", "--seed", "3", "-o", str(p2))
        assert p1.read_text() == p2.read_text()

    def test_keygen_negative_seed_refused(self, tmp_path, capsys):
        """random.Random(-5) draws what random.Random(5) does, so a negative
        seed would alias a positive one's key; it is refused, and no key file
        is written.  A seed past 2**128 still keys a draw."""
        key = tmp_path / "neg.txt"
        code, out, err = run_cli(capsys, "keygen", "--bits", "16", "--seed", "-5", "-o", str(key))
        assert (code, err) == (1, "")
        assert parse(out) == {"error": "InvalidParams", "detail": "seed must be >= 0, got -5"}
        assert not key.exists()
        big = str(2**200 + 5)
        code, out, _ = run_cli(capsys, "keygen", "--bits", "16", "--seed", big, "-o", str(key))
        assert code == 0 and parse(out)["seed"] == 2**200 + 5
        assert key.read_text().startswith("l=16\n")

    @pytest.mark.parametrize("bits", ["0", "1000000000", "100000000000"])
    def test_keygen_length_past_the_key_file_refused(self, tmp_path, capsys, bits):
        """A key file's ``l=`` line holds one to nine digits, so keygen refuses
        a length it could not write, before it draws: 10**11 bits used to die in
        a MemoryError, and 10**9 to write a key that load_key refuses."""
        key = tmp_path / "big.txt"
        code, out, err = run_cli(capsys, "keygen", "--bits", bits, "--seed", "1", "-o", str(key))
        assert (code, err) == (1, "")
        detail = "must be >= 1, got 0" if bits == "0" else f"must be at most 999999999, got {bits}"
        assert parse(out) == {"error": "InvalidParams", "detail": f"key length {detail}"}
        assert not key.exists()


# The codec's seeded bytes over six "golden" covers: build-library's stdout and
# the SHA-256 of its manifest, keygen's stdout and key file, embed's stdout and
# the SHA-256 of each sequence file it writes, and extract's stdout.  The
# four-block embed repeats "2f", which gives seq.json's bytes each time.  At
# T = 6, N = 5 and N = 6 both give l = 9, so one key decodes a sequence of each
# length in one extract.  An unseeded keygen reports no seed at all.
GOLDEN_CODEC = [
    (("build-library", *(f"golden{i}.bin" for i in range(6)), "-o", "lib.json"),
     '{"T":6,"manifest":"lib.json","params":{"output":"lib.json","paths":["golden0.bin",'
     '"golden1.bin","golden2.bin","golden3.bin","golden4.bin","golden5.bin"]},'
     '"subcommand":"build-library","tool_version":"0.1.0"}\n',
     {"lib.json": "a4197ef2857bbbca48b3122e731db7e946843c172455057da7bed764f1b8e655"}),
    (("keygen", "-T", "6", "-N", "3", "--seed", "42", "-o", "key.txt"),
     '{"key_file":"key.txt","l":6,"params":{"N":3,"T":6,"bits":null,"output":"key.txt"},'
     '"seed":42,"subcommand":"keygen","tool_version":"0.1.0"}\n',
     {"key.txt": "l=6\n28\n"}),
    (("embed", "-m", "2f", "-k", "key.txt", "-x", "lib.json", "-N", "3", "-o", "seq.json"),
     '{"N":3,"blocks":1,"l":6,"params":{"N":3,"key":"key.txt","library":"lib.json",'
     '"message":"2f","output":"seq.json"},"sequences":["seq.json"],"subcommand":"embed",'
     '"tool_version":"0.1.0"}\n',
     {"seq.json": "ab32f360d1baac509acff1c33cc4828d06082e7c3e9dd53203f029025d14f2db"}),
    (("embed", "-m", "0a2f3b2f", "-k", "key.txt", "-x", "lib.json", "-N", "3", "-o", "m.json"),
     '{"N":3,"blocks":4,"l":6,"params":{"N":3,"key":"key.txt","library":"lib.json",'
     '"message":"0a2f3b2f","output":"m.json"},"sequences":["m.000.json","m.001.json",'
     '"m.002.json","m.003.json"],"subcommand":"embed","tool_version":"0.1.0"}\n',
     {"m.000.json": "06164ce67399733048119aafc998b03bfa46a7d49fc0c58c495a7919cc6e34ca",
      "m.001.json": "ab32f360d1baac509acff1c33cc4828d06082e7c3e9dd53203f029025d14f2db",
      "m.002.json": "bb777795f809e1eea774738b7d4bb8ddb704a9e12fd4370aa516ae97ac6519b4",
      "m.003.json": "ab32f360d1baac509acff1c33cc4828d06082e7c3e9dd53203f029025d14f2db"}),
    (("extract", "-s", "seq.json", "-k", "key.txt", "-x", "lib.json"),
     '{"blocks":1,"l":6,"message":"2f","params":{"key":"key.txt","library":"lib.json",'
     '"sequence":["seq.json"]},"subcommand":"extract","tool_version":"0.1.0"}\n', {}),
    (("extract", "-s", "m.000.json", "-s", "m.001.json", "-s", "m.002.json", "-s", "m.003.json",
      "-k", "key.txt", "-x", "lib.json"),
     '{"blocks":4,"l":6,"message":"0a2f3b2f","params":{"key":"key.txt","library":"lib.json",'
     '"sequence":["m.000.json","m.001.json","m.002.json","m.003.json"]},"subcommand":"extract",'
     '"tool_version":"0.1.0"}\n', {}),
    (("keygen", "-T", "6", "-N", "5", "--seed", "9", "-o", "key9.txt"),
     '{"key_file":"key9.txt","l":9,"params":{"N":5,"T":6,"bits":null,"output":"key9.txt"},'
     '"seed":9,"subcommand":"keygen","tool_version":"0.1.0"}\n',
     {"key9.txt": "l=9\n0ed\n"}),
    (("embed", "-m", "1a5", "-k", "key9.txt", "-x", "lib.json", "-N", "5", "-o", "n5.json"),
     '{"N":5,"blocks":1,"l":9,"params":{"N":5,"key":"key9.txt","library":"lib.json",'
     '"message":"1a5","output":"n5.json"},"sequences":["n5.json"],"subcommand":"embed",'
     '"tool_version":"0.1.0"}\n',
     {"n5.json": "98eb7ec2ceb4c26e6656c9874a890179a68dcbb739108ebfd9d272f936adbc85"}),
    (("embed", "-m", "0c3", "-k", "key9.txt", "-x", "lib.json", "-N", "6", "-o", "n6.json"),
     '{"N":6,"blocks":1,"l":9,"params":{"N":6,"key":"key9.txt","library":"lib.json",'
     '"message":"0c3","output":"n6.json"},"sequences":["n6.json"],"subcommand":"embed",'
     '"tool_version":"0.1.0"}\n',
     {"n6.json": "e146d58ccfca2d9131bce3c76469b1de6d88d22036e44b8ff8a187660e81fbce"}),
    (("extract", "-s", "n5.json", "-s", "n6.json", "-k", "key9.txt", "-x", "lib.json"),
     '{"blocks":2,"l":9,"message":"1a50c3","params":{"key":"key9.txt","library":"lib.json",'
     '"sequence":["n5.json","n6.json"]},"subcommand":"extract","tool_version":"0.1.0"}\n', {}),
    (("keygen", "--bits", "8", "-o", "k8.txt"),
     '{"key_file":"k8.txt","l":8,"params":{"N":null,"T":null,"bits":8,"output":"k8.txt"},'
     '"subcommand":"keygen","tool_version":"0.1.0"}\n', {}),
]


def test_golden_codec_bytes(tmp_path, monkeypatch, make_covers, capsys):
    """Each step's stdout and the files it writes, run in order."""
    monkeypatch.chdir(tmp_path)
    make_covers(6, tag="golden")
    for argv, stdout, files in GOLDEN_CODEC:
        assert run_cli(capsys, *argv) == (0, stdout, ""), argv
        for name, expected in files.items():
            data = Path(name).read_bytes()
            assert (data.decode() if name.startswith("key") else hashlib.sha256(data).hexdigest()) == expected


# capacity's stdout, in full or, past the 4,300-digit str limit, by SHA-256
GOLDEN_CAPACITY = {
    ("-T", "6", "-N", "3"):
        '{"l":6,"params":{"N":3,"T":6},"r":"120","subcommand":"capacity","tool_version":"0.1.0"}\n',
    ("-T", "3000", "-N", "2000"): "84f15e11b43cc5b904c10b7659af06ce36f170ef44dda412e3f3037ac57c69c7",
}


@pytest.mark.parametrize("argv", list(GOLDEN_CAPACITY))
def test_golden_capacity_bytes(capsys, argv):
    code, out, err = run_cli(capsys, "capacity", *argv)
    assert (code, err) == (0, "")
    assert GOLDEN_CAPACITY[argv] in (out, hashlib.sha256(out.encode()).hexdigest())


@pytest.mark.parametrize("message, N, golden", [
    ("2f", "3", '{"detail":"message has 6 bits, key 8; capacity(T=6, N=3) needs 6","error":"LengthMismatch"}\n'),
    ("2f3", "3", '{"detail":"message hex length must be a positive multiple of 2 digits for l=6",'
                 '"error":"MalformedFile"}\n'),
    ("2f", "7", '{"detail":"need 1 <= N <= T, got T=6, N=7","error":"InvalidParams"}\n'),
], ids=["key-length", "message-first", "N-first"])
def test_embed_refusals_keep_their_order_and_bytes(tmp_path, monkeypatch, make_covers, capsys, message, N, golden):
    """An 8-bit key where l = 6: N is checked before the message, the message
    before the key's length, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "build-library", *map(str, make_covers(6, tag="golden")), "-o", "lib.json")
    run_cli(capsys, "keygen", "--bits", "8", "--seed", "1", "-o", "key8.txt")
    argv = ("embed", "-m", message, "-k", "key8.txt", "-x", "lib.json", "-N", N, "-o", "s.json")
    assert run_cli(capsys, *argv) == (1, golden, "")
    assert not Path("s.json").exists()


def test_unreachable_rank_past_the_int_digit_limit(tmp_path, monkeypatch, capsys):
    """A 1,600-cover library's ids in reverse are the last arrangement at
    T = N = 1600: its rank, r - 1, lies past 2**l and past Python's 4,300-digit
    str limit.  extract refuses it with a JSON error, not a traceback."""
    from helpers import mem_library
    from stegogame.permcodec import capacity
    from stegogame.stego import StegoSequence, save_sequence

    monkeypatch.chdir(tmp_path)
    lib = mem_library(1600)
    save_manifest(lib, "lib.json")
    save_sequence(StegoSequence(lib.ids()[::-1]), "seq.json")
    assert run_cli(capsys, "keygen", "-T", "1600", "-N", "1600", "--seed", "1", "-o", "key.txt")[0] == 0
    code, out, err = run_cli(capsys, "extract", "-s", "seq.json", "-k", "key.txt", "-x", "lib.json")
    cap = capacity(1600, 1600)
    assert (code, err) == (1, "") and parse(out) == {
        "error": "UnreachableArrangement",
        "detail": f"rank <int of {(cap.r - 1).bit_length()} bits> >= 2**{cap.l}; "
                  "arrangement outside the codec image",
    }


# json.loads raises a plain ValueError on an integer literal past Python's
# digit limit, and a RecursionError on arrays nested past the recursion limit.
_PAST_PARSER_LIMITS = {
    "huge-int": '{"version": %s, "N": 3, "ids": []}' % ("9" * 5000),
    "deep-nesting": "[" * 200_000,
}


@pytest.mark.parametrize("document", list(_PAST_PARSER_LIMITS))
@pytest.mark.parametrize("reader", ["extract -s", "attack --scenario"])
def test_json_past_the_parser_limits_refused(tmp_path, make_covers, capsys, reader, document):
    assert 5000 > sys.get_int_max_str_digits() and 200_000 > sys.getrecursionlimit()
    save_manifest(build_library(make_covers(6)), tmp_path / "lib.json")
    bad = tmp_path / "bad.json"
    bad.write_text(_PAST_PARSER_LIMITS[document])
    run_cli(capsys, "keygen", "--bits", "6", "--seed", "1", "-o", str(tmp_path / "key.txt"))
    argv = {
        "extract -s": ["extract", "-s", bad, "-k", tmp_path / "key.txt", "-x", tmp_path / "lib.json"],
        "attack --scenario": ["attack", "--level", "scoa", "--adversary", "random", "--trials", "100",
                              "--seed", "1", "--scenario", bad],
    }[reader]
    code, out, err = run_cli(capsys, *map(str, argv))
    assert code == 1
    assert parse(out)["error"] == "MalformedFile"
    assert "JSON" in parse(out)["detail"]
    assert "Traceback" not in err


class TestBudgetCommand:
    def test_reports_flags_and_warns(self, capsys):
        code, out, err = run_cli(
            capsys, "budget", "-T", "4", "-N", "2", "--zeta", "0.2", "--x", "2"
        )
        doc = parse(out)
        assert code == 0
        assert doc["p_exact"] == pytest.approx(1 / 6)
        assert doc["p_published"] == pytest.approx(-1 / 6)
        assert doc["published_in_range"] is False
        assert doc["x_max"] == 2
        assert "outside [0,1]" in err

    def test_defaults_to_x_max(self, capsys):
        code, out, _ = run_cli(capsys, "budget", "-T", "6", "-N", "2", "--zeta", "0.3")
        doc = parse(out)
        assert code == 0
        assert doc["x"] == doc["x_max"]

    def test_mc_deterministic(self, capsys):
        args = ("budget", "-T", "4", "-N", "2", "--zeta", "0.5", "--x", "3",
                "--mc-trials", "20000", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert parse(out1)["mc_within_4se"] is True

    def test_mc_memory_does_not_grow_with_t(self, capsys):
        # a trials x T coverage mask would ask for 6.1 GiB here
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "budget", "-T", "200000", "-N", "199990", "--zeta",
                                     "0.4", "--x", "2", "--mc-trials", "4096")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert parse(out)["mc_within_4se"] is True
        assert peak < 32 * 2**20

    def test_mc_trials_need_no_time_per_trial(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "budget", "-T", "20", "-N", "4", "--zeta", "0.4",
                                 "--mc-trials", "1000000000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        assert parse(out)["mc_within_4se"] is True

    def test_mc_trials_past_int64_refused(self, capsys):
        code, out, err = run_cli(capsys, "budget", "-T", "20", "-N", "4", "--zeta", "0.4",
                                 "--mc-trials", str(2**63))
        assert code == 1
        assert parse(out) == {
            "error": "InvalidParams",
            "detail": f"trials must be at most {2**63 - 1}, got {2**63}",
        }
        assert "Traceback" not in err

    def test_published_form_past_float_range_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "budget", "-T", "1100", "-N", "1", "--zeta", "0.4", "--x", "1"
        )
        assert code == 1
        assert parse(out) == {
            "error": "InvalidParams",
            "detail": "the published closed form lies outside the float range",
        }
        assert "Traceback" not in err


# budget's stdout with the Monte-Carlo referee: the shape the cli-cold
# benchmark runs, and the README's example.  Only p_mc and mc_se come from the
# seeded occupancy stream; a move of that stream shows here.
GOLDEN_BUDGET = {
    ("-T", "20", "-N", "4", "--zeta", "0.4", "--mc-trials", "150000", "--seed", "5"): (
        '{"N":4,"T":20,"mc_se":0.0012525568250582487,"mc_seed":5,"mc_trials":150000,'
        '"mc_within_4se":true,"p_exact":0.37649116369730645,"p_mc":0.3789,'
        '"p_published":-0.24494298995993982,"params":{"N":4,"T":20,"mc_trials":150000,'
        '"x":null,"zeta":0.4},"published_in_range":false,"published_matches_exact":false,'
        '"seed":5,"subcommand":"budget","tool_version":"0.1.0","x":14,"x_max":14,"zeta":0.4}\n'
    ),
    ("-T", "8", "-N", "3", "--zeta", "0.4", "--mc-trials", "50000", "--seed", "7"): (
        '{"N":3,"T":8,"mc_se":0.0021790624020435944,"mc_seed":7,"mc_trials":50000,'
        '"mc_within_4se":true,"p_exact":0.3897149381117243,"p_mc":0.38782,'
        '"p_published":0.06406937376353602,"params":{"N":3,"T":8,"mc_trials":50000,'
        '"x":null,"zeta":0.4},"published_in_range":true,"published_matches_exact":false,'
        '"seed":7,"subcommand":"budget","tool_version":"0.1.0","x":5,"x_max":5,"zeta":0.4}\n'
    ),
    # large libraries: the search and the report stop near the answer, not after T terms
    ("-T", "2048", "-N", "48", "--zeta", "0.4"): (
        '{"N":48,"T":2048,"p_exact":0.3977460185851574,"p_published":-0.5050529155234735,'
        '"params":{"N":48,"T":2048,"mc_trials":null,"x":null,"zeta":0.4},'
        '"published_in_range":false,"published_matches_exact":false,"subcommand":"budget",'
        '"tool_version":"0.1.0","x":325,"x_max":325,"zeta":0.4}\n'
    ),
    ("-T", "4096", "-N", "64", "--zeta", "0.4"): (
        '{"N":64,"T":4096,"p_exact":0.3954587252830848,"p_published":-0.5237026885242394,'
        '"params":{"N":64,"T":4096,"mc_trials":null,"x":null,"zeta":0.4},'
        '"published_in_range":false,"published_matches_exact":false,"subcommand":"budget",'
        '"tool_version":"0.1.0","x":533,"x_max":533,"zeta":0.4}\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_BUDGET))
def test_golden_budget_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, "budget", *argv)
    assert code == 0
    assert out == GOLDEN_BUDGET[argv]


class TestDivergenceCommand:
    @pytest.fixture
    def sample_files(self, tmp_path):
        import numpy as np

        gen = np.random.Generator(np.random.Philox(key=8))
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("\n".join(str(v) for v in gen.normal(size=400)))
        b.write_text("\n".join(str(v) for v in gen.normal(size=400)))
        return a, b

    def test_fixed_epsilon(self, sample_files, capsys):
        a, b = sample_files
        code, out, _ = run_cli(
            capsys, "divergence", "-a", str(a), "-b", str(b),
            "--metric", "js", "--epsilon", "0.5",
        )
        doc = parse(out)
        assert code == 0
        assert doc["verdict"] == "indistinguishable-at-epsilon"
        assert "elapsed" not in doc

    def test_auto_epsilon_deterministic(self, sample_files, capsys):
        a, b = sample_files
        args = ("divergence", "-a", str(a), "-b", str(b),
                "--metric", "tv", "--epsilon", "auto", "--seed", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert parse(out1)["epsilon_mode"] == "auto"

    def test_timing_flag_adds_elapsed(self, sample_files, capsys):
        a, b = sample_files
        code, out, _ = run_cli(
            capsys, "divergence", "-a", str(a), "-b", str(b),
            "--metric", "js", "--epsilon", "0.5", "--timing",
        )
        assert "elapsed" in parse(out)

    def test_bad_samples_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\nnot-a-number\n")
        code, out, _ = run_cli(
            capsys, "divergence", "-a", str(bad), "-b", str(bad),
            "--metric", "js", "--epsilon", "0.5",
        )
        assert code == 1
        assert parse(out)["error"] == "MalformedFile"

    @pytest.mark.parametrize("epsilon", ["0.1", "auto"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_samples(self, sample_files, tmp_path, capsys, epsilon, bad):
        a, _ = sample_files
        b = tmp_path / "bad.txt"
        b.write_text(f"1.0\n{bad}\n2.0\n")
        code, out, err = run_cli(
            capsys, "divergence", "-a", str(a), "-b", str(b), "--epsilon", epsilon,
        )
        assert code == 1
        assert parse(out)["error"] == "InvalidParams"
        assert "finite" in parse(out)["detail"] and "Traceback" not in err

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_auto_epsilon_seed_out_of_range(self, sample_files, capsys, seed):
        a, b = sample_files
        code, out, err = run_cli(
            capsys, "divergence", "-a", str(a), "-b", str(b), "--epsilon", "auto",
            "--seed", str(seed),
        )
        assert code == 1
        assert parse(out) == {
            "error": "InvalidParams", "detail": "seed must be an integer in [0, 2**128)"
        }
        assert "Traceback" not in err

    @pytest.mark.parametrize("epsilon", ["0.1", "auto"])
    def test_range_too_narrow_for_the_bins(self, tmp_path, capsys, epsilon):
        """Samples whose range 64 finite bins cannot cut are a domain error."""
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("1.0\n")
        b.write_text("1.0000000000000002\n")
        code, out, err = run_cli(capsys, "divergence", "-a", str(a), "-b", str(b), "--epsilon", epsilon)
        assert code == 1
        assert parse(out)["error"] == "InvalidParams"
        assert "Traceback" not in err

    @pytest.mark.parametrize("epsilon", ["0.1", "auto"])
    @pytest.mark.parametrize("bins", ["65537", "400000000"])
    def test_bins_over_the_limit_refused(self, sample_files, capsys, monkeypatch, epsilon, bins):
        """More than MAX_BINS bins is a domain error, refused before the
        histogram is allocated: 400,000,000 used to die allocating 2.98 GiB."""
        import numpy as np

        monkeypatch.setattr(np, "histogram", lambda *args, **kwargs: pytest.fail("allocated"))
        a, b = sample_files
        code, out, err = run_cli(
            capsys, "divergence", "-a", str(a), "-b", str(b), "--epsilon", epsilon, "--bins", bins,
        )
        assert code == 1
        assert parse(out) == {
            "error": "InvalidParams", "detail": f"bins must be at most 65536, got {bins}"
        }
        assert "Traceback" not in err

    def test_bad_epsilon_string(self, sample_files, capsys):
        a, b = sample_files
        code, out, _ = run_cli(
            capsys, "divergence", "-a", str(a), "-b", str(b),
            "--metric", "js", "--epsilon", "tiny",
        )
        assert code == 1
        assert parse(out)["error"] == "InvalidParams"


# divergence's stdout on samples from Philox(key=2018): 300 normals in a.txt,
# 200 normals shifted by 0.1 in b.txt.  The auto thresholds come from the
# hypergeometric null's stream over the non-empty bins; the fixed-epsilon run
# predates it.
GOLDEN_DIVERGENCE = {
    ("--metric", "js", "--epsilon", "auto", "--seed", "11"): (
        '{"bins":64,"epsilon":0.09575497901120683,"epsilon_mode":"auto","metric":"js",'
        '"n_a":300,"n_b":200,"params":{"a":"a.txt","b":"b.txt","bins":64,"epsilon":"auto",'
        '"metric":"js"},"seed":11,"subcommand":"divergence","tool_version":"0.1.0",'
        '"value":0.05736797916196188,"verdict":"indistinguishable-at-epsilon"}\n'
    ),
    ("--metric", "kl", "--epsilon", "auto", "--seed", "11"): (
        '{"bins":64,"epsilon":0.28931501977379426,"epsilon_mode":"auto","metric":"kl",'
        '"n_a":300,"n_b":200,"params":{"a":"a.txt","b":"b.txt","bins":64,"epsilon":"auto",'
        '"metric":"kl"},"seed":11,"subcommand":"divergence","tool_version":"0.1.0",'
        '"value":0.1577481309316257,"verdict":"indistinguishable-at-epsilon"}\n'
    ),
    ("--metric", "tv", "--epsilon", "auto", "--seed", "11"): (
        '{"bins":64,"epsilon":0.31335,"epsilon_mode":"auto","metric":"tv",'
        '"n_a":300,"n_b":200,"params":{"a":"a.txt","b":"b.txt","bins":64,"epsilon":"auto",'
        '"metric":"tv"},"seed":11,"subcommand":"divergence","tool_version":"0.1.0",'
        '"value":0.23333333333333334,"verdict":"indistinguishable-at-epsilon"}\n'
    ),
    ("--metric", "w1", "--epsilon", "auto", "--seed", "11"): (
        '{"bins":64,"epsilon":0.25538644262952764,"epsilon_mode":"auto","metric":"w1",'
        '"n_a":300,"n_b":200,"params":{"a":"a.txt","b":"b.txt","bins":64,"epsilon":"auto",'
        '"metric":"w1"},"seed":11,"subcommand":"divergence","tool_version":"0.1.0",'
        '"value":0.07317018015127298,"verdict":"indistinguishable-at-epsilon"}\n'
    ),
    ("--metric", "js", "--epsilon", "0.05", "--bins", "32"): (
        '{"bins":32,"epsilon":0.05,"epsilon_mode":"fixed","metric":"js",'
        '"n_a":300,"n_b":200,"params":{"a":"a.txt","b":"b.txt","bins":32,"epsilon":"0.05",'
        '"metric":"js"},"subcommand":"divergence","tool_version":"0.1.0",'
        '"value":0.027087778808724906,"verdict":"indistinguishable-at-epsilon"}\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIVERGENCE))
def test_golden_divergence_bytes(tmp_path, monkeypatch, capsys, argv):
    import numpy as np

    monkeypatch.chdir(tmp_path)
    gen = np.random.Generator(np.random.Philox(key=2018))
    Path("a.txt").write_text("\n".join(str(v) for v in gen.normal(size=300)))
    Path("b.txt").write_text("\n".join(str(v) for v in gen.normal(0.1, 1.0, size=200)))
    code, out, err = run_cli(capsys, "divergence", "-a", "a.txt", "-b", "b.txt", *argv)
    assert (code, err) == (0, "")
    assert out == GOLDEN_DIVERGENCE[argv]


def test_readme_divergence_example_is_golden():
    """The README's divergence example shows the golden js/auto/seed-11
    line's epsilon and value, so a repin of that line cannot leave it stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme[readme.index("stegogame divergence -a a.txt -b b.txt --metric js --epsilon auto --seed 11"):]
    golden = json.loads(GOLDEN_DIVERGENCE[("--metric", "js", "--epsilon", "auto", "--seed", "11")])
    for field in ("epsilon", "value"):
        assert f'"{field}":{golden[field]!r}' in example.split("```")[0], field


# attack's stdout over TestAttackCommand's 18 covers, keyed by its flags: the
# scenario fields each run adds to library, world_pool and N, and the bytes.
# The replay scenario leaks nothing, so only observations and oracle answers
# make ids known; the recovery one leaks half the library and the exact key.
GOLDEN_ATTACK = {
    ("--level", "cca", "--adversary", "cca-replay", "--trials", "100"): (
        {"observations": 1, "oracle_embed_budget": 1},
        '{"alpha":0.01,"kind":"detection","level":"CCA","p_value":2.818141017102701e-07,'
        '"params":{"adversary":"cca-replay","alpha":0.01,"game":"detection","level":"cca",'
        '"rounds":null,"scenario":"scen.json","scheme":"coverless","trials":100},"seed":4,'
        '"stego_challenges":41,"subcommand":"attack","success_rate":0.75,"successes":75,'
        '"tool_version":"0.1.0","trials":100,"verdict":"broken"}\n',
    ),
    ("--level", "kca", "--adversary", "keyed-recovery", "--trials", "100", "--game", "recovery"): (
        {"leak_fraction": 0.5, "key_leak": "full"},
        '{"alpha":0.01,"kind":"recovery","level":"KCA","p_value":1.0,'
        '"params":{"adversary":"keyed-recovery","alpha":0.01,"game":"recovery","level":"kca",'
        '"rounds":null,"scenario":"scen.json","scheme":"coverless","trials":100},"seed":4,'
        '"sequences":100,"subcommand":"attack","success_rate":0.013333333333333334,'
        '"successes":8,"tool_version":"0.1.0","trials":600,"verdict":"resists"}\n',
    ),
    # the first round breaks the scheme, so the second of two never runs
    ("--level", "acca", "--adversary", "cca-replay", "--trials", "100"): (
        {"observations": 1, "oracle_embed_budget": 1, "rounds": 2},
        '{"broken":true,"params":{"adversary":"cca-replay","alpha":0.01,"game":"detection",'
        '"level":"acca","rounds":null,"scenario":"scen.json","scheme":"coverless","trials":100},'
        '"rounds":[{"alpha":0.01,"kind":"detection","level":"ACCA","p_value":1.3513812610243944e-10,'
        '"round_index":0,"seed":4,"stego_challenges":52,"success_rate":0.81,"successes":81,'
        '"trials":100,"verdict":"broken"}],"rounds_run":1,"seed":4,"subcommand":"attack",'
        '"tool_version":"0.1.0"}\n',
    ),
}


class TestAttackCommand:
    @pytest.fixture
    def scenario_file(self, tmp_path, make_covers):
        paths = make_covers(18, tag="w")
        lib = build_library(paths[:6])
        world = build_library(paths[6:])
        save_manifest(lib, tmp_path / "lib.json")
        save_manifest(world, tmp_path / "world.json")
        scen = tmp_path / "scen.json"
        scen.write_text(
            json.dumps(
                {
                    "library": "lib.json",
                    "world_pool": "world.json",
                    "N": 3,
                    "leak_fraction": 1.0,
                    "rounds": 2,
                }
            )
        )
        return scen

    def test_detection_game(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--level", "kca", "--adversary", "kca-membership",
            "--trials", "150", "--seed", "4", "--scenario", str(scenario_file),
        )
        doc = parse(out)
        assert code == 0
        assert doc["verdict"] == "broken"
        assert doc["level"] == "KCA"

    def test_readme_example(self, scenario_file, capsys):
        """The README's attack example: its scenario over these covers."""
        doc = {"library": "lib.json", "world_pool": "world.json", "N": 3,
               "leak_fraction": 0.5, "observations": 32}
        scenario_file.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "attack", "--level", "kca", "--adversary", "kca-membership",
            "--trials", "200", "--seed", "5", "--scenario", str(scenario_file),
        )
        doc = parse(out)
        assert code == 0
        assert (doc["p_value"], doc["success_rate"], doc["verdict"]) == (
            0.5839648127811197, 0.495, "resists"
        )

    @pytest.mark.parametrize("argv", list(GOLDEN_ATTACK))
    def test_golden_attack_bytes(self, scenario_file, capsys, monkeypatch, argv):
        """Seeded stdout of the presets that replay traffic and decode with a
        leaked key, over these covers with each one's scenario fields."""
        monkeypatch.chdir(scenario_file.parent)
        doc = {"library": "lib.json", "world_pool": "world.json", "N": 3, **GOLDEN_ATTACK[argv][0]}
        scenario_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "attack", *argv, "--seed", "4", "--scenario", "scen.json")
        assert (code, err) == (0, "")
        assert out == GOLDEN_ATTACK[argv][1]

    def test_missing_cover_is_an_io_error(self, scenario_file, capsys):
        world = json.loads((scenario_file.parent / "world.json").read_text())
        for cover in world["covers"]:
            Path(cover["path"]).unlink()
        code, out, err = run_cli(
            capsys, "attack", "--level", "scoa", "--adversary", "scoa-histogram",
            "--trials", "100", "--seed", "1", "--scenario", str(scenario_file),
        )
        assert code == 1
        assert parse(out)["error"] == "IoError"
        paths = {repr(cover["path"]) for cover in world["covers"]}
        detail = parse(out)["detail"].removeprefix("cannot read cover file ")
        assert detail.removesuffix(": No such file or directory") in paths
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value", [("path", 5), ("bytes", -3), ("path", "w0\x00.bin")]
    )
    def test_bad_manifest_entry_refused(self, scenario_file, capsys, field, value):
        manifest = scenario_file.parent / "world.json"
        doc = json.loads(manifest.read_text())
        doc["covers"][0][field] = value
        manifest.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "attack", "--level", "scoa", "--adversary", "scoa-histogram",
            "--trials", "100", "--seed", "1", "--scenario", str(scenario_file),
        )
        assert code == 1
        assert parse(out)["error"] == "MalformedFile"
        assert "Traceback" not in err

    def test_recovery_game(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--level", "scoa", "--adversary", "random",
            "--trials", "120", "--seed", "4", "--scenario", str(scenario_file),
            "--game", "recovery",
        )
        doc = parse(out)
        assert code == 0
        assert doc["kind"] == "recovery"
        assert 0.4 <= doc["success_rate"] <= 0.6

    def test_acca_rounds(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--level", "acca", "--adversary", "random",
            "--trials", "100", "--seed", "4", "--scenario", str(scenario_file),
        )
        doc = parse(out)
        assert code == 0
        assert doc["rounds_run"] == 2
        assert doc["broken"] is False

    def test_unknown_adversary(self, scenario_file, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--level", "kca", "--adversary", "nessie",
            "--trials", "100", "--seed", "4", "--scenario", str(scenario_file),
        )
        assert code == 1
        assert parse(out)["error"] == "InvalidConfig"

    @pytest.mark.parametrize("field", ["library", "world_pool"])
    def test_missing_manifest_names_itself(self, scenario_file, capsys, field):
        doc = json.loads(scenario_file.read_text())
        doc[field] = "nolib.json"
        scenario_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "attack", "--level", "kca", "--adversary", "random",
            "--trials", "100", "--seed", "4", "--scenario", str(scenario_file),
        )
        assert code == 1
        assert parse(out)["error"] == "IoError"
        assert parse(out)["detail"].startswith(
            f"cannot read manifest {str(scenario_file.parent / 'nolib.json')!r}"
        )
        assert "Traceback" not in err

    def test_deterministic_output(self, scenario_file, capsys):
        args = ("attack", "--level", "kca", "--adversary", "kca-membership",
                "--trials", "120", "--seed", "6", "--scenario", str(scenario_file))
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("N", "2", "InvalidConfig"),
            ("rounds", None, "InvalidConfig"),
            ("rounds", 2.5, "InvalidConfig"),
            ("oracle_embed_budget", "5", "InvalidConfig"),
            ("observations", 1.5, "InvalidConfig"),
            ("observations", True, "InvalidConfig"),
            ("leak_fraction", True, "InvalidConfig"),
            ("leak_growth", math.inf, "InvalidConfig"),
            ("library", 5, "MalformedFile"),
            ("world_pool", None, "MalformedFile"),
            ("leak_fracton", 1.0, "MalformedFile"),
        ],
    )
    def test_wrong_field_type_refused(self, scenario_file, capsys, field, value, error):
        doc = json.loads(scenario_file.read_text())
        doc[field] = value
        scenario_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "attack", "--level", "acca", "--adversary", "random",
            "--trials", "100", "--seed", "4", "--scenario", str(scenario_file),
        )
        assert code == 1
        assert parse(out)["error"] == error and field in parse(out)["detail"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("game", ["detection", "recovery"])
    def test_observations_over_the_limit_refused(self, scenario_file, capsys, game):
        """A scenario asking for 10**15 observations per learning phase is
        refused when it loads, naming the limit, where the game used to die
        with a MemoryError while drawing their payloads."""
        doc = json.loads(scenario_file.read_text())
        doc["observations"] = 10**15
        scenario_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "attack", "--level", "scoa", "--adversary", "cca-replay", "--trials", "100",
            "--seed", "4", "--scenario", str(scenario_file), "--game", game,
        )
        assert code == 1
        assert parse(out)["error"] == "InvalidConfig"
        assert "observations must be at most 100000, got" in parse(out)["detail"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.1", "nan", "inf"])
    @pytest.mark.parametrize("level, game", [("kca", "detection"), ("kca", "recovery"),
                                             ("acca", "detection")])
    def test_alpha_outside_unit_interval_refused(self, scenario_file, capsys, alpha, level, game):
        code, out, err = run_cli(
            capsys, "attack", "--level", level, "--adversary", "random", "--trials", "100",
            "--seed", "4", "--scenario", str(scenario_file), "--game", game, "--alpha", alpha,
        )
        assert code == 1
        assert parse(out)["error"] == "InvalidConfig" and "alpha" in parse(out)["detail"]
        assert "Traceback" not in err


class TestEntryPoint:
    def test_console_script_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stegogame.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "stegogame" in proc.stdout

    def test_module_main_round_trip(self, tmp_path, make_covers):
        lib_path = tmp_path / "lib.json"
        save_manifest(build_library(make_covers(4, tag="m")), lib_path)
        env_run = lambda *argv: subprocess.run(
            [sys.executable, "-m", "stegogame.cli", *argv], capture_output=True, text=True
        )
        key = tmp_path / "k.txt"
        assert env_run("keygen", "-T", "4", "-N", "3", "--seed", "1", "-o", str(key)).returncode == 0
        seq = tmp_path / "s.json"
        assert env_run(
            "embed", "-m", "9", "-k", str(key), "-x", str(lib_path), "-N", "3", "-o", str(seq)
        ).returncode == 0
        proc = env_run("extract", "-s", str(seq), "-k", str(key), "-x", str(lib_path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["message"] == "9"


class TestParams:
    """`params` echoes each subcommand's parsed flags; --seed is reported
    beside it, and --timing not at all."""

    def test_every_subcommand(self, tmp_path, make_covers, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        covers = [p.name for p in make_covers(18, tag="p")]
        save_manifest(build_library(covers[6:]), "world.json")
        (tmp_path / "scen.json").write_text(json.dumps(
            {"library": "lib.json", "world_pool": "world.json", "N": 3, "leak_fraction": 1.0}
        ))
        (tmp_path / "a.txt").write_text("1.0\n2.0\n3.0\n")
        calls = [
            ["build-library", *covers[:6], "-o", "lib.json"],
            ["capacity", "-T", "6", "-N", "3"],
            ["keygen", "-T", "6", "-N", "3", "--seed", "42", "-o", "key.txt"],
            ["embed", "-m", "2f", "-k", "key.txt", "-x", "lib.json", "-N", "3", "-o", "seq.json"],
            ["extract", "-s", "seq.json", "-k", "key.txt", "-x", "lib.json"],
            ["budget", "-T", "4", "-N", "2", "--zeta", "0.2", "--x", "2", "--seed", "3"],
            ["divergence", "-a", "a.txt", "-b", "a.txt", "--epsilon", "auto", "--seed", "1",
             "--timing"],
            ["attack", "--level", "acca", "--adversary", "random", "--trials", "100",
             "--seed", "4", "--scenario", "scen.json", "--rounds", "1"],
        ]
        params = {}
        for argv in calls:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, out
            params[argv[0]] = parse(out)["params"]
        assert params == {
            "build-library": {"paths": covers[:6], "output": "lib.json"},
            "capacity": {"T": 6, "N": 3},
            "keygen": {"T": 6, "N": 3, "bits": None, "output": "key.txt"},
            "embed": {"message": "2f", "key": "key.txt", "library": "lib.json", "N": 3,
                      "output": "seq.json"},
            "extract": {"sequence": ["seq.json"], "key": "key.txt", "library": "lib.json"},
            "budget": {"T": 4, "N": 2, "zeta": 0.2, "x": 2, "mc_trials": None},
            "divergence": {"a": "a.txt", "b": "a.txt", "metric": "js", "epsilon": "auto",
                           "bins": 64},
            "attack": {"scheme": "coverless", "level": "acca", "adversary": "random",
                       "trials": 100, "scenario": "scen.json", "game": "detection",
                       "alpha": 0.01, "rounds": 1},
        }
        for doc in params.values():
            assert not {"seed", "timing"} & set(doc)
