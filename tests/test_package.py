"""What importing the package and starting each subcommand loads, and the
package's public names.

The import checks run in child interpreters, since this one has numpy and
scipy loaded already.  Each child runs the CLI as ``python -m stegogame.cli``
does and then reports which of the watched modules are in ``sys.modules``:
numpy and scipy, which only the analysis subcommands may load, and the
standard-library modules that the codec subcommands load only where they
compute with them.
"""

import ast
import json
import pathlib
import re
import subprocess
import sys

import pytest

import stegogame
from stegogame import budget, cli, divergence

HEAVY = ("numpy", "numpy.ma", "scipy", "scipy.special", "scipy.stats")
# loaded by a codec subcommand only where it computes with them (CODEC_NEEDS)
LIGHT = ("dataclasses", "inspect", "secrets", "decimal", "hashlib")
CODEC_NEEDS = {"build-library": {"hashlib"}, "capacity": {"decimal"}}

_REPORT = f"""
import json, sys
print(json.dumps(sorted(set({HEAVY + LIGHT!r}) & set(sys.modules))), file=sys.stderr)
"""

_RUN_CLI = """
import runpy, sys
sys.argv = ["stegogame", *sys.argv[1:]]
try:
    runpy.run_module("stegogame.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
""" + _REPORT


def _loaded(code: str, *argv: str, cwd=None, watch=HEAVY) -> set[str]:
    """Which of the ``watch`` modules the child running ``code`` has loaded."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1])) & set(watch)


def test_importing_the_package_and_cli_loads_no_numpy_or_scipy():
    assert _loaded("import stegogame, stegogame.cli" + _REPORT) == set()


def test_subcommands_load_only_what_they_compute_with(tmp_path, make_covers):
    covers = [str(p) for p in make_covers(14, tag="imp")]
    (tmp_path / "scen.json").write_text(json.dumps(
        {"library": "lib.json", "world_pool": "world.json", "N": 3, "leak_fraction": 1.0}
    ))
    numpy_free = [
        ["build-library", *covers[:6], "-o", "lib.json"],
        ["build-library", *covers[6:], "-o", "world.json"],
        ["capacity", "-T", "6", "-N", "3"],
        ["keygen", "-T", "6", "-N", "3", "--seed", "4", "-o", "key.txt"],
        ["embed", "-m", "2f", "-k", "key.txt", "-x", "lib.json", "-N", "3", "-o", "seq.json"],
        ["extract", "-s", "seq.json", "-k", "key.txt", "-x", "lib.json"],
        ["budget", "-T", "6", "-N", "3", "--zeta", "0.2"],
    ]
    # the interpreter's own start-up (site, .pth files) may load some of LIGHT
    bare = _loaded("pass" + _REPORT, watch=LIGHT)
    for argv in numpy_free:
        loaded = _loaded(_RUN_CLI, *argv, cwd=tmp_path, watch=HEAVY + LIGHT)
        assert loaded & set(HEAVY) == set(), argv[0]
        if argv[0] != "budget":
            assert loaded - bare <= CODEC_NEEDS.get(argv[0], set()), argv[0]
    mc = ["budget", "-T", "6", "-N", "3", "--zeta", "0.2", "--mc-trials", "9000"]
    assert _loaded(_RUN_CLI, *mc, cwd=tmp_path) == {"numpy"}
    attack = ["attack", "--level", "kca", "--adversary", "kca-membership", "--trials", "100",
              "--seed", "1", "--scenario", "scen.json"]
    assert _loaded(_RUN_CLI, *attack, cwd=tmp_path) == {"numpy"}
    # calibrate_epsilon's percentile partitions once; np.percentile would load numpy.ma
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("\n".join(str(v / 7) for v in range(40)))
    auto = ["divergence", "-a", "a.txt", "-b", "b.txt", "--epsilon", "auto", "--seed", "2"]
    assert _loaded(_RUN_CLI, *auto, cwd=tmp_path) == {"numpy"}


def test_attack_runs_without_scipy(tmp_path, make_covers):
    """With scipy unimportable, ``attack`` exits 0 and prints the bytes it
    prints with scipy installed, for both games."""
    covers = [str(p) for p in make_covers(14, tag="noscipy")]
    for paths, out in ((covers[:6], "lib.json"), (covers[6:], "world.json")):
        assert cli.dispatch(["build-library", *paths, "-o", str(tmp_path / out)]) == 0
    (tmp_path / "scen.json").write_text(json.dumps(
        {"library": "lib.json", "world_pool": "world.json", "N": 3, "leak_fraction": 1.0}
    ))
    attack = ["attack", "--level", "kca", "--adversary", "kca-membership", "--trials", "100",
              "--seed", "1", "--scenario", "scen.json"]
    for argv in (attack, [*attack, "--game", "recovery"]):
        outputs = []
        for prelude in ("", "import sys\nsys.modules['scipy'] = None\n"):
            done = subprocess.run([sys.executable, "-c", prelude + _RUN_CLI, *argv], cwd=tmp_path,
                                  capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert b'"p_value"' in outputs[0] and outputs[1] == outputs[0], argv


def test_metric_choices_are_the_metrics():
    parser = cli._build_parser()
    (subparsers,) = parser._subparsers._group_actions
    metric = subparsers.choices["divergence"]._option_string_actions["--metric"]
    assert metric.choices == sorted(divergence.METRICS)


def test_public_names_resolve_to_their_defining_objects():
    for name in stegogame.__all__:
        obj = getattr(stegogame, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(stegogame.__all__) <= set(dir(stegogame))
    with pytest.raises(AttributeError):
        stegogame.no_such_name


def test_lazy_names_import():
    from stegogame import js, max_safe_uses

    assert js is divergence.js and max_safe_uses is budget.max_safe_uses
    assert stegogame.budget is budget and stegogame.divergence is divergence
    # the string helpers left __all__ but stay in their module and as stego aliases
    from stegogame import stego
    from stegogame.bits import bits_to_hex, hex_to_bits

    assert stegogame.bits.bits_to_hex is bits_to_hex is stego.bits_to_hex
    assert hex_to_bits is stego.hex_to_bits and "bits_to_hex" not in dir(stegogame)


def test_importing_the_package_loads_no_submodule():
    code = "import json, sys, stegogame; print(json.dumps(sorted(sys.modules)), file=sys.stderr)"
    assert {m for m in _loaded(code) if m.startswith("stegogame.")} == set()


def test_divergence_loads_no_budget():
    code = (
        "import json, sys, stegogame.divergence; "
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)"
    )
    assert "stegogame.budget" not in _loaded(code)


def test_public_names_are_listed_once_and_sorted():
    assert stegogame.__all__ == sorted(set(stegogame.__all__))
    assert stegogame.__all__ == [
        "Arrangement", "Capacity", "CoverEntry", "CoverLibrary", "CoverageReport",
        "DistanceReport", "EmpiricalDistribution", "Message", "StegoKey",
        "StegoSequence", "StegogameError", "build_library",
        "calibrate_epsilon", "capacity", "coverage_report", "distinguishability_test", "embed",
        "estimate_distribution", "extract", "hash_bytes", "hash_file", "js",
        "keygen", "kl", "load_key", "load_manifest", "load_sequence", "max_safe_uses",
        "pr_coverage_mc", "rank", "save_key", "save_manifest", "save_sequence", "tv", "unrank",
        "w1",
    ]


# The '0'/'1' string helpers: src/ reaches them only from one another, and
# holds them otherwise only by import, where perfbench/tracer.py binds them.
STRING_PATH = {
    "bits_to_int", "int_to_bits", "xor_bits", "bits_to_hex", "hex_to_bits",
    "bits_to_arrangement", "arrangement_to_bits",
}


def _src_trees():
    """(path relative to the package, parsed module) for every file in src/."""
    src = pathlib.Path(stegogame.__file__).parent
    return [(path.relative_to(src), ast.parse(path.read_text())) for path in sorted(src.rglob("*.py"))]


def test_string_path_is_used_only_by_itself():
    """No code in src/ outside the string helpers names one of them, so
    removing them all is a plain deletion.  An import names them in alias
    nodes, not in names or attributes, so imports pass."""
    uses = []
    for path, tree in _src_trees():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name in STRING_PATH:
                continue
            uses += [
                f"{path}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id in STRING_PATH
                or isinstance(node, ast.Attribute) and node.attr in STRING_PATH
            ]
    assert uses == []


def _tracer_bindings() -> set[tuple[str, str]]:
    """The (module, name) pairs of ``perfbench/tracer.py``'s BINDINGS, read from its source."""
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (rows,) = [
        node.value.elts for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["BINDINGS"]
    ]
    return {(row.elts[0].value, row.elts[1].value) for row in rows}


def test_unread_imports_are_tracer_bindings():
    """A name that src/ imports under ``# noqa: F401`` and its module never
    reads is there for perfbench/tracer.py to look up by name: each is a
    (module, name) row of its BINDINGS, so dropping those rows makes the
    imports a plain deletion."""
    src = pathlib.Path(stegogame.__file__).parent
    unread = set()
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        module = ".".join(("stegogame", *path.relative_to(src).with_suffix("").parts)).removesuffix(".__init__")
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                unread |= {(module, a.asname or a.name) for a in node.names} - {(module, r) for r in read}
    assert ("stegogame.attackgame.adversaries", "js") in unread
    assert sorted(unread - _tracer_bindings()) == []


def test_bound_and_choice_refusals_said_once():
    """check_int's bounds, check_shape and check_choice word every bound,
    interval and choice refusal; a raise elsewhere in src/ that words its own
    (``must be at most``, ``out of range``, ``not in [``) fails here."""
    bad = [
        f"{path}:{node.lineno}: {ast.unparse(node)}"
        for path, tree in _src_trees() if path != pathlib.Path("errors.py")
        for node in ast.walk(tree) if isinstance(node, ast.Raise)
        and re.search(r"must be at most|choose from|must be one of|out of range|not in \[", ast.unparse(node))
    ]
    assert bad == []


def test_dispatch_alone_writes_stdout():
    """Every ``print`` in src/ that has no ``file=`` lies inside
    ``cli.dispatch``, and every ``_cmd_*`` handler returns its result as a
    dict for dispatch to report."""
    trees = _src_trees()
    (dispatch,) = [
        node for path, tree in trees if path == pathlib.Path("cli.py") for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "dispatch"
    ]
    allowed = set(map(id, ast.walk(dispatch)))
    writers = [
        f"{path}:{node.lineno}: {ast.unparse(node)}" for path, tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
        and not any(k.arg == "file" for k in node.keywords) and id(node) not in allowed
    ]
    assert writers == []
    handlers = [
        node for _, tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(handlers) == 8
    for fn in handlers:
        returns = [node for node in ast.walk(fn) if isinstance(node, ast.Return)]
        assert ast.unparse(fn.returns) == "dict" and returns, fn.name
        assert all(isinstance(r.value, (ast.Dict, ast.Name)) for r in returns), fn.name
