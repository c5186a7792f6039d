"""Spans around stegogame's layer boundaries, recorded from outside the package.

``install`` replaces each public function under the name its caller looks it
up by (``stegogame.stego.xor_bits``, ``stegogame.permcodec.unrank``,
``stegogame.attackgame.adversaries.js``, ...) with a wrapper that records a
span: name, start, end, parent span, op id and an optional tag.  Nothing in
``src/`` changes; ``uninstall`` puts the originals back.

Spans stay in memory.  A span's self time is its duration minus the part of
it that its child spans cover.  Work that a pool thread runs on behalf of the
client (hashing in ``build_library``, trials in ``run_game``) has no open
span in its own thread, so its parent is the client thread's innermost open
span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# (sid, name, tag, t0, t1, parent, op, cpu_s)
SID, NAME, TAG, T0, T1, PARENT, OP, CPU = range(8)


def _max_safe_uses_tag(args, kwargs, result):
    n = args[0] if args else kwargs["N"]
    t = args[1] if len(args) > 1 else kwargs["T"]
    return f"T{t}N{n}"


def _game_trials(args, kwargs, name):
    if len(args) > 3:
        return args[3]
    return kwargs[name]


def _run_game_tag(args, kwargs, result):
    return [args[1].name, _game_trials(args, kwargs, "trials")]


def _recovery_tag(args, kwargs, result):
    return ["recovery-" + args[1].name, _game_trials(args, kwargs, "trials")]


def _acca_tag(args, kwargs, result):
    per_round = args[2] if len(args) > 2 else kwargs["trials_per_round"]
    rounds = len(result) if result is not None else 0
    return ["acca-" + args[1].name, per_round * rounds]


def _mc_tag(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs["trials"]


# (module, attribute path, span name, tag function, record CPU time)
BINDINGS = [
    # bits
    ("stegogame.bits", "xor_bits", "bits.xor_bits", None, False),
    ("stegogame.stego", "xor_bits", "bits.xor_bits", None, False),
    ("stegogame.attackgame.adversaries", "xor_bits", "bits.xor_bits", None, False),
    ("stegogame.bits", "bits_to_hex", "bits.bits_to_hex", None, False),
    ("stegogame.stego", "bits_to_hex", "bits.bits_to_hex", None, False),
    ("stegogame.bits", "hex_to_bits", "bits.hex_to_bits", None, False),
    ("stegogame.stego", "hex_to_bits", "bits.hex_to_bits", None, False),
    # permcodec
    ("stegogame.permcodec", "capacity", "permcodec.capacity", None, False),
    ("stegogame.stego", "capacity", "permcodec.capacity", None, False),
    ("stegogame.attackgame.game", "capacity", "permcodec.capacity", None, False),
    ("stegogame.permcodec", "unrank", "permcodec.unrank", None, False),
    ("stegogame.permcodec", "rank", "permcodec.rank", None, False),
    ("stegogame.permcodec", "bits_to_arrangement", "permcodec.bits_to_arrangement", None, False),
    ("stegogame.stego", "bits_to_arrangement", "permcodec.bits_to_arrangement", None, False),
    ("stegogame.permcodec", "arrangement_to_bits", "permcodec.arrangement_to_bits", None, False),
    ("stegogame.stego", "arrangement_to_bits", "permcodec.arrangement_to_bits", None, False),
    ("stegogame.attackgame.adversaries", "arrangement_to_bits", "permcodec.arrangement_to_bits", None, False),
    # library
    ("stegogame.library", "CoverLibrary.lookup", "library.lookup", None, False),
    ("stegogame.library", "hash_file", "library.hash_file", None, False),
    ("stegogame.library", "build_library", "library.build_library", None, False),
    ("stegogame.library", "save_manifest", "library.save_manifest", None, False),
    ("stegogame.library", "load_manifest", "library.load_manifest", None, False),
    ("stegogame.attackgame.scenario", "load_manifest", "library.load_manifest", None, False),
    # stego
    ("stegogame.stego", "keygen", "stego.keygen", None, False),
    ("stegogame.attackgame.game", "keygen", "stego.keygen", None, False),
    ("stegogame.stego", "embed", "stego.embed", None, False),
    ("stegogame.attackgame.game", "embed", "stego.embed", None, False),
    ("stegogame.stego", "extract", "stego.extract", None, False),
    ("stegogame.attackgame.game", "extract", "stego.extract", None, False),
    ("stegogame.stego", "sequence_to_json", "stego.sequence_to_json", None, False),
    ("stegogame.stego", "sequence_from_json", "stego.sequence_from_json", None, False),
    ("stegogame.stego", "save_key", "stego.save_key", None, False),
    ("stegogame.stego", "load_key", "stego.load_key", None, False),
    ("stegogame.stego", "save_sequence", "stego.save_sequence", None, False),
    ("stegogame.stego", "load_sequence", "stego.load_sequence", None, False),
    # budget
    ("stegogame.budget", "max_safe_uses", "budget.max_safe_uses", _max_safe_uses_tag, False),
    ("stegogame.budget", "coverage_report", "budget.coverage_report", None, False),
    ("stegogame.budget", "pr_coverage_mc", "budget.pr_coverage_mc", _mc_tag, False),
    # divergence
    ("stegogame.divergence", "js", "divergence.js", None, False),
    ("stegogame.divergence", "METRICS[js]", "divergence.js", None, False),
    ("stegogame.attackgame.adversaries", "js", "divergence.js", None, False),
    ("stegogame.divergence", "estimate_distribution", "divergence.estimate_distribution", None, False),
    ("stegogame.divergence", "calibrate_epsilon", "divergence.calibrate_epsilon", None, False),
    ("stegogame.divergence", "distinguishability_test", "divergence.distinguishability_test", None, False),
    # attackgame
    ("stegogame.attackgame", "run_game", "attackgame.run_game", _run_game_tag, True),
    ("stegogame.attackgame", "message_recovery_game", "attackgame.message_recovery_game", _recovery_tag, True),
    ("stegogame.attackgame", "acca_loop", "attackgame.acca_loop", _acca_tag, True),
    ("stegogame.attackgame.scenario", "load_scenario", "attackgame.load_scenario", None, False),
]

ADVERSARY_METHODS = ("learn", "guess", "recover")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack = self._stack()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._client_stack[-1]
        except IndexError:
            return 0

    def current(self) -> int:
        """Innermost open span of the client thread (0 when none is open)."""
        return self._parent([])

    def new_id(self) -> int:
        return next(self._ids)

    def wrap(self, name: str, fn, tag=None, cpu: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time() if cpu else 0.0
                stack.pop()
                label = tag(args, kwargs, result) if tag is not None else None
                tracer.spans.append((sid, name, label, t0, t1, parent, tracer.op, c1 - c0))

        traced.perfbench_traced = True
        return traced

    def span(self, name: str, tag=None):
        """Context manager for a span the benchmark itself opens (an op)."""
        return _Span(self, name, tag)

    def install(self) -> None:
        for module, attr, name, tag, cpu in BINDINGS:
            getter, setter = _resolve(importlib.import_module(module), attr)
            original = getter()
            if getattr(original, "perfbench_traced", False):
                continue
            setter(self.wrap(name, original, tag, cpu))
            self._patched.append((setter, original))
        from stegogame.attackgame import ADVERSARIES

        for cls in ADVERSARIES.values():
            for method in ADVERSARY_METHODS:
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(f"attackgame.{method}", original))
                self._patched.append((functools.partial(setattr, cls, method), original))

    def uninstall(self) -> None:
        for setter, original in reversed(self._patched):
            setter(original)
        self._patched.clear()

    def merge(self, child_spans: list, parent: int, op: int | None) -> None:
        """Adopt spans recorded by a child process under span ``parent``."""
        ids = {}
        for span in child_spans:
            ids[span[SID]] = self.new_id()
        for span in child_spans:
            sid, name, tag, t0, t1, p, _, cpu = span
            self.spans.append((ids[sid], name, tag, t0, t1, ids.get(p, parent), op, cpu))


class _Span:
    def __init__(self, tracer: Tracer, name: str, tag):
        self.tracer, self.name, self.tag = tracer, name, tag

    def __enter__(self):
        tracer = self.tracer
        self.stack = tracer._stack()
        self.parent = tracer._parent(self.stack)
        self.sid = tracer.new_id()
        self.stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.stack.pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.tag, self.t0, t1, self.parent, self.tracer.op, 0.0)
        )
        return False


def _resolve(module, attr: str):
    """Getter and setter for ``Class.method``, ``DICT[key]`` or a plain name."""
    if attr.endswith("]"):
        dname, key = attr[:-1].split("[")
        mapping = getattr(module, dname)
        return lambda: mapping[key], lambda v: mapping.__setitem__(key, v)
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    last = parts[-1]
    if isinstance(owner, type):
        return lambda: owner.__dict__[last], lambda v: setattr(owner, last, v)
    return lambda: getattr(owner, last), lambda v: setattr(owner, last, v)


# ---------------------------------------------------------------------------
# analysis

def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[T0], s[T1]))
    out = {}
    for s in spans:
        t0, t1 = s[T0], s[T1]
        covered = 0.0
        edge = t0
        for c0, c1 in sorted(children.get(s[SID], ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[s[SID]] = (t1 - t0) - covered
    return out


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total and mean duration, mean self time."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[T1] - s[T0]
        row["self_s"] += selfs[s[SID]]
    for row in table.values():
        row["mean_s"] = row["total_s"] / row["calls"]
        row["self_mean_s"] = row["self_s"] / row["calls"]
    return table
