"""Per-layer metrics from one traced pass.

``calls`` figures are calls per timed op (set-up calls left out), so that
they compare across runs of different length; ``self_us`` is mean self time
per call.  A layer that the workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import CPU, NAME, OP, T0, T1, TAG, summarize

ADVERSARY_KEYS = ("scoa-histogram", "kca-membership", "cca-replay", "recovery-random", "acca-cca-replay")
GAMES = ("attackgame.run_game", "attackgame.message_recovery_game", "attackgame.acca_loop")
CLI_SUBCOMMANDS = (
    "build-library", "capacity", "keygen", "embed", "extract", "budget", "divergence", "attack",
)
CLI_PROBES = ("cli.interpreter_ms", "cli.import_ms", "cli.import.scipy_ms",
              "cli.import.numpy_ms", "cli.import.stegogame_ms")


def per_layer(spans: list[tuple], ops: int, probes: dict[str, float]) -> dict[str, float]:
    table = summarize(spans)
    counts = Counter(s[NAME] for s in spans if s[OP] != "setup")

    def calls(name: str) -> float:
        return counts[name] / ops

    def self_mean(name: str, scale: float) -> float:
        return table[name]["self_mean_s"] * scale if name in table else 0.0

    def mean(name: str, scale: float) -> float:
        return table[name]["mean_s"] * scale if name in table else 0.0

    by_tag: dict[tuple[str, object], list[tuple]] = defaultdict(list)
    for s in spans:
        tag = s[TAG]
        key = tag[0] if isinstance(tag, list) else tag
        by_tag[(s[NAME], key)].append(s)

    def tagged_mean_s(name: str, key: str) -> float:
        group = by_tag.get((name, key), [])
        return sum(s[T1] - s[T0] for s in group) / len(group) if group else 0.0

    m = {
        "bits.xor_bits.calls": calls("bits.xor_bits"),
        "bits.xor_bits.self_us": self_mean("bits.xor_bits", 1e6),
        "permcodec.capacity.calls": calls("permcodec.capacity"),
        "permcodec.capacity.self_us": self_mean("permcodec.capacity", 1e6),
        "permcodec.unrank.self_us": self_mean("permcodec.unrank", 1e6),
        "permcodec.rank.self_us": self_mean("permcodec.rank", 1e6),
        "library.lookup.calls": calls("library.lookup"),
        "library.lookup.self_us": self_mean("library.lookup", 1e6),
        "library.build_library.s": mean("library.build_library", 1.0),
        "library.load_manifest.ms": mean("library.load_manifest", 1e3),
        "stego.keygen.self_us": self_mean("stego.keygen", 1e6),
        "stego.embed.self_us": self_mean("stego.embed", 1e6),
        "stego.extract.self_us": self_mean("stego.extract", 1e6),
        "budget.max_safe_uses.T256N16.s": tagged_mean_s("budget.max_safe_uses", "T256N16"),
        "budget.max_safe_uses.T512N24.s": tagged_mean_s("budget.max_safe_uses", "T512N24"),
        "budget.pr_coverage_mc.s": mean("budget.pr_coverage_mc", 1.0),
        "divergence.js.calls": calls("divergence.js"),
        "divergence.js.self_us": self_mean("divergence.js", 1e6),
        "divergence.calibrate_epsilon.s": mean("divergence.calibrate_epsilon", 1.0),
        "attackgame.learn.self_s": self_mean("attackgame.learn", 1.0),
        "attackgame.guess.self_s": self_mean("attackgame.guess", 1.0),
    }

    mc = [s for s in spans if s[NAME] == "budget.pr_coverage_mc"]
    mc_time = sum(s[T1] - s[T0] for s in mc)
    m["budget.mc_trials_per_s"] = sum(s[TAG] for s in mc) / mc_time if mc_time else 0.0

    trials: dict[str, float] = defaultdict(float)
    wall: dict[str, float] = defaultdict(float)
    for s in spans:
        if s[NAME] in GAMES:
            key, count = s[TAG]
            trials[key] += count
            wall[key] += s[T1] - s[T0]
    for key in ADVERSARY_KEYS:
        m[f"attackgame.trial_ms.{key}"] = wall[key] / trials[key] * 1e3 if trials[key] else 0.0

    threaded = [s for s in spans if s[NAME] == "attackgame.run_game"]
    threaded_wall = sum(s[T1] - s[T0] for s in threaded)
    m["attackgame.cpu_util"] = sum(s[CPU] for s in threaded) / threaded_wall if threaded_wall else 0.0

    for name in CLI_PROBES:
        m[name] = probes.get(name, 0.0)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.ms"] = tagged_mean_s("op", sub) * 1e3
    return m
