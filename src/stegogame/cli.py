"""Command-line front end.

Machine-readable JSON goes to stdout (compact, key-sorted, so seeded runs
are byte-identical); human warnings go to stderr.  Exit codes: 0 success,
1 domain error (JSON error object on stdout), 2 usage error.

The budget, divergence and attack handlers import their modules when they
run, so the codec subcommands start without numpy and only ``attack`` loads
scipy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from decimal import Decimal
from pathlib import Path

from . import __version__
from .bits import bits_to_hex, hex_digits_for, hex_to_bits
from .errors import InvalidParams, MalformedFile, StegogameError
from .library import build_library, load_manifest, save_manifest
from .permcodec import capacity
from .stego import (
    Message,
    SeededEntropy,
    embed,
    extract,
    keygen,
    load_key,
    load_sequence,
    save_key,
    save_sequence,
)


# parsed arguments that are not echoed in "params"; --seed is reported beside it
_UNECHOED = ("subcommand", "handler", "seed", "timing")


def _emit(args, result: dict, seed: int | None = None) -> None:
    params = {k: v for k, v in vars(args).items() if k not in _UNECHOED}
    report: dict = {"subcommand": args.subcommand, "tool_version": __version__, "params": params}
    if seed is not None:
        report["seed"] = seed
    report.update(result)
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _fields(report) -> dict:
    """A dataclass report as a dict, without its unset fields."""
    return {k: v for k, v in asdict(report).items() if v is not None}


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_build_library(args) -> int:
    lib = build_library(args.paths)
    save_manifest(lib, args.output)
    _emit(args, {"T": lib.T, "manifest": args.output})
    return 0


def _cmd_capacity(args) -> int:
    cap = capacity(args.T, args.N)
    # via Decimal: str(int) refuses more than sys.get_int_max_str_digits() digits
    _emit(args, {"r": str(Decimal(cap.r)), "l": cap.l})
    return 0


def _cmd_keygen(args) -> int:
    if args.bits is not None:
        l = args.bits
    elif args.T is not None and args.N is not None:
        l = capacity(args.T, args.N).l
    else:
        raise InvalidParams("keygen needs either --bits or both -T and -N")
    entropy = SeededEntropy(args.seed) if args.seed is not None else None
    key = keygen(l, entropy=entropy)
    save_key(key, args.output)
    _emit(args, {"l": key.l, "key_file": args.output}, seed=args.seed)
    return 0


def _message_blocks(hexstr: str, l: int) -> list[str]:
    """Split a long message into per-sequence blocks of ceil(l/4) hex digits."""
    width = hex_digits_for(l)
    if not hexstr or len(hexstr) % width != 0:
        raise MalformedFile(
            f"message hex length must be a positive multiple of {width} digits for l={l}"
        )
    return [hex_to_bits(hexstr[i : i + width], l) for i in range(0, len(hexstr), width)]


def _block_path(base: str, index: int, total: int) -> Path:
    if total == 1:
        return Path(base)
    p = Path(base)
    return p.with_name(f"{p.stem}.{index:03d}{p.suffix}")


def _cmd_embed(args) -> int:
    lib = load_manifest(args.library)
    key = load_key(args.key)
    l = capacity(lib.T, args.N).l
    blocks = _message_blocks(args.message.lower(), l)
    paths = []
    for i, bits in enumerate(blocks):
        seq = embed(Message(bits), key, lib, args.N)
        out = _block_path(args.output, i, len(blocks))
        save_sequence(seq, out)
        paths.append(str(out))
    _emit(args, {"sequences": paths, "blocks": len(blocks), "N": args.N, "l": l})
    return 0


def _cmd_extract(args) -> int:
    lib = load_manifest(args.library)
    key = load_key(args.key)
    hex_parts = []
    for path in args.sequence:
        seq = load_sequence(path)
        m = extract(seq, key, lib)
        hex_parts.append(bits_to_hex(m.bits))
    _emit(args, {"message": "".join(hex_parts), "blocks": len(args.sequence), "l": key.l})
    return 0


def _cmd_budget(args) -> int:
    from .budget import coverage_report, max_safe_uses

    x_max = max_safe_uses(args.N, args.T, args.zeta)
    x = args.x if args.x is not None else x_max
    report = coverage_report(x, args.N, args.T, mc_trials=args.mc_trials, seed=args.seed)
    if not report.published_in_range:
        _warn(
            f"closed-form coverage value {report.p_published} lies outside [0,1]; "
            "trust p_exact"
        )
    result = _fields(report)
    result.update({"zeta": args.zeta, "x_max": x_max})
    _emit(args, result, seed=args.seed if args.mc_trials is not None else None)
    return 0


def _read_samples(path: str) -> list[float]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedFile(f"cannot read samples {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"samples file {path} is not UTF-8 text ({exc})") from exc
    samples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            samples.append(float(line))
        except ValueError:
            raise MalformedFile(f"{path}:{lineno}: not a decimal number: {line!r}") from None
    return samples


def _cmd_divergence(args) -> int:
    from .divergence import calibrate_epsilon, distinguishability_test

    a = _read_samples(args.a)
    b = _read_samples(args.b)
    if args.epsilon == "auto":
        epsilon = calibrate_epsilon(a, b, metric=args.metric, bins=args.bins, seed=args.seed)
        mode = "auto"
    else:
        try:
            epsilon = float(args.epsilon)
        except ValueError:
            raise InvalidParams(f"--epsilon must be a float or 'auto', got {args.epsilon!r}") from None
        mode = "fixed"
    report = distinguishability_test(a, b, epsilon, metric=args.metric, bins=args.bins)
    result = asdict(report)
    if not args.timing:
        # wall-clock noise would break byte-identical reruns
        del result["elapsed"]
    result["epsilon_mode"] = mode
    _emit(args, result, seed=args.seed if mode == "auto" else None)
    return 0


def _cmd_attack(args) -> int:
    from .attackgame import AttackLevel, acca_loop, make_adversary, message_recovery_game, run_game
    from .attackgame.scenario import load_scenario

    scenario = load_scenario(args.scenario)
    adversary = make_adversary(args.adversary)
    level = AttackLevel.parse(args.level)
    if level is AttackLevel.ACCA and args.game == "detection":
        results = acca_loop(
            scenario, adversary, trials_per_round=args.trials, seed=args.seed,
            rounds=args.rounds, alpha=args.alpha,
        )
        rounds = [_fields(r) for r in results]
        result = {
            "rounds": rounds,
            "rounds_run": len(rounds),
            "broken": any(r["verdict"] == "broken" for r in rounds),
        }
    else:
        game = message_recovery_game if args.game == "recovery" else run_game
        result = _fields(game(scenario, adversary, level, args.trials, args.seed, alpha=args.alpha))
    _emit(args, result, seed=args.seed)
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stegogame",
        description="Coverless steganography codec plus security evaluation harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build-library", help="hash covers into a canonical manifest")
    p.add_argument("paths", nargs="+", help="cover files")
    p.add_argument("-o", "--output", required=True, help="manifest path to write")
    p.set_defaults(handler=_cmd_build_library)

    p = sub.add_parser("capacity", help="exact arrangement count and payload bits")
    p.add_argument("-T", type=int, required=True, help="library size")
    p.add_argument("-N", type=int, required=True, help="sequence length")
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser("keygen", help="sample a key sized for (T, N) or --bits")
    p.add_argument("-T", type=int, help="library size")
    p.add_argument("-N", type=int, help="sequence length")
    p.add_argument("--bits", type=int, help="explicit key length in bits")
    p.add_argument("-o", "--output", required=True, help="key file to write")
    p.add_argument("--seed", type=int, help="deterministic key for experiments")
    p.set_defaults(handler=_cmd_keygen)

    p = sub.add_parser("embed", help="encode message hex into cover sequences")
    p.add_argument("-m", "--message", required=True, help="payload as hex digits")
    p.add_argument("-k", "--key", required=True, help="key file")
    p.add_argument("-x", "--library", required=True, help="library manifest")
    p.add_argument("-N", type=int, required=True, help="sequence length")
    p.add_argument("-o", "--output", required=True, help="sequence file (numbered when multi-block)")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("extract", help="decode message hex from sequence files")
    p.add_argument("-s", "--sequence", action="append", required=True, help="sequence file (repeatable, in order)")
    p.add_argument("-k", "--key", required=True, help="key file")
    p.add_argument("-x", "--library", required=True, help="library manifest")
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("budget", help="library-exposure probability and safe use count")
    p.add_argument("-T", type=int, required=True, help="library size")
    p.add_argument("-N", type=int, required=True, help="sequence length")
    p.add_argument("--zeta", type=float, required=True, help="exposure threshold in (0,1)")
    p.add_argument("--x", type=int, help="uses to report on (default: x_max)")
    p.add_argument("--mc-trials", type=int, help="add a Monte-Carlo cross-check")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    p.set_defaults(handler=_cmd_budget)

    p = sub.add_parser("divergence", help="histogram distance between two sample files")
    p.add_argument("-a", required=True, help="samples file (one decimal per line)")
    p.add_argument("-b", required=True, help="samples file (one decimal per line)")
    # sorted(divergence.METRICS), spelled out so that parsing imports no numpy
    p.add_argument("--metric", choices=["js", "kl", "tv", "w1"], default="js")
    p.add_argument("--epsilon", required=True, help="threshold, or 'auto' for permutation null")
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--seed", type=int, default=0, help="seed for --epsilon auto")
    p.add_argument("--timing", action="store_true", help="include elapsed seconds in the report")
    p.set_defaults(handler=_cmd_divergence)

    p = sub.add_parser("attack", help="run a detection or recovery game")
    p.add_argument("--scheme", choices=["coverless"], default="coverless")
    p.add_argument("--level", required=True, help="scoa|kca|cca|acca")
    p.add_argument("--adversary", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--game", choices=["detection", "recovery"], default="detection")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--rounds", type=int, help="override scenario rounds (acca)")
    p.set_defaults(handler=_cmd_attack)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except StegogameError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}, sort_keys=True, separators=(",", ":")))
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
