#!/usr/bin/env python3
"""Run the three headline security experiments and print their results.

1. A channel-statistics detector (pooled byte histograms, self-calibrated
   threshold) plays the detection game without any library knowledge.  It
   should stay at chance.
2. The same game with the full library leaked to a membership tester.  It
   should be broken outright, which is the point of keeping the library
   secret.
3. A keyless adversary plays the message-recovery game.  Per-bit agreement
   should sit at one half.

Each experiment prints a single JSON object, so the output is easy to diff
or collect.  Acceptance criterion 6 (``tests/test_acceptance.py``) checks
:func:`experiments` at its defaults, so those are the acceptance run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys


def experiments(trials: int = 1000, offset: int = 0) -> list[tuple[str, object]]:
    """The three experiments' (tag, result) pairs, in order; ``offset`` shifts
    every scenario and game seed."""
    from stegogame.attackgame import (
        AttackLevel, KCAMembership, RandomGuesser, SCOAHistogram, message_recovery_game, run_game,
        synthetic_scenario,
    )

    sc = synthetic_scenario(T=16, N=4, world_size=64, seed=101 + offset)
    detection = run_game(sc, SCOAHistogram(), AttackLevel.SCOA, trials=trials, seed=201 + offset)
    sc = synthetic_scenario(
        T=16, N=4, world_size=48, disjoint_world=True,
        seed=102 + offset, leak_fraction=1.0, observations=0,
    )
    leak = run_game(sc, KCAMembership(), AttackLevel.KCA, trials=trials, seed=202 + offset)
    sc = synthetic_scenario(T=6, N=4, world_size=18, seed=103 + offset, observations=0)
    recovery = message_recovery_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=trials, seed=203 + offset)
    return [
        ("channel-statistics-detection", detection),
        ("full-library-leak-detection", leak),
        ("keyless-recovery", recovery),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0, help="offsets the per-experiment seeds")
    args = ap.parse_args()
    for tag, result in experiments(args.trials, args.seed):
        print(json.dumps({"experiment": tag, **dataclasses.asdict(result)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")  # run from a fresh checkout; a module that loads this one keeps its sys.path
    raise SystemExit(main())
