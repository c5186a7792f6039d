"""Compare two summaries written by steady.py, metric by metric.

    python3 perfbench/compare.py BASE.json OTHER.json

For every workload and end-to-end metric in BENCHMARK.json it prints both
medians and how much worse OTHER's median is than BASE's, as a share of
BASE's median, in the metric's own "better" direction. A metric regresses when that share is
larger than its bound in BENCHMARK.json. The exit code is 1 if any metric
regresses.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def worse_share(base: float, other: float, better: str) -> float:
    change = (other - base) / base
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    summaries = []
    for path in argv:
        with open(path) as fh:
            summaries.append(json.load(fh))
    base, other = summaries
    regressed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base["workloads"][workload]["end_to_end"][name]["median"]
            o = other["workloads"][workload]["end_to_end"][name]["median"]
            share = worse_share(b, o, metric["better"])
            bad = share > metric["bound"]
            regressed += bad
            print(f"{workload:14s} {name:18s} base={b:.5g} other={o:.5g} worse_by={share:+.4f} "
                  f"bound={metric['bound']} {'REGRESSED' if bad else 'ok'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
