#!/usr/bin/env python3
"""Sweep library-exposure coverage over the use count x and emit CSV.

Columns: x, p_published (the one-sided closed form, which can leave [0,1]),
p_exact (inclusion-exclusion), and optionally a Monte-Carlo estimate with
its standard error.  The CSV is plot-ready, e.g.:

    python3 scripts/coverage_sweep.py -T 20 -N 4 --x-max 12 --mc-trials 200000
"""

from __future__ import annotations

import argparse
import csv
import sys

sys.path.insert(0, "src")  # allow running from a fresh checkout

from stegogame.budget import coverage_report, max_safe_uses


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-T", type=int, required=True, help="library size")
    ap.add_argument("-N", type=int, required=True, help="sequence length")
    ap.add_argument("--x-max", type=int, default=10, help="largest use count")
    ap.add_argument("--mc-trials", type=int, default=0, help="0 disables the MC column")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--zeta", type=float, default=None,
                    help="also report the safe use count for this threshold")
    ap.add_argument("-o", "--output", default="-", help="CSV path, '-' for stdout")
    args = ap.parse_args()

    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    try:
        fields = ["x", "p_published", "p_exact"]
        if args.mc_trials:
            fields += ["p_mc", "mc_se"]
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for x in range(args.x_max + 1):
            rep = coverage_report(x, args.N, args.T, args.mc_trials or None, args.seed)
            row = {"x": x, "p_published": repr(rep.p_published), "p_exact": repr(rep.p_exact)}
            if args.mc_trials:
                row["p_mc"] = repr(rep.p_mc)
                row["mc_se"] = repr(rep.mc_se)
            writer.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()

    if args.zeta is not None:
        print(
            f"max safe uses at zeta={args.zeta}: "
            f"{max_safe_uses(args.N, args.T, args.zeta)}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
