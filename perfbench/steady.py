"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/steady.py --seeds 1-10 --sets 2 --traced 1 --out perfbench/results/BENCH_1.json

For every seed it runs each workload once untraced, then ``--traced``
traced runs per workload.  With ``--sets 2`` it takes a second set of runs
on the next seeds (11-20 here), interleaved with the first seed by seed, so
that slow drift on the machine hits both sets alike; the second summary goes
next to the first, as ``BENCH_1.set2.json``.  For each end-to-end metric it reports the
median and quartiles per workload, and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, beside the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_out", "runs")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = os.path.join(RUNS, f"{workload}-seed{seed}-trace{trace}.json")
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    with open(out) as fh:
        full = json.load(fh)
    return {
        "seed": seed,
        "wall_s": wall,
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "error_rate": full["metrics"].get("error_rate"),
        "tail": full.get("tail"),
        "cycles": full.get("cycles"),
        "jobs_best_ms": full.get("jobs_best_ms"),
        "setup_reps_s": full.get("setup_s"),
        "environment": full["environment"],
    }


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def summarize(spec: dict, workloads: list[str], runs: dict[str, list[dict]]) -> dict:
    summary: dict[str, dict] = {}
    for workload in workloads:
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = spread([r["metrics"][name] for r in runs[workload]])
            row.update(unit=metric["unit"], bound=metric["bound"])
            if name != "setup_s" and row["spread"] is not None:
                row["within_third_of_bound"] = row["spread"] < metric["bound"] / 3
            rows[name] = row
        summary[workload] = {
            "runs": runs[workload],
            "end_to_end": rows,
            "all_correct": all(r["correct"] for r in runs[workload]),
            "error_rate_max": max(r["error_rate"] or 0.0 for r in runs[workload]),
        }
        for name, row in rows.items():
            print(f"{workload:14s} {name:18s} median={row['median']:.5g} {row['unit']} "
                  f"q1={row['q1']:.5g} q3={row['q3']:.5g} spread={row['spread']:.4f} "
                  f"bound={row['bound']}", flush=True)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, help="interleaved sets of runs")
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--label", default="", help="free text stored with the summary")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = parse_seeds(args.seeds)
    sets = [[seed + k * len(seeds) for seed in seeds] for k in range(args.sets)]
    seconds = spec["run_seconds"]
    os.makedirs(RUNS, exist_ok=True)

    runs = [{w: [] for w in workloads} for _ in sets]
    for i in range(len(seeds)):
        for k, set_seeds in enumerate(sets):
            for workload in workloads:
                r = run_once(workload, set_seeds[i], seconds, 0)
                runs[k][workload].append(r)
                print(f"set{k + 1} {workload:14s} seed={r['seed']:<4d} wall={r['wall_s']:6.1f}s "
                      f"correct={r['correct']} "
                      + " ".join(f"{m}={v:.4g}" for m, v in r["metrics"].items()), flush=True)

    for k, set_seeds in enumerate(sets):
        print(f"set{k + 1}: seeds {set_seeds[0]}-{set_seeds[-1]}", flush=True)
        summary = summarize(spec, workloads, runs[k])
        if k == 0:
            for workload in workloads:
                traced = [run_once(workload, seed, seconds, 1) for seed in seeds[: args.traced]]
                summary[workload]["traced"] = traced
                for t in traced:
                    print(f"{workload:14s} traced seed={t['seed']} overhead="
                          f"{t['metrics']['trace.overhead_pct']:.2f}%", flush=True)
        if args.out:
            root, ext = os.path.splitext(args.out)
            path = args.out if k == 0 else f"{root}.set{k + 1}{ext}"
            first = runs[k][workloads[0]][0]
            with open(path, "w") as fh:
                json.dump({
                    "label": args.label,
                    "command": spec["command"],
                    "run_seconds": seconds,
                    "seeds": set_seeds,
                    "interleaved_sets": args.sets,
                    "environment": first["environment"],
                    "workloads": summary,
                }, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
