"""Run one workload of the stegogame benchmark and print its metrics.

    python3 perfbench/run.py --workload security-eval --seed 1 --seconds 10 --trace 0

Run it from the repository root; it measures the package in ``src/`` as it
is.  Workloads: security-eval and cli-cold.  One client runs ops back to
back in a closed loop with at most 2 worker threads.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice in a row, untraced and then with spans recorded around every layer
(for ``--seconds``, in whole cycles), and prints the per-layer metrics and
the tracing overhead: how much lower the traced ops' throughput is than the
untraced ones'.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  ``--out FILE`` also writes a fuller result
(machine, tail, failures) as JSON.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    ROOT, SRC, WORK, Op, best_repeats, environment, end_to_end,
    rss_children_mb, rss_self_mb, run_loop, timed_setup,
)

OUT = os.path.join(ROOT, ".perfbench_out")


def _workloads():
    from cli_cold import CliCold
    from security_eval import SecurityEval

    return {w.name: w for w in (SecurityEval, CliCold)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stegogame", "__init__.py")):
        print(f"error: no stegogame package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(workloads[args.workload](args.seed, workdir), args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment())
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": _finite(result["metrics"][m["name"]]), "unit": m["unit"]}
               for m in names}
    report(result, metrics)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def measure(workload, seconds: float, trace: int) -> dict:
    for module in workload.setup_imports:
        importlib.import_module(module)
    if trace:
        return traced_pass(workload, seconds)
    calibration: list[float] = []
    setup_times = timed_setup(workload.build, workload.setup_imports, calibration)
    loop = run_loop(workload.cycle, seconds, workload.min_cycles, kernel=workload.kernel)
    peak = rss_children_mb() if workload.name == "cli-cold" else rss_self_mb()
    metrics = end_to_end(loop, setup_times, peak, calibration)
    return dict(
        setup_s=setup_times,
        attempted=loop.attempted,
        failed=loop.failed,
        failures=loop.failures[:20],
        cycles=loop.cycles,
        elapsed_s=loop.elapsed_s,
        jobs_best_ms=_per_job(loop),
        tail=metrics.pop("tail"),
        raw=metrics.pop("raw"),
        calibration={"loop_kernel": workload.kernel, **metrics.pop("calibration")},
        metrics=metrics,
    )


def traced_pass(workload, seconds: float) -> dict:
    """Each op runs untraced and then traced, back to back, so that both
    halves of a pair see the host at the same speed."""
    from layers import per_layer
    from tracer import Tracer

    tracer = Tracer()

    def tracing(on: bool) -> None:
        if on:
            tracer.install()
        else:
            tracer.uninstall()
        workload.tracer = tracer if on else None

    tracer.op = "setup"
    tracing(True)
    try:
        workload.build(-1)
    finally:
        tracing(False)

    def traced(op: Op) -> Op:
        def run():
            tracing(True)
            try:
                with tracer.span("op", op.job):
                    return op.fn()
            finally:
                tracing(False)

        return Op(op.job, run, op.verify)

    def cycle(index):
        return [pair for op in workload.cycle(index) for pair in (op, traced(op))]

    def on_op(index):
        tracer.op = index

    loop = run_loop(cycle, seconds, 1, on_op=on_op)
    probes = workload.probes() if hasattr(workload, "probes") else {}
    metrics = per_layer(tracer.spans, loop.attempted // 2, probes)
    metrics["trace.overhead_pct"] = _overhead_pct(loop)
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{workload.name}-seed{workload.seed}.jsonl.gz")
    with gzip.open(spans_file, "wt") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures[:20],
        "cycles": loop.cycles,
        "elapsed_s": loop.elapsed_s,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_file, ROOT),
        "metrics": metrics,
    }


def _overhead_pct(loop) -> float:
    """How much lower the traced ops' throughput is than the untraced ops',
    in percent: 1 - (sum of untraced times) / (sum of traced times) over the
    pairs in which both ops succeeded."""
    untraced = traced = 0.0
    for i in range(0, loop.attempted, 2):
        if loop.ok[i] and loop.ok[i + 1]:
            untraced += loop.durations_ms[i]
            traced += loop.durations_ms[i + 1]
    return (1.0 - untraced / traced) * 100.0 if traced else 0.0


def _describe_tail(tail: dict) -> str:
    return f"slowest of {tail['jobs']} jobs, each its fastest of {tail['repeats']} repeats"


def _per_job(loop) -> dict[str, float]:
    best, _ = best_repeats(loop)
    return {f"{slot}:{loop.jobs[slot]}": ms for slot, ms in best.items()}


def _finite(value: float) -> float | None:
    """The latency of a job that failed is infinite; JSON has no infinity,
    so it is written as null (the run is then not correct)."""
    return value if math.isfinite(value) else None


def report(result: dict, metrics: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} workers={env['workers']} clients={env['clients']} "
          f"loop=closed")
    for name, metric in metrics.items():
        print(f"{result['workload']} {name} = {metric['value']} {metric['unit']}")
    if not result["trace"]:
        print(f"{result['workload']} error_rate = {result['metrics']['error_rate']:.6g}"
              f" ({result['failed']} of {result['attempted']} ops failed)")
        print(f"{result['workload']} latency_tail_ms: {_describe_tail(result['tail'])}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
