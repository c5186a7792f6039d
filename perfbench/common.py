"""Shared pieces of the benchmark: the closed-loop runner, statistics,
failure accounting and the machine description written into every result.

Every workload is a list of jobs run as one cycle.  One client runs the ops
back to back (closed loop: the next op starts when the previous one has
returned).  The loop always finishes the cycle it is in, so each run holds
whole cycles and the same job mix.  It stops once ``seconds`` have passed
and at least ``min_cycles`` cycles have run.

The host this benchmark was tuned on changes speed by up to 1.5x over
seconds to minutes (other tenants; it is not steal time, CPU time slows
alike).  Two things keep the figures steady:

* Interference only ever slows an op down, so each job's time is its
  fastest repeat in the run, as ``timeit`` does.
* A fixed kernel of the benchmark's own runs a few times after every op,
  outside the op's timing.  Its first quartile, against REFERENCE_MS, says
  how fast the host ran, and every time is rescaled to the reference speed:
  ``ms * REFERENCE_MS / kernel_p25_ms``.  Each phase is rescaled by a
  kernel like its work and measured in the same phase: in-process compute
  by a pure-Python loop (``python``), interpreter starts and cold imports
  by starting a bare interpreter (``start``).  The kernels are not part of
  the package, so a change to the package moves the rescaled figures as
  much as the raw ones, while a host that runs 30% slower for a minute
  moves neither.  The raw figures are kept beside them.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKERS = 2
SETUP_REPS = 5
CALIBRATION_PER_OP = 3
# About each kernel's first quartile on the tuning host in its faster
# regime.  Any fixed value would do: it only sets the scale.
REFERENCE_MS = 10.0
INF = float("inf")


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    """One timed call.  ``fn`` returns a value that ``verify`` checks after
    the clock has stopped; ``verify`` raises CheckFailed on a wrong output."""

    job: str
    fn: Callable[[], object]
    verify: Callable[[object], None] = lambda result: None


@dataclass
class LoopResult:
    durations_ms: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    slots: list[int] = field(default_factory=list)
    jobs: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    calibration_ms: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    cycles: int = 0

    @property
    def attempted(self) -> int:
        return len(self.durations_ms)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_loop(
    cycle: Callable[[int], Iterable[Op]],
    seconds: float,
    min_cycles: int,
    on_op: Callable[[int], None] | None = None,
    kernel: str | None = None,
) -> LoopResult:
    """Closed loop, one client, whole cycles.

    It runs whole cycles until ``seconds`` have passed and at least
    ``min_cycles`` cycles have run.  Every op's wall time is recorded, a
    failed one's too; a failed op (exception or failed check) counts as
    attempted and as failed.  ``on_op`` is told the op index before each op
    starts (the tracer uses it as the op id).  After each op the calibration
    ``kernel`` (a key of KERNELS) runs CALIBRATION_PER_OP times.
    """
    out = LoopResult()
    start = time.perf_counter()
    while True:
        for slot, op in enumerate(cycle(out.cycles)):
            if on_op is not None:
                on_op(out.attempted)
            ok, t1 = False, None
            t0 = time.perf_counter()
            try:
                result = op.fn()
                t1 = time.perf_counter()
                op.verify(result)
                ok = True
            except Exception as exc:  # every failure mode is counted, not raised
                out.failures.append(f"{op.job}: {type(exc).__name__}: {exc}")
            if t1 is None:
                t1 = time.perf_counter()
            out.durations_ms.append((t1 - t0) * 1e3)
            out.ok.append(ok)
            out.slots.append(slot)
            out.jobs.append(op.job)
            if kernel is not None:
                calibrate(out.calibration_ms, kernel)
        out.cycles += 1
        out.elapsed_s = time.perf_counter() - start
        if out.elapsed_s >= seconds and out.cycles >= min_cycles:
            break
    return out


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == INF:
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def best_repeats(loop: LoopResult) -> tuple[dict[int, float], set[int]]:
    """Each job's fastest repeat in ms, failed repeats included, and the
    jobs (by slot) that failed at least once."""
    best: dict[int, float] = {}
    failed: set[int] = set()
    for slot, ms, ok in zip(loop.slots, loop.durations_ms, loop.ok):
        best[slot] = min(ms, best.get(slot, INF))
        if not ok:
            failed.add(slot)
    return best, failed


def python_kernel() -> None:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    total = 0
    table: dict[int, int] = {}
    for i in range(75_000):
        total += i * i % 7
        table[i & 1023] = total


def start_kernel() -> None:
    """Start a bare interpreter (no site, nothing imported) and let it exit."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], env=child_env(), capture_output=True,
                   timeout=60, check=True)


KERNELS = {"python": python_kernel, "start": start_kernel}


def calibrate(samples: list[float], kernel: str) -> None:
    run = KERNELS[kernel]
    for _ in range(CALIBRATION_PER_OP):
        t0 = time.perf_counter()
        run()
        samples.append((time.perf_counter() - t0) * 1e3)


def _kernel_ms(samples: list[float] | None) -> float:
    """The kernel's first quartile; REFERENCE_MS (no rescaling) without samples."""
    return percentile(samples, 25) if samples else REFERENCE_MS


def end_to_end(loop: LoopResult, setup_s: list[float], peak_rss_mb: float,
               setup_calibration_ms: list[float] | None = None) -> dict:
    """The end-to-end figures of one untraced run, plus tail details.

    A job's latency is its fastest repeat, or infinite if any repeat failed,
    so that a failure misses every latency limit.  ``throughput_ops_s`` is
    the share of ops that completed times jobs per second of the summed job
    times; a failed op still spends its real time there, so failures can
    only lower it.  The tail is the slowest job.  ``setup_s`` is the median
    set-up.  Times are rescaled to the reference speed by the kernel times
    of the loop and of the set-up (no rescaling where there are none);
    ``raw`` keeps them as measured.
    """
    best, failed = best_repeats(loop)
    latencies = [INF if slot in failed else ms for slot, ms in best.items()]
    total_s = sum(best.values()) / 1e3
    completed = (loop.attempted - loop.failed) / loop.attempted
    raw = {
        "throughput_ops_s": completed * len(best) / total_s if total_s > 0 else 0.0,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": max(latencies),
        "setup_s": median(setup_s),
    }
    loop_kernel_ms = _kernel_ms(loop.calibration_ms)
    setup_kernel_ms = _kernel_ms(setup_calibration_ms)
    scale = REFERENCE_MS / loop_kernel_ms
    return {
        "throughput_ops_s": raw["throughput_ops_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_tail_ms": raw["latency_tail_ms"] * scale,
        "setup_s": raw["setup_s"] * REFERENCE_MS / setup_kernel_ms,
        "error_rate": loop.failed / loop.attempted,
        "peak_rss_mb": peak_rss_mb,
        "raw": raw,
        "calibration": {"reference_ms": REFERENCE_MS, "loop_kernel_p25_ms": loop_kernel_ms,
                        "setup_kernel_p25_ms": setup_kernel_ms,
                        "loop_samples": len(loop.calibration_ms),
                        "setup_samples": len(setup_calibration_ms or ())},
        "tail": {"percentile": 100.0, "jobs": len(best), "repeats": loop.cycles},
    }


def rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def timed_setup(build: Callable[[int], None], imports: tuple[str, ...],
                calibration_ms: list[float]) -> list[float]:
    """Set up SETUP_REPS times and return each one's seconds: a cold import
    of ``imports`` in a fresh interpreter (the benchmark process can import
    only once), then ``build(rep)``.  The ``start`` kernel runs after each:
    both parts are dominated by starting interpreters and importing."""
    times = []
    for rep in range(SETUP_REPS):
        seconds = import_seconds(imports) if imports else 0.0
        t0 = time.perf_counter()
        build(rep)
        times.append(seconds + time.perf_counter() - t0)
        calibrate(calibration_ms, "start")
    return times


def import_seconds(modules: tuple[str, ...]) -> float:
    code = ("import time; t0 = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    check(done.returncode == 0, f"importing {modules} failed: {done.stderr[-300:]!r}")
    return float(done.stdout)


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "clients": 1,
        "machine": platform.machine(),
    }


def child_env() -> dict:
    """Environment for CLI children: the package is not installed, so point
    PYTHONPATH at src/ explicitly, and cap worker threads."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": SRC,
        "STEGOGAME_THREADS": str(WORKERS),
    }
