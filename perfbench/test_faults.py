"""Checks of the benchmark's own failure accounting.

    python3 -m pytest -q perfbench/test_faults.py

A wrong result is injected through a wrapper around the package's function,
never by editing src/, and must show up as failed ops, a higher error_rate
and no higher throughput.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import INF, ROOT, SRC, LoopResult, Op, end_to_end, run_loop  # noqa: E402

sys.path.insert(0, SRC)

JOB = "max_safe_uses.T256N16"


def _wrong_every_other(original):
    """Wrap max_safe_uses so that every odd-numbered call returns x_max + 1."""
    calls = {"n": 0}

    def wrapped(*args, **kwargs):
        x = original(*args, **kwargs)
        calls["n"] += 1
        return x + 1 if calls["n"] % 2 else x

    return wrapped


def _budget_job(workload):
    """The security-eval cycle cut down to one budget job, to keep the test short."""
    return lambda index: [op for op in workload.cycle(index) if op.job == JOB]


def test_wrong_result_raises_error_rate(tmp_path, monkeypatch):
    from security_eval import SecurityEval
    from stegogame import budget

    clean_workload = SecurityEval(seed=7, workdir=str(tmp_path))
    clean_workload.build(0)
    clean = run_loop(_budget_job(clean_workload), 0.0, 4)
    clean_e2e = end_to_end(clean, [0.0], 0.0)
    assert clean.failed == 0 and clean_e2e["error_rate"] == 0.0

    monkeypatch.setattr(budget, "max_safe_uses", _wrong_every_other(budget.max_safe_uses))
    workload = SecurityEval(seed=7, workdir=str(tmp_path))
    workload.build(0)
    faulty = run_loop(_budget_job(workload), 0.0, 4)
    faulty_e2e = end_to_end(faulty, [0.0], 0.0)

    assert faulty.attempted == 4 and faulty.failed == 2
    assert faulty_e2e["error_rate"] == 0.5 > clean_e2e["error_rate"]
    assert "not bracketed by exact coverage" in faulty.failures[0]
    assert "differs from the first repetition" in faulty.failures[1]
    # a failed op misses every latency limit, and throughput does not rise
    assert faulty_e2e["latency_p50_ms"] == INF and faulty_e2e["latency_tail_ms"] == INF
    assert faulty_e2e["throughput_ops_s"] < clean_e2e["throughput_ops_s"]


def test_exception_counts_as_attempted_and_failed():
    def boom():
        raise RuntimeError("injected")

    ops = [Op("ok", lambda: 1, lambda r: None), Op("boom", boom)]
    loop = run_loop(lambda i: ops, 0.0, 5)
    assert loop.attempted == 10 and loop.failed == 5
    assert loop.failures[0] == "boom: RuntimeError: injected"
    assert all(0.0 <= ms < INF for ms in loop.durations_ms)
    e2e = end_to_end(loop, [0.0], 0.0)
    assert e2e["error_rate"] == 0.5 and e2e["latency_tail_ms"] == INF


def test_a_slow_failure_lowers_throughput():
    durations = [5.0, 9.0, 4.0, 14.0, 6.0, 8.0]
    slots = [0, 1, 0, 1, 0, 1]
    clean = LoopResult(durations_ms=durations, ok=[True] * 6, slots=slots, cycles=3)
    faulty = LoopResult(durations_ms=durations, ok=[True, True, True, False, True, True],
                        slots=slots, failures=["x"], cycles=3)
    clean_e2e, faulty_e2e = end_to_end(clean, [0.0], 0.0), end_to_end(faulty, [0.0], 0.0)
    assert clean_e2e["latency_p50_ms"] == 6.0  # median of the fastest repeats 4 and 8
    assert clean_e2e["throughput_ops_s"] == 2 / 12.0e-3
    assert faulty_e2e["latency_p50_ms"] == INF and faulty_e2e["latency_tail_ms"] == INF
    assert faulty_e2e["throughput_ops_s"] == 5 / 6 * 2 / 12.0e-3


def test_all_failed_reads_zero_throughput():
    loop = LoopResult(durations_ms=[0.0, 0.0], ok=[False, False], slots=[0, 0],
                      failures=["x", "y"], cycles=2)
    e2e = end_to_end(loop, [0.0], 0.0)
    assert e2e["throughput_ops_s"] == 0.0 and e2e["error_rate"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "security-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result without the package: {line}")
