"""Acceptance gate: eight end-to-end criteria, one printed line each.

Each test prints ``ACCEPTANCE <n> [PASS|FAIL] <summary>`` through the capture
so the gate's outcome is visible in any pytest run.  Statistical criteria run
a fixed, seeded procedure; the seeds are part of the contract, which makes
every number here reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

import stegogame
from helpers import coverage_enumeration, lex_arrangements, mem_library
from stegogame.attackgame import (
    AttackLevel,
    KCAMembership,
    RandomGuesser,
    SCOAHistogram,
    message_recovery_game,
    run_game,
    synthetic_scenario,
)
from stegogame.budget import (
    coverage_exact_fraction,
    coverage_report,
    max_safe_uses,
    pr_coverage_mc,
)
from stegogame.divergence import (
    VERDICT_INDISTINGUISHABLE,
    calibrate_epsilon,
    distinguishability_test,
    estimate_distribution,
    js,
    kl,
    tv,
    w1,
)
from stegogame.library import build_library, save_manifest
from stegogame.permcodec import Arrangement, capacity, rank, unrank
from stegogame.stego import Message, StegoKey, embed, extract


def _report(capfd, index: int, ok: bool, summary: str) -> None:
    with capfd.disabled():
        print(f"ACCEPTANCE {index} [{'PASS' if ok else 'FAIL'}] {summary}")
    assert ok, f"criterion {index} failed: {summary}"


def test_criterion_1_round_trip(capfd):
    """Embed/extract inverts exhaustively at small payloads, randomly above."""
    failures = 0
    checked = 0
    rng = np.random.Generator(np.random.Philox(key=1001))
    big_pairs = []
    for T in range(2, 9):
        lib = mem_library(T)
        for N in range(1, T + 1):
            l = capacity(T, N).l
            if l > 12:
                big_pairs.append((T, N, l, lib))
                continue
            for value in range(2**l):
                m = Message(value, l)
                k = StegoKey(int(rng.integers(0, 2**l)), l)
                failures += extract(embed(m, k, lib, N), k, lib) != m
                checked += 1
    per_pair = 10_000 // len(big_pairs)
    for T, N, l, lib in big_pairs:
        for _ in range(per_pair):
            m = Message(int(rng.integers(0, 2**l)), l)
            k = StegoKey(int(rng.integers(0, 2**l)), l)
            failures += extract(embed(m, k, lib, N), k, lib) != m
            checked += 1
    _report(
        capfd, 1, failures == 0,
        f"round-trip: {checked} embed/extract cases over T<=8, {failures} failures",
    )


def test_criterion_2_codec_bijection(capfd):
    """rank/unrank is the lexicographic enumeration; capacity counts it."""
    bad = 0
    pairs = 0
    for T in range(2, 9):
        for N in range(1, T + 1):
            expected = lex_arrangements(T, N)
            cap = capacity(T, N)
            if cap.r != len(expected):
                bad += 1
                continue
            for i, indices in enumerate(expected):
                arr = unrank(i, T, N)
                if arr.indices != indices or rank(arr) != i:
                    bad += 1
                    break
            pairs += 1
    _report(
        capfd, 2, bad == 0,
        f"codec bijection: exhaustive rank/unrank identity on {pairs} (T,N) pairs, T<=8",
    )


def test_criterion_3_budget_correctness(capfd):
    """Exact coverage equals enumeration; MC agrees; the closed form's flaw
    is reproduced and flagged."""
    mismatches = []
    for T in range(1, 6):
        for N in range(1, T + 1):
            for x in range(0, 5):
                if coverage_exact_fraction(x, N, T) != coverage_enumeration(x, N, T):
                    mismatches.append(("enum", T, N, x))
    mc_out = []
    for T in range(2, 6):
        for N in range(1, T + 1):
            for x in range(0, 5):
                est, se = pr_coverage_mc(x, N, T, trials=100_000, seed=31)
                exact = float(coverage_exact_fraction(x, N, T))
                tol = 4 * se if se > 0 else 1e-12
                if abs(est - exact) > tol:
                    mc_out.append(("mc", T, N, x, est, exact))
    for T in range(2, 9):
        N = T - 1
        for x in range(1, 5):
            rep = coverage_report(x, N, T)
            if rep.p_published != rep.p_exact:
                mismatches.append(("one-term", T, N, x))
    flaw = coverage_report(2, 2, 4).p_published
    flaw_ok = flaw == pytest.approx(-1 / 6) and not (0 <= flaw <= 1)
    ok = not mismatches and not mc_out and flaw_ok
    _report(
        capfd, 3, ok,
        "budget: exact==enumeration (T<=5, x<=4), MC within 4*SE at 1e5 trials, "
        f"closed form = {flaw:.4f} flagged out of range",
    )


def test_criterion_4_divergence_sanity(capfd):
    """Metric identities hold exactly; the permutation-null self-test calls
    i.i.d. splits indistinguishable in >= 99/100 seeded runs."""
    p = estimate_distribution([0.1, 0.4, 0.4, 0.9], bins=8, support=(0.0, 1.0))
    identities = kl(p, p) == js(p, p) == tv(p, p) == w1(p, p) == 0.0
    gen = np.random.Generator(np.random.Philox(key=77))
    bounds = True
    for _ in range(50):
        a = estimate_distribution(gen.random(200), bins=16, support=(0.0, 1.0))
        b = estimate_distribution(gen.random(200), bins=16, support=(0.0, 1.0))
        bounds &= 0 <= js(a, b) <= math.log(2) + 1e-12
        bounds &= 0 <= tv(a, b) <= 1
    master = 0  # fixed: the whole procedure below is deterministic
    good = 0
    for i in range(100):
        g = np.random.Generator(np.random.Philox(key=master, counter=i << 128))
        pooled = g.normal(size=1200)
        a, b = pooled[:600], pooled[600:]
        eps = calibrate_epsilon(a, b, metric="js", bins=64, runs=200, percentile=99.0, seed=i)
        verdict = distinguishability_test(a, b, eps, metric="js", bins=64).verdict
        good += verdict == VERDICT_INDISTINGUISHABLE
    ok = identities and bounds and good >= 99
    _report(
        capfd, 4, ok,
        f"divergence: exact zero self-distance, bounds hold, "
        f"permutation-null self-test {good}/100 indistinguishable",
    )


def test_criterion_5_output_uniformity(capfd):
    """With the key uniform, embed's output rank is uniform over the payload
    range: chi-square not rejected at alpha=0.01 in >= 95/100 repetitions."""
    lib = mem_library(4)
    m = Message(0, 4)
    master = 0  # fixed master seed; each repetition gets its own counter
    passed = 0
    for rep in range(100):
        gen = np.random.Generator(np.random.Philox(key=master, counter=rep << 128))
        key_values = gen.integers(0, 16, size=16_000)
        counts = np.zeros(16, dtype=np.int64)
        for kv in key_values:
            seq = embed(m, StegoKey(int(kv), 4), lib, 3)
            r = rank(Arrangement(indices=tuple(lib.lookup(c) for c in seq.ids), T=4))
            counts[r] += 1
        passed += chisquare(counts).pvalue >= 0.01
    _report(
        capfd, 5, passed >= 95,
        f"output-uniformity: chi-square over 16 ranks, 16000 samples/rep, "
        f"{passed}/100 repetitions not rejected at alpha=0.01",
    )


def test_criterion_6_security_claims(capfd):
    """Channel-statistics attacker stays at chance; full library leak breaks
    detection; keyless recovery stays at chance per bit."""
    sc_a = synthetic_scenario(T=16, N=4, world_size=64, seed=101)
    res_a = run_game(sc_a, SCOAHistogram(), AttackLevel.SCOA, trials=1000, seed=201)
    hw = 2.576 * math.sqrt(res_a.success_rate * (1 - res_a.success_rate) / res_a.trials)
    a_ok = (
        res_a.verdict == "resists"
        and res_a.success_rate - hw <= 0.5 <= res_a.success_rate + hw
    )

    sc_b = synthetic_scenario(
        T=16, N=4, world_size=48, disjoint_world=True, seed=102,
        leak_fraction=1.0, observations=0,
    )
    res_b = run_game(sc_b, KCAMembership(), AttackLevel.KCA, trials=1000, seed=202)
    b_ok = res_b.success_rate >= 0.99 and res_b.verdict == "broken"

    sc_c = synthetic_scenario(T=6, N=4, world_size=18, seed=103, observations=0)
    assert capacity(6, 4).l == 8
    res_c = message_recovery_game(sc_c, RandomGuesser(), AttackLevel.SCOA, trials=1000, seed=203)
    c_ok = 0.47 <= res_c.success_rate <= 0.53

    _report(
        capfd, 6, a_ok and b_ok and c_ok,
        f"security claims: channel-stats rate={res_a.success_rate:.3f} resists, "
        f"full-leak rate={res_b.success_rate:.3f} broken, "
        f"keyless bit-agreement={res_c.success_rate:.3f}",
    )


def test_criterion_7_determinism(capfd, tmp_path, make_covers):
    """Seeded subcommands emit byte-identical JSON, and keygen the same key
    file, across three reruns in separate workspaces."""

    # The children get a stripped env; PYTHONPATH names the directory holding
    # the package under test, so they import it whether or not it is installed.
    package_root = str(Path(stegogame.__file__).resolve().parents[1])

    def run(cwd, argv):
        return subprocess.run(
            [sys.executable, "-m", "stegogame.cli", *argv],
            capture_output=True, cwd=cwd,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )

    paths = make_covers(18, tag="det")
    lib = build_library(paths[:6])
    world = build_library(paths[6:])
    workspaces = []
    for name in ("w1", "w2", "w3"):
        d = tmp_path / name
        d.mkdir()
        save_manifest(lib, d / "lib.json")
        save_manifest(world, d / "world.json")
        (d / "scen.json").write_text(
            json.dumps({"library": "lib.json", "world_pool": "world.json",
                        "N": 3, "leak_fraction": 1.0})
        )
        gen = np.random.Generator(np.random.Philox(key=55))
        (d / "a.txt").write_text("\n".join(str(v) for v in gen.normal(size=300)))
        (d / "b.txt").write_text("\n".join(str(v) for v in gen.normal(size=300)))
        workspaces.append(d)

    commands = [
        ["keygen", "--bits", "24", "--seed", "7", "-o", "key.txt"],
        ["budget", "-T", "6", "-N", "3", "--zeta", "0.3", "--x", "4",
         "--mc-trials", "40000", "--seed", "5"],
        ["divergence", "-a", "a.txt", "-b", "b.txt", "--metric", "js",
         "--epsilon", "auto", "--seed", "3"],
        ["attack", "--level", "kca", "--adversary", "kca-membership",
         "--trials", "150", "--seed", "9", "--scenario", "scen.json"],
        ["attack", "--game", "recovery", "--adversary", "random", "--level", "scoa",
         "--trials", "150", "--seed", "9", "--scenario", "scen.json"],
    ]
    mismatched = []
    child_error = None
    for argv in commands:
        procs = [run(d, argv) for d in workspaces]
        outs = [p.stdout for p in procs]
        failed = [p for p in procs if p.returncode != 0]
        if failed or not (outs[0] and outs[0] == outs[1] == outs[2]):
            mismatched.append(argv[0])
        if failed and child_error is None:
            # The last line names the error: a one-line import failure, the
            # exception under a traceback, or the CLI's JSON error on stdout.
            lines = (failed[0].stderr or failed[0].stdout).decode(
                errors="replace").strip().splitlines()
            child_error = (f"{argv[0]} exited {failed[0].returncode}: "
                           f"{lines[-1] if lines else '(no output)'}")
    key_files = [(d / "key.txt").read_bytes() for d in workspaces
                 if (d / "key.txt").exists()]
    if len(key_files) != len(workspaces) or len(set(key_files)) != 1:
        mismatched.append("keygen-artifact")
    failure = f": FAILED {mismatched}" if mismatched else ""
    if child_error:
        failure += f"; {child_error}"
    _report(
        capfd, 7, not mismatched,
        "determinism: keygen/budget/divergence/attack byte-identical across "
        f"three reruns{failure}",
    )


def test_criterion_8_budget_monotonicity(capfd):
    """Safe-use count never drops as the threshold loosens; coverage never
    drops as uses grow."""
    zeta_ok = True
    for T, N in [(4, 2), (6, 3), (8, 2), (10, 4), (12, 6)]:
        answers = [
            max_safe_uses(N, T, z)
            for z in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        ]
        zeta_ok &= answers == sorted(answers)
    x_ok = True
    for T in range(2, 13):
        for N in range(1, T + 1):
            values = [coverage_exact_fraction(x, N, T) for x in range(0, 6)]
            x_ok &= all(a <= b for a, b in itertools.pairwise(values))
    _report(
        capfd, 8, zeta_ok and x_ok,
        "budget monotonicity: safe uses nondecreasing in threshold, "
        "coverage nondecreasing in uses over T<=12",
    )
