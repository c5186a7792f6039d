"""security-eval: the analysis calls an evaluator runs, in process.

One op is one public call from a fixed job list: two safe-use budgets, a
coverage report with a Monte-Carlo cross-check, threshold calibration plus
a distinguishability test, three detection games, a recovery game and an
adaptive loop.  Every game runs on a synthetic scenario with T=16, N=4, so
the codec only runs at small T.  The seed picks the scenario corpora, the
samples and every game and Monte-Carlo seed; a run repeats the same job list
each cycle, and every repetition must return what the first one did.

Verdict checks use alpha=1e-4 and a permutation null taken at its maximum
over 4000 resplits, so a correct program fails them with probability below
1e-3 per run.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from common import WORKERS, Op, check

REPEATS = 3
ZETA = 0.4
BUDGETS = ((256, 16), (512, 24))
COVERAGE = (40, 8, 64)  # x, N, T
# Sized so that max_safe_uses at T=256 (fixed input, no seed) is the median
# job with a clear gap on either side: the coverage report and the CCA game
# run well under it, the recovery game well over it.  Otherwise the median
# would flip between two jobs from run to run.
MC_TRIALS = 8192
GAME_T, GAME_N = 16, 4
DETECTION_TRIALS = 100
CCA_TRIALS = 150
RECOVERY_TRIALS = 1600
ALPHA = 1e-4
NULL_RUNS = 4000
SAMPLES = 500


class SecurityEval:
    name = "security-eval"
    min_cycles = REPEATS
    setup_imports = ("stegogame.attackgame", "stegogame.budget", "stegogame.divergence")
    kernel = "python"  # ops are in-process compute

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first: dict[str, object] = {}

    def build(self, rep: int) -> None:
        import numpy as np
        from stegogame import attackgame

        rng = random.Random(self.seed)
        self.seeds = {name: rng.getrandbits(32) for name in (
            "scoa", "kca", "cca", "recovery", "acca", "mc", "null", "world1", "world2", "world3",
        )}
        self.scoa = attackgame.synthetic_scenario(GAME_T, GAME_N, seed=self.seeds["world1"])
        self.kca = attackgame.synthetic_scenario(
            GAME_T, GAME_N, disjoint_world=True, leak_fraction=1.0, seed=self.seeds["world2"]
        )
        self.cca = attackgame.synthetic_scenario(
            GAME_T, GAME_N, leak_fraction=0.25, seed=self.seeds["world3"]
        )
        self.acca = attackgame.synthetic_scenario(
            GAME_T, GAME_N, seed=self.seeds["world3"], leak_growth=0.25, rounds=5,
            observations=0, oracle_embed_budget=0, oracle_extract_budget=0,
        )
        gen = np.random.Generator(np.random.Philox(key=rng.getrandbits(64)))
        pooled = gen.normal(size=2 * SAMPLES)
        self.split = (pooled[:SAMPLES].tolist(), pooled[SAMPLES:].tolist())

    def cycle(self, index: int):
        from stegogame import attackgame, budget, divergence
        from stegogame.attackgame import AttackLevel

        s = self.seeds
        jobs = [
            *(Op(f"max_safe_uses.T{T}N{N}", functools.partial(_max_safe_uses, budget, N, T),
                 self._same(f"max_safe_uses.T{T}N{N}", _bracketed(budget, T, N)))
              for T, N in BUDGETS),
            Op("coverage_report", lambda: budget.coverage_report(
                *COVERAGE, mc_trials=MC_TRIALS, seed=s["mc"], max_workers=WORKERS),
               self._same("coverage_report", _check_coverage)),
            Op("calibrate+distinguish", lambda: _calibrate_and_test(divergence, *self.split, s["null"]),
               self._same("calibrate+distinguish", _check_indistinguishable)),
            Op("game.scoa-histogram", lambda: attackgame.run_game(
                self.scoa, attackgame.SCOAHistogram(), AttackLevel.SCOA, DETECTION_TRIALS,
                s["scoa"], alpha=ALPHA, max_workers=WORKERS),
               self._same("game.scoa-histogram", _expect_verdict("resists"))),
            Op("game.kca-membership", lambda: attackgame.run_game(
                self.kca, attackgame.KCAMembership(), AttackLevel.KCA, DETECTION_TRIALS,
                s["kca"], alpha=ALPHA, max_workers=WORKERS),
               self._same("game.kca-membership", _expect_verdict("broken"))),
            Op("game.cca-replay", lambda: attackgame.run_game(
                self.cca, attackgame.CCAReplay(), AttackLevel.CCA, CCA_TRIALS,
                s["cca"], alpha=ALPHA, max_workers=WORKERS),
               self._same("game.cca-replay", _check_detection(CCA_TRIALS))),
            Op("game.recovery-random", lambda: attackgame.message_recovery_game(
                self.scoa, attackgame.RandomGuesser(), AttackLevel.SCOA, RECOVERY_TRIALS,
                s["recovery"], alpha=ALPHA),
               self._same("game.recovery-random", _check_keyless_recovery)),
            Op("game.acca-cca-replay", lambda: attackgame.acca_loop(
                self.acca, attackgame.CCAReplay(), DETECTION_TRIALS, s["acca"], alpha=ALPHA),
               self._same("game.acca-cca-replay", _check_acca)),
        ]
        return jobs

    def _same(self, job: str, first_check=None):
        """Check the first result of a job, and that repeats match it."""

        def verify(result):
            if job not in self.first:
                if first_check is not None:
                    first_check(result)
                self.first[job] = result
            else:
                check(result == self.first[job], f"{job}: result differs from the first repetition")

        return verify


def _max_safe_uses(budget, N: int, T: int) -> int:
    # looked up at call time, so that the traced half of a pair calls the wrapper
    return budget.max_safe_uses(N, T, ZETA)


def _bracketed(budget, T: int, N: int):
    """x_max is right when exact coverage is below zeta at x_max and not
    below it at x_max+1 (checked outside the timed region)."""

    def verify(x) -> None:
        bound = Fraction(ZETA)
        below = budget.coverage_exact_fraction(x, N, T)
        above = budget.coverage_exact_fraction(x + 1, N, T)
        check(below < bound <= above, f"T={T}, N={N}: x_max={x} not bracketed by exact coverage")

    return verify


def _calibrate_and_test(divergence, a, b, seed):
    """(epsilon, value, verdict); the report's own elapsed time is left out
    so that repetitions compare equal."""
    epsilon = divergence.calibrate_epsilon(a, b, runs=NULL_RUNS, percentile=100.0, seed=seed)
    report = divergence.distinguishability_test(a, b, epsilon)
    return epsilon, report.value, report.verdict


def _check_indistinguishable(result) -> None:
    epsilon, value, verdict = result
    check(verdict == "indistinguishable-at-epsilon",
          f"i.i.d. split called {verdict} (value {value}, epsilon {epsilon})")


def _check_coverage(report) -> None:
    check(report.mc_within_4se is True, "coverage_report flags the MC estimate outside 4 SE")
    check(abs(report.p_mc - report.p_exact) <= 4 * report.mc_se,
          f"MC estimate {report.p_mc} more than 4 SE from exact {report.p_exact}")


def _expect_verdict(verdict: str):
    counts = _check_detection(DETECTION_TRIALS)

    def verify(result) -> None:
        counts(result)
        check(result.verdict == verdict, f"{result.level} verdict {result.verdict}, expected {verdict}")

    return verify


def _check_detection(trials: int):
    def verify(result) -> None:
        check(result.trials == trials and 0 <= result.successes <= result.trials,
              f"detection game counts out of range: {result}")

    return verify


def _check_keyless_recovery(result) -> None:
    check(0.47 <= result.success_rate <= 0.53,
          f"keyless per-bit agreement {result.success_rate} outside [0.47, 0.53]")


def _check_acca(results) -> None:
    check(bool(results), "acca_loop returned no rounds")
    check([r.round_index for r in results] == list(range(len(results))), "acca rounds out of order")
    check(all(r.verdict == "resists" for r in results[:-1]), "acca_loop ran on past a broken round")
    check(results[-1].verdict == "broken", "full library leak did not break the acca loop")
