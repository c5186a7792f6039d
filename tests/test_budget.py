import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    coverage_enumeration,
    coverage_report_reference,
    max_safe_uses_reference,
    mc_block_reference,
    occupancy_reference,
    smallest_mask_reference,
    unseen_law_reference,
)
from stegogame import budget
from stegogame.budget import (
    coverage_exact_fraction,
    coverage_report,
    max_safe_uses,
    pr_coverage_mc,
)
from stegogame.errors import InvalidParams


class TestPublishedFormula:
    def test_single_term_case_is_exact(self):
        assert coverage_report(2, 2, 3).p_published == pytest.approx(2 / 3)

    def test_leaves_unit_interval(self):
        assert coverage_report(2, 2, 4).p_published == pytest.approx(-1 / 6)

    def test_x_zero_nonpositive(self):
        assert coverage_report(0, 2, 4).p_published <= 0.0

    def test_past_the_float_range_refused(self):
        # the published numerator is about -2**1100 times the denominator
        with pytest.raises(InvalidParams, match="outside the float range"):
            coverage_report(1, 1, 1100)

    def test_matches_exact_when_one_term(self):
        # a single subtraction term cannot overshoot; past one term the two
        # sums differ by twice the even terms from y = 2, all positive
        for T in range(1, 13):
            for N in range(1, T + 1):
                for x in range(8):
                    one_term = x >= 1 and T - N <= 1
                    rep = coverage_report(x, N, T)
                    assert rep.published_matches_exact == one_term, (T, N, x)
                    if one_term:
                        assert rep.p_published == rep.p_exact


class TestExactCoverage:
    def test_known_fractions(self):
        assert coverage_exact_fraction(2, 2, 3) == Fraction(2, 3)
        assert coverage_exact_fraction(2, 2, 4) == Fraction(1, 6)
        assert coverage_exact_fraction(3, 2, 4) == Fraction(19, 36)

    def test_full_draw_covers_instantly(self):
        for x in (1, 2, 7):
            assert coverage_report(x, 3, 3).p_exact == 1.0

    def test_no_observations_no_coverage(self):
        assert coverage_report(0, 2, 4).p_exact == 0.0
        assert coverage_report(0, 3, 3).p_exact == 0.0

    def test_single_use_below_full_is_zero(self):
        assert coverage_report(1, 2, 5).p_exact == 0.0

    def test_matches_enumeration_oracle(self):
        for T in range(1, 6):
            for N in range(1, T + 1):
                for x in range(0, 4):
                    assert coverage_exact_fraction(x, N, T) == coverage_enumeration(x, N, T), (
                        T,
                        N,
                        x,
                    )

    def test_report_float_is_the_rounded_fraction(self):
        # both are correctly rounded int / int divisions of the same numerator
        for T in (*range(1, 13), 40, 256):
            for N in {1, 2, T // 3, T - 1, T} & set(range(1, T + 1)):
                for x in (0, 1, 2, 3, 5, 8, 13, 40):
                    assert coverage_report(x, N, T).p_exact == float(
                        coverage_exact_fraction(x, N, T)
                    ), (T, N, x)

    @given(st.data())
    @settings(max_examples=60)
    def test_bounds_and_monotone_in_x(self, data):
        T = data.draw(st.integers(2, 10))
        N = data.draw(st.integers(1, T))
        x = data.draw(st.integers(0, 12))
        a = coverage_exact_fraction(x, N, T)
        b = coverage_exact_fraction(x + 1, N, T)
        assert 0 <= a <= 1
        assert a <= b

    def test_monotone_in_n(self):
        for T in (4, 7):
            for x in (1, 2, 3):
                values = [coverage_exact_fraction(x, N, T) for N in range(1, T + 1)]
                assert values == sorted(values)

    def test_nonincreasing_in_t(self):
        for N in (2, 3):
            for x in (2, 3):
                values = [coverage_exact_fraction(x, N, T) for T in range(N, 10)]
                assert values == sorted(values, reverse=True)

    def test_probe_below_full_coverage_does_not_sum(self, monkeypatch):
        # fewer than T covers seen in x draws: coverage is exactly 0
        def no_terms(*args):
            raise AssertionError("summed a probe whose coverage is 0")

        monkeypatch.setattr(budget, "_terms", no_terms)
        for x, N, T in [(1, 1, 2), (7, 4, 29), (31, 32, 1024), (42, 48, 2048)]:
            assert budget._coverage_below(x, N, T, 1, 2**60)

    @given(st.data())
    @settings(max_examples=60)
    def test_bonferroni_partial_sums_bracket(self, data):
        # the probe in max_safe_uses stops early on these bounds
        T = data.draw(st.integers(1, 10))
        N = data.draw(st.integers(1, T))
        x_cap = 1
        while x_cap < 8 and comb(T, N) ** (x_cap + 1) <= 4096:
            x_cap += 1
        x = data.draw(st.integers(1, x_cap))
        exact = coverage_enumeration(x, N, T)
        D = comb(T, N) ** x
        partial = 0
        for y, term in enumerate(budget._terms(x, N, T)):
            partial += (-1) ** y * term
            bound = Fraction(partial, D)
            assert bound <= exact if y % 2 else bound >= exact, (T, N, x, y)
        assert bound == exact

    def test_rejects_bad_params(self):
        for args in [(1, 0, 3), (1, 4, 3), (-1, 2, 3), (True, 2, 3), (1, True, 3), (1, 1, True)]:
            for route in (coverage_report, coverage_exact_fraction):
                with pytest.raises(InvalidParams):
                    route(*args)
        for args in [(True, 4, 0.4), (2, True, 0.4)]:
            with pytest.raises(InvalidParams):
                max_safe_uses(*args)


class TestMaxSafeUses:
    def test_known_answer(self):
        # coverage at x=2 is 1/6 < 0.2, at x=3 is 19/36 >= 0.2
        assert max_safe_uses(2, 4, 0.2) == 2

    def test_full_draw_never_safe(self):
        assert max_safe_uses(3, 3, 0.5) == 0

    def test_answer_brackets_threshold(self):
        for T, N, zeta in [(5, 2, 0.3), (6, 3, 0.1), (8, 2, 0.9)]:
            x = max_safe_uses(N, T, zeta)
            assert coverage_report(x, N, T).p_exact < zeta
            assert coverage_report(x + 1, N, T).p_exact >= zeta

    def test_monotone_in_zeta(self):
        for T, N in [(4, 2), (6, 3), (9, 4)]:
            answers = [max_safe_uses(N, T, z) for z in (0.05, 0.1, 0.25, 0.5, 0.9, 0.99)]
            assert answers == sorted(answers)

    def test_matches_reference_search(self):
        for T in range(1, 41):
            for N in range(1, T + 1):
                for zeta in (1e-12, 0.01, 0.4, 0.9, 0.999999):
                    assert max_safe_uses(N, T, zeta) == max_safe_uses_reference(N, T, zeta), (
                        T,
                        N,
                        zeta,
                    )

    @pytest.mark.parametrize("T, N, x_max", [(256, 16, 87), (512, 24, 131), (1024, 32, 221)])
    def test_large_libraries(self, T, N, x_max):
        assert max_safe_uses(N, T, 0.4) == x_max
        below = coverage_exact_fraction(x_max, N, T)
        assert below < Fraction(0.4) <= coverage_exact_fraction(x_max + 1, N, T)

    @pytest.fixture
    def probes(self, monkeypatch):
        """The x values ``max_safe_uses`` probes, in order."""
        seen = []
        below = budget._coverage_below
        monkeypatch.setattr(budget, "_coverage_below", lambda x, *args: seen.append(x) or below(x, *args))
        return seen

    @pytest.mark.parametrize("T, N", [(256, 16), (512, 24)])
    def test_probes_start_at_the_estimate(self, probes, T, N):
        # an exponential then binary search from x = 1 made 14 and 16 probes here
        x_max = max_safe_uses(N, T, 0.4)
        assert len(probes) <= 3, probes
        assert {x_max, x_max + 1} <= set(probes)

    @pytest.mark.parametrize("T, N, zeta, expected", [
        (64, 1, 1e-12, [54, 55, 57, 61, 69, 85, 117, 101, 93, 89, 87, 88]),
        (200, 1, 1e-12, [395, 396, 398, 402, 410, 426, 458, 442, 434, 438, 440, 441]),
    ])
    def test_probe_order_pinned(self, probes, T, N, zeta, expected):
        # the estimate, a gallop up in doubling steps, then a bisection of the
        # last step: the lists the earlier hand-written bisection loop probed
        assert max_safe_uses(N, T, zeta) == expected[-1] - 1
        assert probes == expected

    @pytest.mark.parametrize("T", [1, 2, 40, 4096])
    def test_all_covers_each_use_costs_two_probes(self, probes, T):
        # N = T: coverage(1) = 1 >= zeta, so the search stops at x = 0, whose coverage is 0
        assert max_safe_uses(T, T, 0.4) == 0
        assert len(probes) <= 2, probes

    @pytest.mark.parametrize("T, N, zeta", [
        (64, 1, 1e-12), (200, 1, 1e-12), (100, 2, 1e-12), (64, 1, 0.999999), (200, 100, 1e-12),
        (200, 100, 0.999999), (128, 127, 1e-12), (200, 199, 0.999999), (1000, 999, 0.4),
    ])
    def test_far_estimates_gallop_to_the_reference(self, T, N, zeta):
        # the estimate exp(-T (1 - N/T)**x) is furthest off at these extremes
        assert max_safe_uses(N, T, zeta) == max_safe_uses_reference(N, T, zeta)

    def test_estimate_past_the_float_range_falls_back(self):
        # Fraction(1, 10**400) rounds to 0.0, whose log is refused; the search
        # then starts at x = 1, as with no estimate
        assert max_safe_uses(1, 2, Fraction(1, 10**400)) == 1
        assert max_safe_uses(2, 4, Fraction(10**400 - 1, 10**400)) == max_safe_uses_reference(
            2, 4, Fraction(10**400 - 1, 10**400)
        )

    def test_rejects_degenerate_zeta(self):
        for zeta in (0.0, 1.0, -0.1, 1.5, float("nan"), "0.4", None, True, 0.5j):
            with pytest.raises(InvalidParams):
                max_safe_uses(2, 4, zeta)


class TestMonteCarlo:
    def test_deterministic(self):
        a = pr_coverage_mc(2, 2, 3, trials=20000, seed=7)
        b = pr_coverage_mc(2, 2, 3, trials=20000, seed=7)
        assert a == b

    def test_partition_invariant(self):
        # coverage_report still takes max_workers; the estimate must not depend on it
        a = pr_coverage_mc(3, 2, 5, trials=30000, seed=3)
        assert pr_coverage_mc(3, 2, 5, trials=30000, seed=3) == a
        for workers in (None, 1, 2, 4):
            r = coverage_report(3, 2, 5, 30000, 3, max_workers=workers)
            assert (r.p_mc, r.mc_se) == a

    def test_single_use_partial_draw_is_zero(self):
        est, se = pr_coverage_mc(1, 2, 4, trials=5000, seed=0)
        assert (est, se) == (0.0, 0.0)

    def test_matches_exact_within_error(self):
        for T, N, x in [(3, 2, 2), (4, 2, 3), (5, 3, 2)]:
            est, se = pr_coverage_mc(x, N, T, trials=40000, seed=11)
            assert abs(est - coverage_report(x, N, T).p_exact) <= 4 * se

    def test_unseen_chain_ends_at_exact_coverage(self):
        # the unseen-count chain _occupancy steps, against inclusion-exclusion
        for T in range(1, 9):
            for N in range(1, T + 1):
                for x in range(6):
                    law = unseen_law_reference(x, N, T)
                    assert sum(law.values()) == 1
                    assert law.get(0, 0) == coverage_exact_fraction(x, N, T), (T, N, x)

    @staticmethod
    def _chain(runs):
        """20,000 trials of the occupancy chain, in ``runs`` seeded runs: one
        run pools nearly every state into a multinomial, 250 runs of 80
        trials leave many states to their per-trial draws."""
        def sample(x, N, T):
            at = Counter()
            for seed in range(runs):
                states, counts = budget._occupancy(x, N, T, 20000 // runs, 2024 + seed)
                at.update(dict(zip(states.tolist(), counts.tolist())))
            return at
        return sample

    @staticmethod
    def _subsets(x, N, T):
        return Counter(mc_block_reference(x, N, T, 2024, 0, 20000).tolist())

    @pytest.mark.parametrize("sampler", [_chain(1), _chain(250), _subsets],
                             ids=["chain", "chain-small-runs", "subsets"])
    @pytest.mark.parametrize("x, N, T", [(3, 2, 5), (6, 3, 10), (14, 4, 20), (2, 5, 8), (40, 8, 64)])
    def test_unseen_law_chi_square(self, sampler, x, N, T):
        from scipy.stats import chisquare

        at = sampler(x, N, T)
        law = unseen_law_reference(x, N, T)
        assert set(at) <= set(law) and sum(at.values()) == 20000
        observed, expected, o, e = [], [], 0, 0.0
        for u in sorted(law):  # pool neighbouring cells until each expects >= 5
            o += at[u]
            e += float(law[u]) * 20000
            if e >= 5:
                observed.append(o)
                expected.append(e)
                o, e = 0, 0.0
        observed[-1] += o
        expected[-1] += e
        assert len(observed) >= 2
        assert chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("T", range(1, 65))
    def test_hit_rows_match_the_exact_law(self, T):
        for N in range(1, T + 1):
            D = comb(T, N)
            for u in range(T + 1):
                k, row = budget._hit_row(u, N, T)
                assert k.tolist() == list(range(max(0, N - T + u), min(N, u) + 1))
                exact = np.array([comb(u, j) * comb(T - u, N - j) / D for j in k.tolist()])
                assert np.all(np.abs(row - exact) <= 1e-13 * exact), (N, u)

    @pytest.mark.parametrize("trials", [4096, 150000])
    def test_wide_rows_bounded_in_time_and_memory(self, trials):
        # hit rows up to 5,001 cells wide, drawn per trial at 4,096 trials and
        # pooled at 150,000; the 32 MiB bound is the CLI's at T = 200,000
        pr_coverage_mc(1, 2, 4, trials=10, seed=0)  # numpy imported outside the bounds
        tracemalloc.start()
        try:
            start = time.perf_counter()
            est, se = pr_coverage_mc(12, 5000, 10000, trials=trials, seed=3)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 32 * 2**20
        assert 0.0 < est < 1.0 and se > 0.0

    def test_stops_once_every_trial_is_covered(self):
        start = time.perf_counter()
        assert pr_coverage_mc(10**7, 2, 4, trials=1000, seed=0) == (1.0, 0.0)
        assert time.perf_counter() - start < 1.0

    # (covered trials, covers left unseen over all trials) on the occupancy stream
    PINNED = {
        (14, 4, 20, 5, 4096): (1592, 3499), (40, 8, 64, 7, 512): (388, 143),
        (3, 1, 5, 1, 1000): (0, 2564), (10, 5, 5, 1, 100): (100, 0),
        (5, 19, 20, 2**127, 600): (600, 0), (8, 2, 16, 9, 777): (0, 4229),
    }

    @pytest.mark.parametrize("x, N, T, seed, trials", list(PINNED))
    def test_results_pinned(self, x, N, T, seed, trials):
        covered, unseen = self.PINNED[x, N, T, seed, trials]
        states, counts = budget._occupancy(x, N, T, trials, seed)
        assert int(states @ counts) == unseen
        p = covered / trials
        assert pr_coverage_mc(x, N, T, trials, seed) == (p, sqrt(p * (1 - p) / trials))

    # (x, N, T, trials): no single state, then single states drawn one call each,
    # from a few a run to hundreds in the wide rows at T = 10000
    REFERENCE_GRID = [
        (3, 2, 5, 30000), (4, 3, 6, 100000), (10, 5, 5, 100), (5, 19, 20, 2**62),
        (6, 3, 10, 20000), (8, 2, 16, 777), (14, 4, 20, 10**15), (40, 8, 64, 512), (40, 8, 64, 8192),
        (30, 20, 200, 600), (12, 5000, 10000, 4096), (12, 5000, 10000, 150000), (6, 5000, 10000, 10**15),
    ]

    @staticmethod
    def _counting_hypergeometric(monkeypatch):
        """Patch numpy's Generator so that each ``hypergeometric`` call records
        whether its parameters were scalars."""
        calls, real = [], np.random.Generator

        def hypergeometric(self, ngood, nbad, nsample, size=None):
            calls.append(np.ndim(ngood) == np.ndim(nbad) == np.ndim(nsample) == 0)
            return real.hypergeometric(self, ngood, nbad, nsample, size)

        monkeypatch.setattr(np.random, "Generator", type("Counting", (real,), {"hypergeometric": hypergeometric}))
        return calls

    def test_occupancy_matches_the_array_call_reference(self, monkeypatch):
        """State for state and count for count, the chain draws as the reference
        that draws every use's single trials in one array call, on a grid whose
        runs draw no single state, a few, and hundreds; every call it makes
        has scalar parameters."""
        calls = self._counting_hypergeometric(monkeypatch)
        drawn = {}
        for x, N, T, trials in self.REFERENCE_GRID:
            for seed in (0, 7) if T < 1000 else (3,):  # the wide points take about 0.5 s a run
                calls.clear()
                states, counts = budget._occupancy(x, N, T, trials, seed)
                drawn[x, N, T, trials, seed] = list(calls)
                expected = occupancy_reference(x, N, T, trials, seed)
                assert (states.tolist(), counts.tolist()) == (expected[0].tolist(), expected[1].tolist()), (x, N, T)
                assert states.dtype == counts.dtype == np.int64
        assert drawn[3, 2, 5, 30000, 0] == drawn[5, 19, 20, 2**62, 7] == []
        assert len(drawn[12, 5000, 10000, 4096, 3]) > 500
        assert all(all(run) for run in drawn.values())

    @pytest.mark.parametrize("x, N, T, trials, seed", [
        (5, 19, 20, 2**62, 7), (14, 4, 20, 2**62, 0), (14, 4, 20, (1 << 63) - 1, 0),
        (40, 8, 64, (1 << 63) - 1, 7), (12, 5000, 10000, 4096, 3),
    ])
    def test_merge_by_sort_matches_unique_and_add_at(self, x, N, T, trials, seed):
        """Each use's merge by one argsort and ``np.add.reduceat`` gives the
        states and counts of the reference's ``np.unique`` and ``np.add.at``:
        exact in int64 up to (1 << 63) - 1 trials, and in the wide rows at
        T = 10000.  The same call twice in a row gives them again, so the
        cached next-state arrays are read and never written."""
        expected = occupancy_reference(x, N, T, trials, seed)
        for _ in range(2):
            states, counts = budget._occupancy(x, N, T, trials, seed)
            assert (states.tolist(), counts.tolist()) == (expected[0].tolist(), expected[1].tolist())
            assert sum(counts.tolist()) == trials
        assert len(states) > 1

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_scalar_calls_draw_as_one_array_call(self, data):
        """numpy's ``hypergeometric(u, T - u, N, size=c)`` per state, in
        ascending u, draws the values of one call over the states repeated c
        times, and leaves Philox at the same word."""
        T = data.draw(st.integers(1, 10**9 - 1))
        N = data.draw(st.integers(1, T))
        us = sorted(data.draw(st.sets(st.integers(0, T), min_size=1, max_size=16)))
        cs = data.draw(st.lists(st.integers(1, 6), min_size=len(us), max_size=len(us)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        one, each = (np.random.Generator(np.random.Philox(key=seed)) for _ in range(2))
        single = np.repeat(np.array(us, dtype=np.int64), cs)
        expected = one.hypergeometric(single, T - single, N)
        got = np.concatenate([each.hypergeometric(u, T - u, N, size=c) for u, c in zip(us, cs)])
        assert got.tolist() == expected.tolist()
        assert each.bit_generator.random_raw() == one.bit_generator.random_raw()

    @pytest.mark.parametrize("levels", [2, 3, 8])
    @pytest.mark.parametrize("N", [1, 2, 4, 7, 8])
    def test_reference_selection_on_ties(self, N, levels):
        """The literal-subset oracle marks N cells per row, none of them
        above an unmarked one, also where the N-th smallest value is tied."""
        u = np.random.default_rng(N * 10 + levels).integers(0, levels, size=(300, 8)) / levels
        mask = smallest_mask_reference(u, N)
        assert (mask.sum(axis=1) == N).all()
        marked_max = np.where(mask, u, -np.inf).max(axis=1)
        assert (marked_max <= np.where(mask, np.inf, u).min(axis=1)).all()

    def test_refuses_t_past_the_hypergeometric_limit(self):
        assert pr_coverage_mc(1, 10**9 - 1, 10**9 - 1, trials=3, seed=0) == (1.0, 0.0)
        for route in (pr_coverage_mc, coverage_report):  # before any O(T) work
            with pytest.raises(InvalidParams, match="T must be at most 999999999, got 1000000000"):
                route(1, 1, 10**9, 3, 0)

    def test_rejects_bad_trials(self):
        for trials in (0, 10.5, True, "5", 2**63):  # the occupancy counts in int64
            with pytest.raises(InvalidParams):
                pr_coverage_mc(1, 2, 3, trials=trials, seed=0)

    def test_rejects_bad_workers_before_any_block(self, monkeypatch):
        monkeypatch.setattr(budget, "_occupancy", None)
        for workers in (0, -1, 2.0, "2"):
            with pytest.raises(InvalidParams, match="max_workers"):
                coverage_report(3, 2, 4, 9000, 1, max_workers=workers)


class TestParamsAndReport:
    def test_report_flags_published_flaw(self):
        rep = coverage_report(2, 2, 4)
        assert rep.p_published == pytest.approx(-1 / 6)
        assert rep.p_exact == pytest.approx(1 / 6)
        assert not rep.published_in_range
        assert not rep.published_matches_exact

    def test_report_walks_the_terms_once(self, monkeypatch):
        walks = []
        terms = budget._terms

        def counted(x, N, T):
            walks.append((x, N, T))
            return terms(x, N, T)

        monkeypatch.setattr(budget, "_terms", counted)
        rep = coverage_report(3, 2, 5, mc_trials=1000, seed=1)
        assert walks == [(3, 2, 5)]
        assert rep.p_exact == float(coverage_exact_fraction(3, 2, 5))

    def test_report_matches_the_full_walk(self):
        # every field bit for bit, though the walk stops once they are settled
        points = [(x, N, T) for T in range(1, 17) for N in range(1, T + 1) for x in range(25)]
        for x, N, T in [*points, (131, 24, 512), (221, 32, 1024), (3000, 1, 1100), (0, 60, 100)]:
            rep = coverage_report(x, N, T)
            published, exact, *flags = coverage_report_reference(x, N, T)
            assert (rep.p_published.hex(), rep.p_exact.hex(), rep.published_in_range,
                    rep.published_matches_exact) == (published.hex(), exact.hex(), *flags), (x, N, T)

    def test_report_stops_once_settled(self, monkeypatch):
        # a full walk draws all 1,953 terms at this point
        drawn = []
        terms = budget._terms

        def counted(x, N, T):
            for term in terms(x, N, T):
                drawn.append(term)
                yield term

        monkeypatch.setattr(budget, "_terms", counted)
        rep = coverage_report(325, 48, 2048)
        assert len(drawn) <= 25
        # the full walk's values, as GOLDEN_BUDGET's T = 2048 row prints them
        assert (rep.p_published, rep.p_exact) == (-0.5050529155234735, 0.3977460185851574)

    def test_report_flags_agreement(self):
        rep = coverage_report(2, 2, 3, mc_trials=20000, seed=5)
        assert rep.published_matches_exact
        assert rep.published_in_range
        assert rep.mc_within_4se
