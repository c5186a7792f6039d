from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    coverage_enumeration,
    max_safe_uses_reference,
    mc_block_reference,
    smallest_mask_reference,
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
        a = pr_coverage_mc(3, 2, 5, trials=30000, seed=3, max_workers=1)
        b = pr_coverage_mc(3, 2, 5, trials=30000, seed=3, max_workers=4)
        assert a == b

    def test_single_use_partial_draw_is_zero(self):
        est, se = pr_coverage_mc(1, 2, 4, trials=5000, seed=0)
        assert (est, se) == (0.0, 0.0)

    def test_matches_exact_within_error(self):
        for T, N, x in [(3, 2, 2), (4, 2, 3), (5, 3, 2)]:
            est, se = pr_coverage_mc(x, N, T, trials=40000, seed=11)
            assert abs(est - coverage_report(x, N, T).p_exact) <= 4 * se

    @pytest.mark.parametrize("levels", [2, 3, 8])
    @pytest.mark.parametrize("N", [1, 2, 4, 7, 8])
    def test_selection_matches_argpartition_on_ties(self, N, levels):
        """Rows tied at their N-th smallest value take argpartition's cells;
        the rest mark every value up to it, which are the same cells."""
        u = np.random.default_rng(N * 10 + levels).integers(0, levels, size=(300, 8)) / levels
        out = np.empty(u.shape, dtype=bool)
        budget._mark_smallest(u, N, out)
        assert np.array_equal(out, smallest_mask_reference(u, N))
        assert (out.sum(axis=1) == N).all()

    @pytest.mark.parametrize(
        "x, N, T, seed, block_index, size",
        [(14, 4, 20, 5, 0, 4096), (40, 8, 64, 7, 1, 512), (3, 1, 5, 1, 2, 1000),
         (10, 5, 5, 1, 1, 100), (5, 19, 20, 2**127, 0, 600), (8, 2, 16, 9, 9, 777)],
    )
    def test_block_counts_match_reference(self, x, N, T, seed, block_index, size):
        assert budget._mc_block(x, N, T, seed, block_index, size) == mc_block_reference(
            x, N, T, seed, block_index, size
        )

    def test_rejects_bad_trials(self):
        for trials in (0, 10.5, True, "5"):
            with pytest.raises(InvalidParams):
                pr_coverage_mc(1, 2, 3, trials=trials, seed=0)


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

    def test_report_flags_agreement(self):
        rep = coverage_report(2, 2, 3, mc_trials=20000, seed=5)
        assert rep.published_matches_exact
        assert rep.published_in_range
        assert rep.mc_within_4se
