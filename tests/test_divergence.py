import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

from stegogame import divergence
from stegogame.divergence import (
    CHUNK_CELLS,
    MAX_BINS,
    MAX_RUNS,
    METRICS,
    STREAM_RUNS,
    EmpiricalDistribution,
    VERDICT_DISTINGUISHABLE,
    VERDICT_INDISTINGUISHABLE,
    calibrate_epsilon,
    distinguishability_test,
    estimate_distribution,
    js,
    kl,
    tv,
    w1,
)
from stegogame.errors import BinMismatch, EmptySamples, InvalidParams

from helpers import (
    calibrate_epsilon_reference,
    js_1d,
    js_fixed_1d,
    kl_1d,
    kl_fixed_1d,
    metric_1d,
    null_values_reference,
    permutation_null_reference,
    tv_1d,
    tv_fixed_1d,
    w1_1d,
)

LN2 = math.log(2)


def dist(masses, edges=None):
    masses = np.asarray(masses, dtype=float)
    if edges is None:
        edges = np.arange(masses.size + 1, dtype=float)
    return EmpiricalDistribution(edges=edges, masses=masses, n_samples=100)


@st.composite
def mass_pairs(draw, bins=6):
    def masses():
        raw = draw(
            st.lists(st.floats(0.01, 1.0), min_size=bins, max_size=bins)
        )
        arr = np.asarray(raw)
        return arr / arr.sum()

    return masses(), masses()


class TestEstimator:
    def test_identical_samples_one_bin(self):
        d = estimate_distribution([3.5, 3.5, 3.5, 3.5], bins=2)
        assert sorted(d.masses) == [0.0, 1.0]
        assert d.n_samples == 4

    def test_two_point_split(self):
        d = estimate_distribution([0.0, 1.0], bins=2, support=(0.0, 1.0))
        assert d.masses.tolist() == [0.5, 0.5]

    def test_uniform_masses_concentrate(self):
        gen = np.random.Generator(np.random.Philox(key=1))
        d = estimate_distribution(gen.random(10_000), bins=10, support=(0.0, 1.0))
        assert np.all(np.abs(d.masses - 0.1) < 0.015)

    def test_empty_rejected(self):
        with pytest.raises(EmptySamples):
            estimate_distribution([], bins=4)

    def test_all_samples_out_of_support(self):
        with pytest.raises(EmptySamples):
            estimate_distribution([5.0, 6.0], bins=4, support=(0.0, 1.0))

    def test_bad_bins(self):
        for bins in (0, -1, True, 2.5, "4", None):
            with pytest.raises(InvalidParams):
                estimate_distribution([1.0], bins=bins)

    @pytest.mark.parametrize("entry", [
        lambda bins: estimate_distribution([0.0, 1.0], bins=bins),
        lambda bins: distinguishability_test([0.0, 1.0], [0.5, 2.0], 0.1, bins=bins),
        lambda bins: calibrate_epsilon([0.0, 1.0], [0.5, 2.0], metric="kl", bins=bins, runs=20),
    ], ids=["estimate_distribution", "distinguishability_test", "calibrate_epsilon"])
    def test_bins_at_most_max_bins(self, entry, monkeypatch):
        """``MAX_BINS`` bins are accepted; more are refused, naming the limit,
        before ``np.histogram`` allocates anything."""
        entry(MAX_BINS)
        monkeypatch.setattr(np, "histogram", lambda *args, **kwargs: pytest.fail("allocated"))
        for bins in (MAX_BINS + 1, 400_000_000, 10**30):
            with pytest.raises(InvalidParams, match=f"bins must be at most {MAX_BINS}, got {bins}"):
                entry(bins)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, bad):
        for support in (None, (0.0, 2.0)):
            with pytest.raises(InvalidParams, match="finite"):
                estimate_distribution([1.0, bad], bins=2, support=support)

    def test_reversed_support_refused(self):
        with pytest.raises(InvalidParams, match="support"):
            estimate_distribution([1.0, 1.5], bins=2, support=(2.0, 1.0))

    @pytest.mark.parametrize(
        "support", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_non_finite_support_refused(self, support):
        with pytest.raises(InvalidParams, match="support"):
            estimate_distribution([0.5], bins=2, support=support)

    @pytest.mark.parametrize(
        "support", [(0, 10**400), ("a", 3), (True, 3.0), (1.0,), (0.0, 1.0, 2.0), 2.0, "ab", {0.0: 1.0}],
        ids=["past-float-range", "str", "bool", "one-end", "three-ends", "scalar", "str-pair", "dict"],
    )
    def test_support_not_a_pair_of_finite_reals_refused(self, support):
        with pytest.raises(InvalidParams, match="support must be a pair of finite real numbers, got "):
            estimate_distribution([0.5], bins=2, support=support)

    def test_real_support_ends_accepted(self):
        """Any finite real ends, taken as floats: the same bins as (0.0, 2.0)."""
        masses = estimate_distribution([0.5, 1.5, 1.7], bins=2, support=(0.0, 2.0)).masses.tolist()
        for support in ([0, 2], (np.float32(0), np.int64(2)), (Fraction(0), Fraction(4, 2))):
            assert estimate_distribution([0.5, 1.5, 1.7], bins=2, support=support).masses.tolist() == masses

    def test_equal_support_bounds_widen(self):
        d = estimate_distribution([1.0, 1.0, 3.0], bins=2, support=(1.0, 1.0))
        assert d.edges.tolist() == [0.5, 1.0, 1.5]
        assert d.masses.tolist() == [0.0, 1.0] and d.n_samples == 2

    def test_distribution_validation(self):
        with pytest.raises(InvalidParams):
            dist([0.5, 0.6])
        with pytest.raises(InvalidParams):
            EmpiricalDistribution(
                edges=np.array([0.0, 1.0, 0.5]),
                masses=np.array([0.5, 0.5]),
                n_samples=1,
            )
        for bad in ([math.nan, math.nan], [math.inf, 0.0], [0.5, math.nan]):
            with pytest.raises(InvalidParams):
                EmpiricalDistribution(edges=[0, 1, 2], masses=bad, n_samples=3)
        with pytest.raises(InvalidParams):  # w1 would read nan on these
            EmpiricalDistribution(edges=[-math.inf, 0, math.inf], masses=[0.5, 0.5], n_samples=2)

    def test_n_samples_at_most_2_to_62(self):
        """KL's fixed-point total stays below ln(2 n_q + bins) < 64 units of
        2**57 only for bounded sample counts: 2**62 is the most a
        distribution may count, and KL there is still ln(2n) = ln 2**63."""
        p, q = (EmpiricalDistribution([0.0, 1.0, 2.0], masses, 2**62) for masses in ([1.0, 0.0], [0.0, 1.0]))
        assert kl(p, q) == pytest.approx(63 * LN2, rel=1e-12)
        with pytest.raises(InvalidParams, match=f"n_samples must be at most {2**62}, got {2**62 + 1}"):
            EmpiricalDistribution([0.0, 1.0], [1.0], 2**62 + 1)



class TestMetricIdentities:
    def test_self_distance_zero_exact(self):
        p = dist([0.25, 0.5, 0.25])
        assert kl(p, p) == 0.0
        assert js(p, p) == 0.0
        assert tv(p, p) == 0.0
        assert w1(p, p) == 0.0

    def test_js_hand_computed(self):
        # P=(1,0), Q=(1/2,1/2): mid=(3/4,1/4);
        # JS = 0.5*ln(4/3) + 0.25*ln(2/3) + 0.25*ln(2)
        expected = 0.5 * math.log(4 / 3) + 0.25 * math.log(2 / 3) + 0.25 * LN2
        got = js(dist([1.0, 0.0]), dist([0.5, 0.5]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert tv(dist([1.0, 0.0]), dist([0.5, 0.5])) == pytest.approx(0.5)

    def test_disjoint_support_maximal(self):
        p, q = dist([1.0, 0.0]), dist([0.0, 1.0])
        assert js(p, q) == pytest.approx(LN2, abs=1e-12)
        assert tv(p, q) == 1.0

    def test_kl_asymmetry_witness(self):
        p = dist([0.9, 0.1])
        q = dist([0.5, 0.5])
        assert kl(p, q) != kl(q, p)

    def test_kl_finite_despite_zeros(self):
        value = kl(dist([1.0, 0.0]), dist([0.0, 1.0]))
        assert math.isfinite(value) and value > 0

    def test_w1_point_masses(self):
        # edges 0..4 -> centers 0.5, 1.5, 2.5, 3.5
        p = dist([1.0, 0.0, 0.0, 0.0])
        q = dist([0.0, 0.0, 0.0, 1.0])
        assert w1(p, q) == pytest.approx(3.0)

    def test_bin_mismatch(self):
        p = dist([0.5, 0.5])
        q = dist([0.5, 0.5], edges=np.array([0.0, 2.0, 4.0]))
        for metric in (kl, js, tv, w1):
            with pytest.raises(BinMismatch):
                metric(p, q)

    # the same masses normalised two ways differ in the last bits; unclamped,
    # js and kl both came out near -1e-18 here
    _NEAR_EQUAL = np.array([0.64, 0.28, 0.05, 0.03, 0.82, 0.91])

    @given(mass_pairs())
    @example((_NEAR_EQUAL / _NEAR_EQUAL.sum(), 3 * _NEAR_EQUAL / (3 * _NEAR_EQUAL).sum()))
    @settings(max_examples=100)
    def test_bounds_and_symmetry(self, pair):
        p, q = (dist(m) for m in pair)
        assert 0 <= js(p, q) <= LN2 + 1e-12
        assert 0 <= tv(p, q) <= 1
        assert kl(p, q) >= 0
        assert w1(p, q) >= 0
        assert js(p, q) == pytest.approx(js(q, p), abs=1e-12)
        assert tv(p, q) == pytest.approx(tv(q, p), abs=1e-12)
        assert w1(p, q) == pytest.approx(w1(q, p), abs=1e-12)


class TestDistinguishability:
    def test_identical_sample_sets_all_zero(self):
        samples = list(np.linspace(0, 1, 64))
        for metric in ("kl", "js", "tv", "w1"):
            report = distinguishability_test(samples, list(samples), epsilon=1e-9, metric=metric)
            assert report.value == 0.0
            assert report.verdict == VERDICT_INDISTINGUISHABLE

    def test_uniform_vs_point_mass(self):
        gen = np.random.Generator(np.random.Philox(key=2))
        a = gen.random(2000)
        b = np.full(2000, 0.5)
        report = distinguishability_test(a, b, epsilon=0.05, metric="js")
        assert report.verdict == VERDICT_DISTINGUISHABLE

    def test_epsilon_must_be_finite(self):
        with pytest.raises(InvalidParams):
            distinguishability_test([1.0], [2.0], epsilon=math.inf)

    @pytest.mark.parametrize("bad", ["0.1", None, True, False, 1j, [0.1]])
    def test_epsilon_must_be_a_real_number(self, bad):
        with pytest.raises(InvalidParams, match="epsilon"):
            distinguishability_test([1.0], [2.0], epsilon=bad)

    @pytest.mark.parametrize("epsilon", [1, np.float32(0.25), np.int64(2)])
    def test_real_epsilon_types_accepted(self, epsilon):
        report = distinguishability_test([1.0, 2.0], [1.5, 2.5], epsilon=epsilon)
        assert report.epsilon == epsilon

    def test_empty_samples(self):
        with pytest.raises(EmptySamples):
            distinguishability_test([], [1.0], epsilon=0.1)

    def test_elapsed_recorded(self):
        report = distinguishability_test([1.0, 2.0], [1.5, 2.5], epsilon=10.0)
        assert report.elapsed >= 0.0
        assert report.n_a == report.n_b == 2

    def test_unknown_metric(self):
        with pytest.raises(InvalidParams):
            distinguishability_test([1.0], [2.0], epsilon=0.1, metric="hellinger")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_refused(self, bad):
        with pytest.raises(InvalidParams, match="finite"):
            distinguishability_test([1.0, bad], [2.0], epsilon=0.1)
        with pytest.raises(InvalidParams, match="finite"):
            calibrate_epsilon([1.0, 2.0], [bad], runs=4)


MALFORMED = [["a"], [1 + 2j], None, [[1.0], [2.0, 3.0]]]


class TestMalformedSamples:
    """Samples that are not an array of real numbers, or two sides that
    cannot be pooled, raise InvalidParams, never a bare numpy error."""

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_estimate_distribution(self, bad):
        with pytest.raises(InvalidParams):
            estimate_distribution(bad, bins=4)

    @pytest.mark.parametrize("bad", [*MALFORMED, [[1.0, 2.0]], 3.0])
    @pytest.mark.parametrize("side", [0, 1])
    def test_pooled_calls(self, bad, side):
        """Each malformed side, a 2-D side beside a 1-D one, and a scalar."""
        pair = [[1.0, 2.5], [1.5, 2.0]]
        pair[side] = bad
        with pytest.raises(InvalidParams):
            distinguishability_test(*pair, epsilon=0.1)
        with pytest.raises(InvalidParams):
            calibrate_epsilon(*pair, runs=4)

    @pytest.mark.parametrize(
        "bad",
        [np.array([1 + 2j, 3 + 0j]), np.array([[1j], [2.0]]), np.complex128(3 + 0j), [np.complex128(1 + 2j)]],
        ids=["array", "2d-array", "scalar", "list-of-scalars"],
    )
    def test_complex_samples(self, bad):
        """Complex samples are refused before the cast to float, which would
        keep the real parts and warn with an untyped ``ComplexWarning``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match="real numbers"):
                estimate_distribution(bad, bins=4)
            for pair in ((bad, [1.0, 2.0]), ([1.0, 2.0], bad)):
                with pytest.raises(InvalidParams, match="real numbers"):
                    distinguishability_test(*pair, epsilon=0.1)
                with pytest.raises(InvalidParams, match="real numbers"):
                    calibrate_epsilon(*pair, runs=4)

    def test_range_that_bins_cannot_cut(self, monkeypatch):
        """A range too narrow for 64 finite, strictly increasing bins is
        refused by each entry point.  numpy 2's ``np.histogram`` raises
        ValueError there; older numpy returns the repeated edges, as the
        stand-in below does, and they are refused.  A range past the float
        range is refused too, after numpy's overflow warning."""
        pair, histogram = ([1.0], [1.0000000000000002]), np.histogram

        def old_numpy(arr, bins, range):
            edges = np.linspace(*(range or (arr.min(), arr.max())), bins + 1)
            return histogram(arr, bins=edges)[0], edges

        for stand_in in (histogram, old_numpy):
            monkeypatch.setattr(np, "histogram", stand_in)
            with pytest.raises(InvalidParams, match="finite"):
                estimate_distribution(pair[0] + pair[1], bins=64)
            with pytest.raises(InvalidParams, match="finite"):
                distinguishability_test(*pair, epsilon=0.1)
            with pytest.raises(InvalidParams, match="finite"):
                calibrate_epsilon(*pair, runs=4)
        monkeypatch.undo()
        with pytest.warns(RuntimeWarning), pytest.raises(InvalidParams, match="finite bins"):
            calibrate_epsilon([-1.7e308], [1.7e308], runs=4)

    def test_inputs_that_work_stay(self):
        """A 2-D array and a scalar histogram flattened; decimal strings
        parse; 2-D sides alike past the first axis pool."""
        assert estimate_distribution([[1.0, 2.0], [3.0, 4.0]], 3).masses.tolist() == [0.25, 0.25, 0.5]
        assert estimate_distribution(5.0, 2).n_samples == 1
        assert distinguishability_test(["1.5", "2"], [1.5, 2.0], epsilon=0.1).value == 0.0
        report = distinguishability_test([[1.0, 2.0], [3.0, 4.0]], [[1.5, 2.5]], epsilon=0.1)
        assert (report.n_a, report.n_b) == (4, 2)
        assert calibrate_epsilon([[1.0, 2.0]], [[1.5, 2.5]], runs=4) >= 0.0


def js_bound(k):
    """How far ``_js`` may lie from the float sum ``js_1d`` over k cells: the
    terms' rounding to 2**-60, at most k * 2**-61, plus the float sum's own
    order error, below 4 * k * 2**-53 since each side's |terms| sum to at most 2."""
    return k * 2.0**-61 + 4 * k * 2.0**-53


def float_bound(metric, p, q, value):
    """How far ``METRICS[metric]`` over ``bins`` bins may lie from the earlier
    float kernel, ``value`` being the fixed-point one:

    - KL: each bin's term rounded to 2**-57, the empty bins' one term
      ``bins - k`` times, so at most bins * 2**-58; and the divisor
      ``1 + bins/(2n)`` in place of the smoothed masses' float sum, which
      differs from it by about bins * 2**-53, each side moving the value by
      that times at most 2 + the terms' absolute sum, below ln(2 n_q + bins);
    - TV: k * 2**-61 of rounding, plus the float sum's order error, at most
      bins * 2**-53 times the value;
    - W1: k * 2**-61 of rounding in units of the edges' span; and, relative
      to the value, the float sum's order error, bins * 2**-53, plus the
      centre gaps summed across empty bins and the span taken out and put
      back, a few 2**-53 more.
    The worst over 2,000 random pairs of 1 to 5,000 bins was about 0.65 of it."""
    bins, span = p.bins, float(p.edges[-1] - p.edges[0])
    return {
        "kl": bins * (2.0**-58 + 2.0**-53 * (4 + 2 * math.log(2 * q.n_samples + bins))),
        "tv": bins * (2.0**-61 + 2.0**-53 * value),
        "w1": bins * (2.0**-61 * span + 2.0**-52 * value),
    }[metric]


def float_1d(metric, p, q):
    """The earlier float kernel of KL, TV or W1."""
    return {
        "kl": lambda: kl_1d(p.masses, q.masses, p.n_samples, q.n_samples),
        "tv": lambda: tv_1d(p.masses, q.masses),
        "w1": lambda: w1_1d(p.masses, q.masses, np.diff(p.centers)),
    }[metric]()


class TestRowBatchedKernels:
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("bins", [1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300, 5000])
    def test_public_metrics_equal_1d_kernels(self, metric, bins):
        """Each metric equals its fixed-point rule applied cell by cell bit for
        bit, and lies within ``js_bound`` or ``float_bound`` of its float kernel."""
        gen = np.random.Generator(np.random.Philox(key=bins))
        edges = np.cumsum(gen.random(bins + 1) + 0.01)
        for case in range(6):
            pair = []
            for _ in range(2):
                raw = gen.random(bins) * (gen.random(bins) < 0.3 * case)  # empty bins
                raw[gen.integers(bins)] += 1.0
                pair.append(EmpiricalDistribution(edges, raw / raw.sum(), int(gen.integers(1, 900))))
            value = METRICS[metric](*pair)
            assert value == metric_1d(metric, *pair), case
            if metric == "js":
                assert abs(value - js_1d(pair[0].masses, pair[1].masses)) <= js_bound(bins), case
            else:
                assert abs(value - float_1d(metric, *pair)) <= float_bound(metric, *pair, value), case

    @pytest.mark.parametrize("metric", ["kl", "tv"])
    @pytest.mark.parametrize("bins", [1, 7, 8, 9, 127, 128, 129, 300])
    def test_kl_and_tv_of_every_kept_count(self, metric, bins):
        """Pairs that keep every count of cells from 1 to bins on each side,
        as ``test_js_rows_of_every_kept_count`` draws them: each value is the
        same bit for bit with its bins permuted and, for TV, with empty bins
        inserted among them (KL's smoothing depends on the bin count), and
        equals the cell-by-cell fixed-point reference."""
        gen = np.random.Generator(np.random.Philox(key=bins))
        sides = []
        for _ in range(2):
            masses = gen.random((bins, bins)) + 0.01
            for row, kept in zip(masses, gen.permutation(np.arange(1, bins + 1))):
                row[gen.permutation(bins)[kept:]] = 0.0
            sides.append(masses / masses.sum(axis=1, keepdims=True))
        edges, wide = np.arange(bins + 1.0), np.arange(3 * bins + 1.0)
        fixed = kl_fixed_1d if metric == "kl" else lambda pm, qm, n_p, n_q: tv_fixed_1d(pm, qm)

        def value(edges, pm, qm, n_p, n_q):
            return METRICS[metric](EmpiricalDistribution(edges, pm, n_p), EmpiricalDistribution(edges, qm, n_q))

        for pm, qm in zip(*sides):
            n_p, n_q = (int(n) for n in gen.integers(1, 900, size=2))
            got = value(edges, pm, qm, n_p, n_q)
            assert got == fixed(pm, qm, n_p, n_q)
            cells = gen.permutation(bins)
            assert value(edges, pm[cells], qm[cells], n_p, n_q) == got
            if metric == "tv":
                padded = np.zeros((2, 3 * bins))
                padded[:, np.sort(gen.choice(3 * bins, bins, replace=False))] = pm, qm
                assert value(wide, *padded, n_p, n_q) == got

    @pytest.mark.parametrize("bins", [1, 7, 8, 9, 127, 128, 129, 300])
    def test_js_rows_of_every_kept_count(self, bins):
        """One call whose rows keep every count of cells from 1 to bins on
        each side: each row's JS is the same bit for bit alone, inside the
        batch in any row order, with its bins permuted and with empty bins
        inserted among them, equals the cell-by-cell fixed-point reference and
        lies within ``js_bound`` of the float sum.  The counts span numpy's
        unroll (8) and pairwise-block (128) widths, which set a float sum's order."""
        gen = np.random.Generator(np.random.Philox(key=bins))
        sides = []
        for _ in range(2):
            masses = gen.random((bins, bins)) + 0.01
            for row, kept in zip(masses, gen.permutation(np.arange(1, bins + 1))):
                row[gen.permutation(bins)[kept:]] = 0.0
            sides.append(masses / masses.sum(axis=1, keepdims=True))
        pm, qm = sides
        assert sorted(np.count_nonzero(pm, axis=1)) == list(range(1, bins + 1))
        got = divergence._js(pm, qm)
        order, cells = gen.permutation(bins), gen.permutation(bins)
        assert np.array_equal(divergence._js(pm[order], qm[order]), got[order])
        assert np.array_equal(divergence._js(pm[:, cells], qm[:, cells]), got)
        padded = np.zeros((2, bins, 3 * bins))
        padded[:, :, np.sort(gen.choice(3 * bins, bins, replace=False))] = pm, qm
        assert np.array_equal(divergence._js(*padded), got)
        for p, q, value in zip(pm, qm, got.tolist()):
            assert divergence._js(p[None], q[None]).tolist() == [value] == [js_fixed_1d(p, q)]
            assert abs(value - js_1d(p, q)) <= js_bound(bins)

    @pytest.mark.parametrize("filled", [1, 7, 8, 9, 127, 128, 129, 300])
    def test_tabled_js_equals_full_width_rows(self, monkeypatch, filled):
        """calibrate_epsilon's JS, summed from per-bin tables of combined
        terms over the non-empty bins, is ``_js`` on each full-width row bit
        for bit, and its threshold is ``_percentile`` of those values.  The
        pooled counts are random over ``filled`` non-empty bins among empty
        ones (one bin among six empty ones at filled = 1).  The scored rows
        replace its draws: side A keeps each count of cells from 1 to
        ``filled`` while side B keeps them all, the same with the sides
        swapped, and random rows, all shuffled.  Each lane's table covers the
        counts drawn so far, bin by bin, widened by a block's spread each side,
        and is rebuilt when a block's counts leave it; from 127 non-empty bins
        on, the rows span several blocks."""
        gen = np.random.Generator(np.random.Philox(key=filled))
        bins = 7 if filled == 1 else 2 * filled - 1
        where = [3]
        if filled > 1:
            inner = gen.choice(np.arange(1, bins - 1), filled - 2, replace=False)
            where = [0, *sorted(inner.tolist()), bins - 1]
        colours = np.zeros(bins, dtype=np.int64)
        colours[where] = gen.integers(2, 31, size=filled)
        samples = np.repeat(np.arange(bins), colours).astype(float)  # value i lands in bin i
        gen.shuffle(samples)
        n_a = samples.size // 3
        a, b = samples[:n_a], samples[n_a:]
        assert np.array_equal(np.histogram(samples, bins, range=(samples.min(), samples.max()))[0], colours)

        def rows_keeping(kept_a):
            """Per row, side A's count in each bin: 0 outside the row's kept cells
            (side B keeps those) and between 1 and c - 1 in them (both keep those)."""
            rows = np.zeros((len(kept_a), bins), dtype=np.int64)
            for row, k in zip(rows, kept_a):
                cells = gen.permutation(where)[:k]
                row[cells] = gen.integers(1, colours[cells])
            return rows

        a_keeps = rows_keeping(range(1, filled + 1))  # side B keeps every cell
        b_keeps = colours - rows_keeping(range(1, filled + 1))  # side A keeps every cell
        random = gen.integers(0, colours + 1, size=(300, bins))
        random = random[(random > 0).any(axis=1) & (random < colours).any(axis=1)]
        rows = np.concatenate([a_keeps, b_keeps, random])
        rows = rows[gen.permutation(len(rows))]
        assert {int(k) for k in np.count_nonzero(rows, axis=1)} >= set(range(1, filled + 1))
        assert {int(k) for k in np.count_nonzero(colours - rows, axis=1)} >= set(range(1, filled + 1))

        # then rows that keep every cell on both sides, so that no bin's
        # table starts at a count of 0
        interior = gen.integers(1, np.maximum(colours, 2), size=(60, bins)) * (colours > 0)
        for rows in (rows, interior):
            pm, qm = rows / n_a, (colours - rows) / (samples.size - n_a)
            exact = divergence._js(pm, qm)
            assert exact.tolist() == [js_fixed_1d(p, q) for p, q in zip(pm, qm)]
            for q in (0, 50, 99, 100, float(gen.uniform(0, 100))):
                null = recorded_null(monkeypatch, "js", a, b, bins, len(rows), 0, rows=rows, percentile=q)
                assert np.array_equal(null.counts, rows)
                assert np.array_equal(null.values, exact)
                assert null.epsilon.hex() == divergence._percentile(exact, q).hex(), q


def recorded_null(monkeypatch, metric, a, b, bins, runs, seed, rows=None, percentile=50):
    """What calibrate_epsilon draws and scores: ``counts``, the first side's
    counts of every run, put back in their bins of a full-width row;
    ``values``, the null distances it takes the percentile of (checked to
    equal the public kernel on the full-width rows bit for bit: every row
    for JS through ``_js``, and up to 64 rows spread over the runs through
    ``METRICS``); ``blocks``, how many draws it made; and ``epsilon``, its
    threshold.
    Its draws cover the non-empty bins, the largest pooled count first and
    ties in bin order, each run once; given full-width ``rows``, it scores
    those instead of its draws.  Each draw is filed under the run it starts
    at, from its generator's stream (the Philox counter's upper half) and the
    rows drawn on it before, so ``counts`` are in run order whichever thread
    drew them."""
    pooled = np.concatenate([a, b])
    colours = np.histogram(pooled, bins, range=(pooled.min(), pooled.max()))[0]
    drawn = sorted(np.flatnonzero(colours).tolist(), key=lambda i: -colours[i])
    counts, values = {}, []

    class Recording(np.random.Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            counter = bit_generator.state["state"]["counter"]
            self.run = STREAM_RUNS * (int(counter[2]) | int(counter[3]) << 64)

        def multivariate_hypergeometric(self, colors, nsample, size, method):
            assert colors.tolist() == colours[drawn].tolist() and nsample == len(a)
            start, self.run = self.run, self.run + size
            block = super().multivariate_hypergeometric(colors, nsample, size=size, method=method)
            if rows is not None:
                block = rows[start : start + size][:, drawn]
            full = np.zeros((size, bins), dtype=np.int64)
            full[:, drawn] = block
            assert counts.setdefault(start, full) is full  # no block drawn twice
            return block

    def percentile_of(null, q):
        values.append(null.copy())
        return real_percentile(null, q)

    real_percentile = divergence._percentile
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Generator", Recording)
        patch.setattr(divergence, "_percentile", percentile_of)
        epsilon = calibrate_epsilon(a, b, metric, bins, runs, percentile, seed)
    starts = sorted(counts)
    null = SimpleNamespace(counts=np.concatenate([counts[start] for start in starts]), values=values[0],
                           blocks=len(counts), epsilon=epsilon)
    # each run drawn once: every block starts where the one before it ends
    assert starts == np.cumsum([0] + [len(counts[start]) for start in starts[:-1]]).tolist()
    assert len(null.counts) == runs
    if metric == "js":  # the tabled sums are the row kernel's on full-width rows
        assert np.array_equal(null.values, divergence._js(null.counts / len(a), (colours - null.counts) / len(b)))
    if rows is None:  # drawn rows sum to each side's size, so they are distributions
        edges = np.histogram_bin_edges(pooled, bins, range=(pooled.min(), pooled.max()))
        for run in np.unique(np.linspace(0, runs - 1, 64).astype(int)).tolist():
            p = EmpiricalDistribution(edges, null.counts[run] / len(a), len(a))
            q = EmpiricalDistribution(edges, (colours - null.counts[run]) / len(b), len(b))
            assert null.values[run] == METRICS[metric](p, q), run
    return null


def two_clusters(gen, n_a, n_b):
    """Samples around 0 and 5, so the bins between the clusters stay empty."""
    a = np.concatenate([gen.normal(0.0, 0.1, n_a // 2), gen.normal(5.0, 0.1, n_a - n_a // 2)])
    b = np.concatenate([gen.normal(0.0, 0.1, n_b // 3), gen.normal(5.0, 0.1, n_b - n_b // 3)])
    return a, b


def sample_pair(key, n_a, n_b, clustered):
    gen = np.random.Generator(np.random.Philox(key=key))
    return two_clusters(gen, n_a, n_b) if clustered else (gen.normal(size=n_a), gen.normal(size=n_b))


class TestPermutationNull:
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("bins", [1, 2, 63, 64, 65, 300, 5000])
    def test_chunked_null_equals_per_run_kernels(self, monkeypatch, metric, bins):
        """Every block boundary: one run, a block short of one run, a whole
        block, one run past it, and many blocks; unequal sides, with empty
        bins between two clusters.  The reference draws one row per call.
        Blocks of 4,096 count cells keep the boundaries within reach of the
        reference; a block holds that many non-empty bins' cells."""
        gen = np.random.Generator(np.random.Philox(key=bins))
        a = np.concatenate([gen.normal(0.0, 0.1, 20), gen.normal(5.0, 0.1, 17)])
        b = np.concatenate([gen.normal(0.0, 0.1, 9), gen.normal(5.0, 0.1, 14)])
        pooled = np.concatenate([a, b])
        filled = int(np.count_nonzero(np.histogram(pooled, bins, range=(pooled.min(), pooled.max()))[0]))
        monkeypatch.setattr(divergence, "CHUNK_CELLS", 4096)
        chunk = max(1, 4096 // filled)
        for runs in sorted({1, chunk - 1, chunk, chunk + 1, 777} - {0}):
            values = null_values_reference(a, b, metric, bins, runs, 5)
            for percentile in (0, 50, 99, 100):
                got = calibrate_epsilon(a, b, metric, bins, runs, percentile, seed=5)
                assert got == float(np.percentile(values, percentile)), (runs, percentile)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_js_ties_across_blocks(self, monkeypatch, rounded):
        """Ties-heavy samples in 7 bins (seven values, 11 samples each and one
        a bin, or normals rounded to 0.1) make many resplits tie, in many
        blocks of 9 runs.  The threshold is the reference's bit for bit at
        every block boundary and percentile, and each block is drawn once.
        With equal pooled counts, resplits whose counts are the same up to
        order have the same JS in exact arithmetic, and here bit for bit."""
        gen = np.random.Generator(np.random.Philox(key=70 + rounded))
        if rounded:
            a, b = np.round(gen.normal(size=45), 1), np.round(gen.normal(size=31), 1)
        else:
            pooled = gen.permutation(np.repeat(np.arange(7), 11)) / 10
            a, b = pooled[:45], pooled[45:]
        monkeypatch.setattr(divergence, "CHUNK_CELLS", 64)
        block = 64 // 7
        for runs in (1, 2, block - 1, block, block + 1, 30 * block + 4):
            reference = null_values_reference(a, b, "js", 7, runs, 5)
            for q in (0, 50, 99, 100, float(gen.uniform(0, 100))):
                null = recorded_null(monkeypatch, "js", a, b, 7, runs, 5, percentile=q)
                assert null.epsilon.hex() == float(np.percentile(reference, q)).hex(), (runs, q)
                assert null.blocks == -(-runs // block), (runs, q)
        if not rounded:
            by_multiset = {}
            for row, value in zip(np.sort(null.counts, axis=1).tolist(), null.values.tolist()):
                assert by_multiset.setdefault(tuple(row), value) == value
            assert len(by_multiset) < len(null.values)

    def test_mid_percentile_of_tied_masses(self):
        """77 samples on 7 values, 11 each, in 7 bins: 20,000 resplits and
        the median, where many runs tie with the percentile's neighbours.
        The threshold is the reference's."""
        gen = np.random.Generator(np.random.Philox(key=70))
        pooled = gen.permutation(np.repeat(np.arange(7), 11)) / 10
        args = (pooled[:45], pooled[45:], "js", 7, 20_000, 50, 5)
        assert calibrate_epsilon(*args) == calibrate_epsilon_reference(*args)

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_null_at_max_bins_stays_small(self, metric):
        """400 + 400 normals in MAX_BINS bins, about 790 of them non-empty:
        every null works over the non-empty bins only, so its traced peak
        (2.5-2.9 MiB, mostly np.histogram's and the centres' bins-long
        arrays) stays below one block scattered to full width (4.5-5.5 MiB
        when KL, TV and W1 scored such rows) and far below one full-width
        (runs, bins) float matrix (105 MB)."""
        gen = np.random.Generator(np.random.Philox(key=3))
        a, b = gen.normal(size=400), gen.normal(size=400)
        tracemalloc.start()
        try:
            calibrate_epsilon(a, b, metric, MAX_BINS, runs=200, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("metric", ["kl", "js", "tv"])
    def test_lane_table_regrows_to_the_reference(self, monkeypatch, metric):
        """Each lane keeps one table of each bin's terms, over the counts it has
        drawn widened by a block's spread each side, and rebuilds it when a
        block's counts leave it.  Two clusters in 64 bins (about 16 of them
        non-empty) and blocks of one run (1 cell) or two (64 cells) make both
        lanes' later blocks leave the first block's table; every value is
        still the reference's, bit for bit."""
        a, b = sample_pair(45, 120, 90, clustered=True)
        runs = STREAM_RUNS + 300
        reference = null_values_reference(a, b, metric, 64, runs, 4)
        pooled = np.concatenate([a, b])
        colours = np.histogram(pooled, 64, range=(pooled.min(), pooled.max()))[0]
        filled = np.flatnonzero(colours)
        colours = colours[filled]
        for cells in (1, 64):
            monkeypatch.setattr(divergence, "CHUNK_CELLS", cells)
            null = recorded_null(monkeypatch, metric, a, b, 64, runs, 4)
            assert null.values.tobytes() == reference.tobytes(), cells
            counts, block = null.counts[:, filled], max(1, cells // filled.size // 2)
            for first in (0, STREAM_RUNS):  # each lane's first block: the counts its first table holds
                low, high = counts[first : first + block].min(axis=0), counts[first : first + block].max(axis=0)
                lo, hi = np.maximum(2 * low - high, 0), np.minimum(2 * high - low, colours)
                later = counts[first + block : first + STREAM_RUNS]
                assert ((later < lo) | (later > hi)).any(), (cells, first)

    def test_lane_table_is_o_of_the_drawn_spread(self):
        """10**6 + 10**6 normals in 64 bins, 200 runs: each bin's table spans the
        counts drawn and a block's spread, a few hundred of its tens of
        thousands, so the traced peak (about 17-21 MiB, mostly the pooled
        samples' 16 MB) stays below 24 MiB for JS and KL.  A table over every
        count 0..c of each bin read 183 MiB."""
        gen = np.random.Generator(np.random.Philox(key=46))
        a, b = gen.normal(size=10**6), gen.normal(size=10**6)
        for metric in ("js", "kl"):
            tracemalloc.start()
            try:
                calibrate_epsilon(a, b, metric, 64, runs=200, seed=8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 24 * 2**20, (metric, peak)

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("bins", [64, 5000, MAX_BINS])
    def test_every_null_value_is_the_public_kernels(self, monkeypatch, metric, bins):
        """Each of 64 null values equals the public kernel on its run's
        full-width rows bit for bit, as ``recorded_null`` checks every row of
        a null this short, for bins below and above ``CHUNK_CELLS``, on
        400 + 400 normals (52 to 791 non-empty bins: one block at 64 bins,
        several above)."""
        a, b = sample_pair(43, 400, 400, clustered=False)
        recorded_null(monkeypatch, metric, a, b, bins, 64, seed=6)

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_blocks_follow_the_non_empty_bins(self, monkeypatch, metric):
        """With 4,096-cell blocks and 5,000 bins, 58 of them non-empty, every
        metric's null draws 4,096 // 58 = 70 runs per call, not the one run
        per call that a block of 5,000-bin rows would hold."""
        a, b = sample_pair(44, 37, 23, clustered=True)
        pooled = np.concatenate([a, b])
        filled = np.count_nonzero(np.histogram(pooled, 5000, range=(pooled.min(), pooled.max()))[0])
        monkeypatch.setattr(divergence, "CHUNK_CELLS", 4096)
        null = recorded_null(monkeypatch, metric, a, b, 5000, 500, seed=7)
        assert 1 < 4096 // filled < 500
        assert null.blocks == -(-500 // (4096 // filled))

    # calibrate_epsilon(...).hex() at security-eval's shape, 500 + 500 normals
    # in 64 bins and 4,000 runs: two streams, each about 16 half blocks of JS
    GOLDEN_4000_RUNS = {
        (1, 100): "0x1.ca54a51b69911p-5", (1, 99): "0x1.683544b99c3c3p-5",
        (2, 100): "0x1.9833b9362256dp-5", (2, 99): "0x1.657ec52c126adp-5",
        (3, 100): "0x1.9007150b1788cp-5", (3, 99): "0x1.5af2549f8f93bp-5",
    }

    @pytest.mark.parametrize("seed, percentile", list(GOLDEN_4000_RUNS))
    def test_golden_thresholds_over_many_blocks(self, seed, percentile):
        pooled = np.random.Generator(np.random.Philox(key=500)).normal(size=1000)
        got = calibrate_epsilon(pooled[:500], pooled[500:], runs=4000, percentile=percentile, seed=seed)
        assert got.hex() == self.GOLDEN_4000_RUNS[seed, percentile]

    @pytest.mark.parametrize("metric", ["kl", "js", "tv", "w1"])
    @pytest.mark.parametrize("bins", [1, 7, 64])
    def test_matches_per_run_histograms(self, metric, bins):
        """np.histogram's pooled counts are the ones the reference's own
        binning gives, on bin edges and where numpy widens the range, so the
        thresholds equal the reference's run by run."""
        gen = np.random.Generator(np.random.Philox(key=12))
        cases = [
            (gen.normal(size=90), gen.normal(0.4, size=35)),  # unequal sizes
            (np.linspace(0.0, 7.0, 15), np.linspace(0.0, 7.0, 64)),  # on bin edges
            (gen.integers(0, 4, size=40).astype(float), gen.integers(0, 6, size=23).astype(float)),
            ([2.5] * 9, [2.5] * 4),  # one value: np.histogram widens the range by 0.5
            ([0.1, 0.2, 0.3], [0.7]),
        ]
        for seed, (a, b) in enumerate(cases):
            for percentile in (99.0, 50, 100):
                args = (a, b, metric, bins, 30, percentile, seed)
                assert calibrate_epsilon(*args) == calibrate_epsilon_reference(*args), (seed, percentile)
        # the benchmark's shape (at 64 bins): 2 x 500 normals, the null's
        # maximum over a few hundred runs
        pooled = gen.normal(size=1000)
        args = (pooled[:500], pooled[500:], metric, bins, 300, 100, 7)
        assert calibrate_epsilon(*args) == calibrate_epsilon_reference(*args)

    @pytest.mark.parametrize("bins", [1, 5, 64, 300])
    def test_block_size_does_not_matter(self, monkeypatch, bins):
        gen = np.random.Generator(np.random.Philox(key=40 + bins))
        a, b = two_clusters(gen, 31, 18)
        for metric in sorted(METRICS):
            got = set()
            for cells in (1, 64, CHUNK_CELLS):
                monkeypatch.setattr(divergence, "CHUNK_CELLS", cells)
                got.add(calibrate_epsilon(a, b, metric, bins, 500, 99, seed=3))
            assert len(got) == 1, metric

    @pytest.mark.parametrize("bad", [0, -3, True, False, 2.5, "8", None])
    def test_bad_bins_and_runs_refused(self, bad):
        with pytest.raises(InvalidParams, match="bins"):
            calibrate_epsilon([1.0, 2.0], [3.0], bins=bad)
        with pytest.raises(InvalidParams, match="runs"):
            calibrate_epsilon([1.0, 2.0], [3.0], runs=bad)
        with pytest.raises(InvalidParams, match="bins"):
            distinguishability_test([1.0, 2.0], [3.0], epsilon=0.1, bins=bad)

    @pytest.mark.parametrize("bad", [-0.5, 100.5, 150, math.nan, math.inf, True, "99", None, 1j])
    def test_bad_percentile_refused(self, bad):
        with pytest.raises(InvalidParams, match="percentile"):
            calibrate_epsilon([1.0, 2.0], [3.0], runs=4, percentile=bad)

    def test_deterministic(self):
        gen = np.random.Generator(np.random.Philox(key=3))
        a, b = gen.normal(size=500), gen.normal(size=500)
        e1 = calibrate_epsilon(a, b, runs=50, seed=9)
        e2 = calibrate_epsilon(a, b, runs=50, seed=9)
        assert e1 == e2
        assert e1 > 0

    def test_iid_split_usually_indistinguishable(self):
        gen = np.random.Generator(np.random.Philox(key=4))
        hits = 0
        runs = 20
        for i in range(runs):
            pooled = gen.normal(size=1000)
            a, b = pooled[:500], pooled[500:]
            eps = calibrate_epsilon(a, b, runs=100, seed=i)
            report = distinguishability_test(a, b, eps)
            hits += report.verdict == VERDICT_INDISTINGUISHABLE
        assert hits >= runs - 1

    def test_shifted_distribution_detected(self):
        gen = np.random.Generator(np.random.Philox(key=5))
        a = gen.normal(size=1500)
        b = gen.normal(size=1500) + 1.5
        eps = calibrate_epsilon(a, b, runs=100, seed=0)
        report = distinguishability_test(a, b, eps)
        assert report.verdict == VERDICT_DISTINGUISHABLE


class TestStreams:
    """Run i is drawn on stream i // STREAM_RUNS, the calling thread drawing the
    even streams and one more thread the odd ones, so every value is the
    sequential reference's, one core or two."""

    RUNS = (1, STREAM_RUNS - 1, STREAM_RUNS, STREAM_RUNS + 1, 4000, 3 * STREAM_RUNS + 5)

    @pytest.mark.parametrize("metric", ["js", "tv"])
    def test_streams_equal_the_reference(self, monkeypatch, metric):
        """Clustered samples with empty bins between them, at blocks that do
        and do not divide a stream; a run's value does not depend on ``runs``,
        so each null is a prefix of the longest one."""
        a, b = sample_pair(39, 60, 45, clustered=True)
        reference = null_values_reference(a, b, metric, 16, max(self.RUNS), 8)
        for cells in (100, CHUNK_CELLS):
            monkeypatch.setattr(divergence, "CHUNK_CELLS", cells)
            for runs in self.RUNS:
                null = recorded_null(monkeypatch, metric, a, b, 16, runs, 8, percentile=99)
                assert null.values.tobytes() == reference[:runs].tobytes(), (cells, runs)
                assert null.epsilon.hex() == float(np.percentile(reference[:runs], 99)).hex(), (cells, runs)

    def test_concurrent_callers_keep_their_values(self):
        """Three callers at once, two lanes each, on two cores with a short
        switch interval: each threshold is the one drawn alone."""
        a, b = sample_pair(40, 300, 200, clustered=False)
        runs = 3 * STREAM_RUNS + 5
        alone = {seed: calibrate_epsilon_reference(a, b, "tv", 16, runs, 99, seed) for seed in range(3)}
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda seed=seed: got.update(
                {seed: calibrate_epsilon(a, b, "tv", 16, runs, 99, seed)})) for seed in alone]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == alone

    @pytest.mark.parametrize("faulty", [1, 0])
    def test_a_lane_fault_is_raised_after_the_join(self, monkeypatch, faulty):
        """A draw that fails on one stream only, in the second thread's lane
        (stream 1) or the caller's (stream 0): the call raises that very
        exception, and no thread outlives it."""
        fault = RuntimeError(f"stream {faulty}")

        class Faulty(np.random.Generator):
            def multivariate_hypergeometric(self, *args, **kwargs):
                if int(self.bit_generator.state["state"]["counter"][2]) == faulty:
                    raise fault
                return super().multivariate_hypergeometric(*args, **kwargs)

        a, b = sample_pair(41, 50, 50, clustered=False)
        before = threading.active_count()
        monkeypatch.setattr(np.random, "Generator", Faulty)
        with pytest.raises(RuntimeError) as caught:
            calibrate_epsilon(a, b, runs=4 * STREAM_RUNS, seed=1)
        assert caught.value is fault
        assert threading.active_count() == before

    def test_one_stream_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("calibrate_epsilon started a thread")

        a, b = sample_pair(42, 50, 50, clustered=False)
        monkeypatch.setattr(threading, "Thread", no_thread)
        for runs in (200, STREAM_RUNS):
            calibrate_epsilon(a, b, runs=runs, seed=2)

    def test_runs_above_max_runs_refused_before_allocating(self, monkeypatch):
        for runs in (MAX_RUNS + 1, 10**12, 2**63):
            with pytest.raises(InvalidParams, match=f"runs must be at most {MAX_RUNS}, got"):
                calibrate_epsilon([0.0, 1.0], [0.5, 2.0], runs=runs)
        monkeypatch.setattr(divergence, "MAX_RUNS", 5)
        calibrate_epsilon([0.0, 1.0], [0.5, 2.0], runs=5)
        with pytest.raises(InvalidParams, match="runs must be at most 5, got 6"):
            calibrate_epsilon([0.0, 1.0], [0.5, 2.0], runs=6)


class TestNullLaw:
    """The drawn counts follow the permutation null's law: multivariate
    hypergeometric, the pooled counts as colours and side A's size as the
    sample size."""

    RUNS = 20_000

    @pytest.mark.parametrize(
        "n_a, n_b, bins, clustered",
        [(20, 300, 16, False), (300, 20, 16, False), (37, 23, 64, True), (9, 4, 1, False), (3, 1, 8, True),
         (36, 24, 300, False)],  # the last: 60 samples in 300 bins, most of them empty
    )
    def test_per_bin_moments(self, monkeypatch, n_a, n_b, bins, clustered):
        a, b = sample_pair(n_a * 1000 + bins, n_a, n_b, clustered)
        counts = recorded_null(monkeypatch, "tv", a, b, bins, self.RUNS, seed=bins).counts
        pooled = np.concatenate([a, b])
        colours = np.histogram(pooled, bins, range=(pooled.min(), pooled.max()))[0]
        total = pooled.size
        assert counts.shape == (self.RUNS, bins)
        assert np.all(counts.sum(axis=1) == n_a)
        assert np.all((counts >= 0) & (counts <= colours))
        p = colours / total
        mean = n_a * p
        var = n_a * p * (1 - p) * (total - n_a) / (total - 1)
        got_mean = counts.mean(axis=0)
        got_var = counts.var(axis=0, ddof=1)
        fourth = ((counts - got_mean) ** 4).mean(axis=0)
        # a fixed bin (empty, or bins=1) never varies; elsewhere allow six
        # standard errors of the sample mean and of the sample variance
        assert np.all(np.abs(got_mean - mean) <= 6 * np.sqrt(var / self.RUNS) + 1e-12)
        assert np.all(np.abs(got_var - var) <= 6 * np.sqrt(np.abs(fourth - got_var**2) / self.RUNS) + 1e-12)
        assert np.all(got_var[var == 0] == 0)

    # each comparison has its own seeds, and so its own permutation sample
    @pytest.mark.parametrize(
        "metric, n_a, n_b, bins, clustered, seed",
        [("js", 20, 300, 16, False, 1), ("kl", 20, 300, 16, False, 2), ("tv", 20, 300, 16, False, 3),
         ("w1", 20, 300, 16, False, 4), ("js", 37, 23, 64, True, 5), ("js", 36, 24, 300, False, 6),
         ("kl", 36, 24, 300, False, 7)],
    )
    def test_ks_against_permutation_null(self, monkeypatch, metric, n_a, n_b, bins, clustered, seed):
        a, b = sample_pair(100 + seed, n_a, n_b, clustered)
        null = recorded_null(monkeypatch, metric, a, b, bins, self.RUNS, seed=seed)
        permuted = permutation_null_reference(a, b, metric, bins, self.RUNS, seed=1000 + seed)
        assert ks_2samp(null.values, permuted).pvalue > 0.01

    def test_ks_on_the_benchmark_split_above_its_null(self, monkeypatch):
        """perfbench security-eval's i.i.d. split at seed 1106 (its Philox key
        below) scores JS 0.0556 in 64 bins, above all 4,000 resplits of the
        benchmark's null.  The count-space null still follows the permutation
        law there, and both put the split in their far tail: a false alarm
        that a threshold at the null's maximum raises on about 1 seed in 4,001.
        Over the benchmark's seeds 1-1200 it is raised at 179 and at 1106."""
        a, b = sample_pair(283466818900148146, 500, 500, False)
        observed = distinguishability_test(a, b, 0.0).value
        drawn = recorded_null(monkeypatch, "js", a, b, 64, self.RUNS, seed=4137733485).values
        permuted = permutation_null_reference(a, b, "js", 64, self.RUNS, seed=1106)
        assert ks_2samp(drawn, permuted).pvalue > 0.01
        assert np.mean(drawn >= observed) < 1e-3 and np.mean(permuted >= observed) < 1e-3
