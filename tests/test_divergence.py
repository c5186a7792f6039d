import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stegogame.divergence import (
    CHUNK_CELLS,
    METRICS,
    EmpiricalDistribution,
    VERDICT_DISTINGUISHABLE,
    VERDICT_INDISTINGUISHABLE,
    byte_counts,
    calibrate_epsilon,
    distinguishability_test,
    estimate_distribution,
    js,
    kl,
    normalize_byte_counts,
    tv,
    w1,
)
from stegogame.errors import BinMismatch, EmptySamples, InvalidParams

from helpers import (
    calibrate_epsilon_histogram_reference,
    calibrate_epsilon_reference,
    metric_1d,
    null_values_reference,
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

    def test_byte_distribution(self):
        d = normalize_byte_counts(byte_counts(bytes([0, 0, 255, 1])))
        assert d.masses[0] == 0.5
        assert d.masses[1] == 0.25
        assert d.masses[255] == 0.25
        assert d.n_samples == 4
        with pytest.raises(EmptySamples):
            normalize_byte_counts(byte_counts(b""))

    def test_byte_counts_pool_before_normalizing(self):
        a, b = bytes([0, 0, 255]), bytes([1, 255, 255, 255])
        counts = byte_counts(a) + byte_counts(b)
        assert np.array_equal(counts, byte_counts(a + b))
        pooled = normalize_byte_counts(counts)
        assert pooled.n_samples == 7 and pooled.masses[255] == 4 / 7
        assert pooled.edges is normalize_byte_counts(byte_counts(a)).edges


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


class TestRowBatchedKernels:
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("bins", [1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300, 5000])
    def test_public_metrics_equal_1d_kernels(self, metric, bins):
        gen = np.random.Generator(np.random.Philox(key=bins))
        edges = np.cumsum(gen.random(bins + 1) + 0.01)
        for case in range(6):
            pair = []
            for _ in range(2):
                raw = gen.random(bins) * (gen.random(bins) < 0.3 * case)  # empty bins
                raw[gen.integers(bins)] += 1.0
                pair.append(EmpiricalDistribution(edges, raw / raw.sum(), int(gen.integers(1, 900))))
            assert METRICS[metric](*pair) == metric_1d(metric, *pair), case


class TestPermutationNull:
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("bins", [1, 2, 63, 64, 65, 300, 5000])
    def test_chunked_null_equals_per_run_kernels(self, metric, bins):
        """Every chunk boundary: one run, a chunk short of one run, a whole
        chunk, one run past it, and many chunks; unequal sides, with empty
        bins between two clusters."""
        gen = np.random.Generator(np.random.Philox(key=bins))
        a = np.concatenate([gen.normal(0.0, 0.1, 20), gen.normal(5.0, 0.1, 17)])
        b = np.concatenate([gen.normal(0.0, 0.1, 9), gen.normal(5.0, 0.1, 14)])
        chunk = max(1, CHUNK_CELLS // bins)
        for runs in sorted({1, chunk - 1, chunk, chunk + 1, 777} - {0}):
            values = null_values_reference(a, b, metric, bins, runs, 5)
            for percentile in (0, 50, 99, 100):
                got = calibrate_epsilon(a, b, metric, bins, runs, percentile, seed=5)
                assert got == float(np.percentile(values, percentile)), (runs, percentile)

    @pytest.mark.parametrize("metric", ["kl", "js", "tv", "w1"])
    @pytest.mark.parametrize("bins", [1, 7, 64])
    def test_matches_per_run_histograms(self, metric, bins):
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
                reference = calibrate_epsilon_histogram_reference(*args)
                assert calibrate_epsilon(*args) == reference, (seed, percentile)
        # the benchmark's shape (at 64 bins): 2 x 500 normals, the null's
        # maximum over a few hundred runs, where each run's second side is
        # the pooled counts minus the first side's
        pooled = gen.normal(size=1000)
        args = (pooled[:500], pooled[500:], metric, bins, 300, 100, 7)
        assert calibrate_epsilon(*args) == calibrate_epsilon_histogram_reference(*args)
        assert calibrate_epsilon(*args) == calibrate_epsilon_reference(*args)

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
