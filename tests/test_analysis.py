"""Tests for the generic analysis toolkit: stats + k-means."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    EmpiricalDistribution,
    kmeans,
    linear_fit,
    mean,
    median,
    quantile,
    quartile_groups,
)


class TestBasicStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_quantile_interpolates(self):
        assert quantile([0.0, 10.0], 0.25) == 2.5

    def test_quantile_bounds(self):
        values = [5.0, 1.0, 3.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0

    def test_quantile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_quantile_within_range(self, values, q):
        result = quantile(values, q)
        assert min(values) <= result <= max(values)


class TestEmpiricalDistribution:
    def test_cdf_and_ccdf_are_complements(self):
        dist = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        for x in (0.5, 2.0, 3.5, 9.0):
            assert dist.cdf(x) + dist.ccdf(x) == pytest.approx(1.0)

    def test_cdf_values(self):
        dist = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        assert dist.cdf(2.0) == 0.5
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(4.0) == 1.0

    def test_median_and_mean(self):
        dist = EmpiricalDistribution([1.0, 2.0, 9.0])
        assert dist.median == 2.0
        assert dist.mean == 4.0

    def test_series_is_monotone(self):
        dist = EmpiricalDistribution([random.Random(1).random() for _ in range(100)])
        series = dist.cdf_series(points=50)
        ys = [y for __, y in series]
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_ccdf_series_complements(self):
        dist = EmpiricalDistribution([1.0, 5.0, 9.0])
        for (x1, c), (x2, cc) in zip(dist.cdf_series(10), dist.ccdf_series(10)):
            assert x1 == x2
            assert c + cc == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([])

    def test_degenerate_distribution(self):
        dist = EmpiricalDistribution([2.0, 2.0])
        assert dist.cdf_series() == [(2.0, 1.0)]

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_property(self, values):
        dist = EmpiricalDistribution(values)
        lo, hi = min(values) - 1, max(values) + 1
        probes = [lo + (hi - lo) * i / 10 for i in range(11)]
        cdfs = [dist.cdf(p) for p in probes]
        assert cdfs == sorted(cdfs)


class TestQuartileGroups:
    def test_equal_sizes(self):
        groups = quartile_groups(list(range(20)), key=lambda x: x)
        assert [len(g) for g in groups.values()] == [5, 5, 5, 5]

    def test_ordering_between_groups(self):
        groups = quartile_groups(list(range(100)), key=lambda x: -x)
        assert max(groups["Low"]) > min(groups["High"])  # sorted by -x
        assert all(a >= b for a in groups["Low"] for b in groups["High"])

    def test_uneven_sizes_distributed(self):
        groups = quartile_groups(list(range(10)), key=lambda x: x)
        assert sorted(len(g) for g in groups.values()) == [2, 2, 3, 3]

    def test_custom_labels(self):
        groups = quartile_groups([1, 2], key=lambda x: x, labels=("a", "b"))
        assert groups == {"a": [1], "b": [2]}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quartile_groups([], key=lambda x: x)


class TestLinearFit:
    def test_perfect_line(self):
        fit = linear_fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = linear_fit([0.0, 1.0], [0.0, 2.0])
        assert fit.predict(3.0) == pytest.approx(6.0)

    def test_noisy_fit_recovers_slope(self):
        rng = random.Random(5)
        xs = [float(i) for i in range(200)]
        ys = [2.0 * x + 10.0 + rng.gauss(0, 5.0) for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(2.0, abs=0.05)
        assert fit.r_squared > 0.95

    def test_constant_y_r_squared_one(self):
        fit = linear_fit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            linear_fit([1.0, 1.0], [1.0, 2.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [1.0, 2.0])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [1.0])


class TestKMeans:
    def test_separates_two_obvious_clusters(self):
        vectors = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1),
                   (5.0, 5.0), (5.1, 5.0), (5.0, 5.1)]
        result = kmeans(vectors, k=2, seed=1)
        labels = result.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_deterministic_under_seed(self):
        rng = random.Random(3)
        vectors = [(rng.random(), rng.random()) for _ in range(50)]
        a = kmeans(vectors, k=3, seed=9)
        b = kmeans(vectors, k=3, seed=9)
        assert a.labels == b.labels
        assert a.inertia == b.inertia

    def test_inertia_decreases_with_k(self):
        rng = random.Random(4)
        vectors = [(rng.random(), rng.random()) for _ in range(60)]
        inertias = [kmeans(vectors, k=k, seed=2).inertia for k in (1, 2, 4, 8)]
        assert inertias == sorted(inertias, reverse=True)

    def test_k_equals_n_gives_zero_inertia(self):
        vectors = [(0.0,), (1.0,), (2.0,)]
        result = kmeans(vectors, k=3, seed=0)
        assert result.inertia == pytest.approx(0.0)

    def test_cluster_indices_partition(self):
        rng = random.Random(6)
        vectors = [(rng.random(),) for _ in range(30)]
        result = kmeans(vectors, k=2, seed=0)
        idx0 = set(result.cluster_indices(0))
        idx1 = set(result.cluster_indices(1))
        assert idx0 | idx1 == set(range(30))
        assert not idx0 & idx1

    def test_binary_vectors_cluster_by_overlap(self):
        """Table III-style: pages sharing domains end up together."""
        group_a = [(1, 1, 1, 0, 0, 0)] * 5
        group_b = [(0, 0, 0, 1, 1, 1)] * 5
        result = kmeans(group_a + group_b, k=2, seed=0)
        assert len(set(result.labels[:5])) == 1
        assert len(set(result.labels[5:])) == 1
        assert result.labels[0] != result.labels[5]

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            kmeans([(1.0,)], k=2)
        with pytest.raises(ValueError):
            kmeans([(1.0,)], k=0)

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            kmeans([(1.0,), (1.0, 2.0)], k=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kmeans([], k=1)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_labels_always_valid(self, seed):
        rng = random.Random(seed)
        vectors = [(rng.random(), rng.random()) for _ in range(20)]
        result = kmeans(vectors, k=3, seed=seed)
        assert len(result.labels) == 20
        assert set(result.labels) <= {0, 1, 2}
        assert math.isfinite(result.inertia)
