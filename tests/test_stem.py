"""Tests for STEM's statistical error model (Eqs. 2-6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stem import (
    DEFAULT_EPSILON,
    DEFAULT_Z,
    ClusterStats,
    error_bound_satisfied,
    kkt_sample_sizes,
    per_cluster_sample_sizes,
    predicted_error_multi,
    predicted_error_single,
    predicted_simulated_time,
    single_cluster_sample_size,
    z_score,
)

cluster_strategy = st.builds(
    ClusterStats,
    n=st.integers(min_value=1, max_value=100_000),
    mu=st.floats(min_value=0.01, max_value=1e4),
    sigma=st.floats(min_value=0.0, max_value=1e3),
)


class TestClusterStats:
    def test_from_times(self):
        stats = ClusterStats.from_times(np.array([1.0, 2.0, 3.0]))
        assert stats.n == 3
        assert stats.mu == pytest.approx(2.0)
        assert stats.sigma == pytest.approx(np.std([1, 2, 3]))

    def test_cov_and_total(self):
        stats = ClusterStats(n=10, mu=4.0, sigma=2.0)
        assert stats.cov == pytest.approx(0.5)
        assert stats.total == pytest.approx(40.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClusterStats.from_times(np.array([]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "mu": 1.0, "sigma": 0.0},
            {"n": 1, "mu": 0.0, "sigma": 0.0},
            {"n": 1, "mu": 1.0, "sigma": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterStats(**kwargs)


class TestZScore:
    def test_95_percent(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_99_percent(self):
        assert z_score(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            z_score(1.0)

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.999])
    def test_matches_scipy_norm_ppf(self, confidence):
        from scipy.stats import norm

        expected = norm.ppf(0.5 + confidence / 2.0)
        assert z_score(confidence) == pytest.approx(expected, rel=1e-12)


class TestSingleClusterSampleSize:
    def test_matches_eq3(self):
        """m = ceil((z/eps * sigma/mu)^2)."""
        stats = ClusterStats(n=10_000, mu=10.0, sigma=3.0)
        expected = math.ceil((DEFAULT_Z / 0.05 * 0.3) ** 2)
        assert single_cluster_sample_size(stats, epsilon=0.05) == expected

    def test_zero_variance_needs_one_sample(self):
        stats = ClusterStats(n=100, mu=5.0, sigma=0.0)
        assert single_cluster_sample_size(stats) == 1

    def test_smaller_epsilon_more_samples(self):
        stats = ClusterStats(n=1000, mu=1.0, sigma=0.5)
        m_tight = single_cluster_sample_size(stats, epsilon=0.01)
        m_loose = single_cluster_sample_size(stats, epsilon=0.10)
        assert m_tight > m_loose

    def test_wider_distribution_more_samples(self):
        narrow = ClusterStats(n=1000, mu=1.0, sigma=0.1)
        wide = ClusterStats(n=1000, mu=1.0, sigma=0.8)
        assert single_cluster_sample_size(wide) > single_cluster_sample_size(narrow)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            single_cluster_sample_size(ClusterStats(n=1, mu=1.0, sigma=0.0), epsilon=0)

    def test_predicted_error_meets_bound_at_m(self):
        stats = ClusterStats(n=500, mu=2.0, sigma=1.0)
        m = single_cluster_sample_size(stats, epsilon=0.05)
        assert predicted_error_single(stats, m) <= 0.05

    def test_predicted_error_decreases_with_m(self):
        stats = ClusterStats(n=500, mu=2.0, sigma=1.0)
        assert predicted_error_single(stats, 100) < predicted_error_single(stats, 10)


class TestKktSampleSizes:
    def test_single_cluster_reduces_to_eq3(self):
        stats = ClusterStats(n=5000, mu=7.0, sigma=2.1)
        kkt = kkt_sample_sizes([stats], epsilon=0.05)
        assert kkt[0] == single_cluster_sample_size(stats, epsilon=0.05)

    def test_empty_input(self):
        assert len(kkt_sample_sizes([])) == 0

    def test_zero_variance_cluster_gets_one(self):
        clusters = [
            ClusterStats(n=100, mu=1.0, sigma=0.0),
            ClusterStats(n=100, mu=1.0, sigma=0.5),
        ]
        sizes = kkt_sample_sizes(clusters)
        assert sizes[0] == 1
        assert sizes[1] >= 1

    def test_bound_satisfied(self):
        clusters = [
            ClusterStats(n=1000, mu=5.0, sigma=2.0),
            ClusterStats(n=200, mu=50.0, sigma=10.0),
            ClusterStats(n=50, mu=500.0, sigma=5.0),
        ]
        sizes = kkt_sample_sizes(clusters, epsilon=0.05)
        assert error_bound_satisfied(clusters, sizes, epsilon=0.05)

    def test_joint_beats_per_cluster_on_simulated_time(self):
        """The paper's Sec. 3.3 claim: joint optimization needs less time."""
        clusters = [
            ClusterStats(n=10_000, mu=2.0, sigma=1.0),
            ClusterStats(n=3_000, mu=40.0, sigma=12.0),
            ClusterStats(n=500, mu=300.0, sigma=30.0),
            ClusterStats(n=50_000, mu=0.5, sigma=0.4),
        ]
        joint = kkt_sample_sizes(clusters, epsilon=0.05)
        independent = per_cluster_sample_sizes(clusters, epsilon=0.05)
        tau_joint = predicted_simulated_time(clusters, joint)
        tau_indep = predicted_simulated_time(clusters, independent)
        assert tau_joint < tau_indep
        # Paper observes roughly 2-3x savings on realistic mixes.
        assert tau_indep / tau_joint > 1.3

    def test_high_variance_cluster_gets_more_samples(self):
        clusters = [
            ClusterStats(n=1000, mu=10.0, sigma=0.5),
            ClusterStats(n=1000, mu=10.0, sigma=8.0),
        ]
        sizes = kkt_sample_sizes(clusters, epsilon=0.05)
        assert sizes[1] > sizes[0]

    @given(st.lists(cluster_strategy, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_property_kkt_respects_bound(self, clusters):
        """For ANY cluster mix, the KKT allocation satisfies Eq. (5)."""
        sizes = kkt_sample_sizes(clusters, epsilon=DEFAULT_EPSILON)
        assert (sizes >= 1).all()
        assert error_bound_satisfied(clusters, sizes, epsilon=DEFAULT_EPSILON)

    @given(st.lists(cluster_strategy, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_property_per_cluster_respects_bound(self, clusters):
        sizes = per_cluster_sample_sizes(clusters, epsilon=DEFAULT_EPSILON)
        assert error_bound_satisfied(clusters, sizes, epsilon=DEFAULT_EPSILON)

    @given(st.lists(cluster_strategy, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_property_joint_never_worse(self, clusters):
        """tau(joint) <= tau(per-cluster): ceil slack aside, the KKT point
        minimizes the objective the per-cluster bound also satisfies."""
        joint = kkt_sample_sizes(clusters, epsilon=DEFAULT_EPSILON)
        independent = per_cluster_sample_sizes(clusters, epsilon=DEFAULT_EPSILON)
        tau_joint = predicted_simulated_time(clusters, joint)
        tau_indep = predicted_simulated_time(clusters, independent)
        # Allow ceil-induced slack of one mean per cluster.
        slack = sum(c.mu for c in clusters)
        assert tau_joint <= tau_indep + slack


class TestPredictedErrorMulti:
    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            predicted_error_multi([ClusterStats(n=1, mu=1.0, sigma=0.0)], [1, 2])

    def test_zero_sample_size_rejected(self):
        with pytest.raises(ValueError):
            predicted_error_multi([ClusterStats(n=1, mu=1.0, sigma=0.1)], [0])

    def test_empty_is_zero(self):
        assert predicted_error_multi([], []) == 0.0

    def test_matches_manual_computation(self):
        clusters = [
            ClusterStats(n=100, mu=2.0, sigma=1.0),
            ClusterStats(n=50, mu=10.0, sigma=3.0),
        ]
        sizes = [4, 9]
        variance = (100 * 1.0) ** 2 / 4 + (50 * 3.0) ** 2 / 9
        total = 100 * 2.0 + 50 * 10.0
        expected = DEFAULT_Z * math.sqrt(variance) / total
        assert predicted_error_multi(clusters, sizes) == pytest.approx(expected)
