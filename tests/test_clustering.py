"""Tests for k-means, KDE peak counting, and silhouette diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    count_kde_peaks,
    kmeans,
    kmeans_1d,
    silhouette_score,
)


class TestKMeans:
    def test_recovers_two_separated_clusters(self, rng):
        pts = np.concatenate([rng.normal(0, 0.1, 100), rng.normal(10, 0.1, 50)])
        result = kmeans_1d(pts, 2, rng=rng)
        centers = np.sort(result.centers.ravel())
        assert abs(centers[0] - 0) < 0.5
        assert abs(centers[1] - 10) < 0.5
        sizes = sorted(len(m) for m in result.cluster_indices())
        assert sizes == [50, 100]

    def test_multidimensional(self, rng):
        a = rng.normal([0, 0], 0.1, size=(60, 2))
        b = rng.normal([5, 5], 0.1, size=(40, 2))
        result = kmeans(np.vstack([a, b]), 2, rng=rng)
        assert result.k == 2
        labels_a = result.labels[:60]
        assert len(np.unique(labels_a)) == 1  # all of A in one cluster

    def test_k_greater_than_n(self, rng):
        pts = np.array([1.0, 2.0])
        result = kmeans_1d(pts, 5, rng=rng)
        assert result.centers.shape == (5, 1)
        assert set(result.labels) <= {0, 1}

    def test_single_point(self, rng):
        result = kmeans_1d(np.array([3.0]), 2, rng=rng)
        assert result.labels[0] in (0, 1)

    def test_identical_points(self, rng):
        result = kmeans_1d(np.full(50, 7.0), 2, rng=rng)
        assert result.inertia == pytest.approx(0.0)

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans_1d(np.array([]), 2, rng=rng)

    def test_invalid_k_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans_1d(np.arange(5.0), 0, rng=rng)

    def test_labels_cover_all_points(self, rng):
        pts = rng.random(200)
        result = kmeans_1d(pts, 3, rng=rng)
        assert len(result.labels) == 200
        total = sum(len(m) for m in result.cluster_indices())
        assert total == 200

    def test_inertia_decreases_with_k(self, rng):
        pts = rng.random(300)
        i2 = kmeans_1d(pts, 2, rng=np.random.default_rng(0)).inertia
        i8 = kmeans_1d(pts, 8, rng=np.random.default_rng(0)).inertia
        assert i8 < i2

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=10, max_value=80))
    @settings(max_examples=15, deadline=None)
    def test_property_partition(self, k, n):
        rng = np.random.default_rng(n * 31 + k)
        pts = rng.random(n)
        result = kmeans_1d(pts, k, rng=rng)
        members = np.concatenate(result.cluster_indices())
        assert np.array_equal(np.sort(members), np.arange(n))


class TestKdePeaks:
    def test_unimodal(self, rng):
        assert count_kde_peaks(rng.normal(5, 0.5, 800)) == 1

    def test_bimodal(self, rng):
        vals = np.concatenate([rng.normal(0, 0.3, 500), rng.normal(10, 0.3, 500)])
        assert count_kde_peaks(vals) == 2

    def test_trimodal(self, rng):
        vals = np.concatenate(
            [rng.normal(0, 0.2, 400), rng.normal(5, 0.2, 400), rng.normal(10, 0.2, 400)]
        )
        assert count_kde_peaks(vals) == 3

    def test_constant_sample(self):
        assert count_kde_peaks(np.full(100, 2.0)) == 1

    def test_tiny_sample(self):
        assert count_kde_peaks(np.array([1.0, 2.0])) == 1
        assert count_kde_peaks(np.array([])) == 0


def _scipy_kde_peaks(values, bandwidth=None, grid_points=256, min_prominence=0.02):
    """The peak counter as it stood on ``scipy.stats.gaussian_kde``."""
    from scipy.stats import gaussian_kde

    vals = np.asarray(values, dtype=np.float64)
    if len(vals) < 3 or np.ptp(vals) == 0:
        return 1 if len(vals) else 0
    lo, hi = vals.min(), vals.max()
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, grid_points)
    density = gaussian_kde(vals, bw_method=bandwidth)(grid)
    interior = density[1:-1]
    peaks = (interior > density[:-2]) & (interior >= density[2:])
    significant = interior > min_prominence * density.max()
    return max(1, int(np.count_nonzero(peaks & significant)))


def _fuzz_sample(seed):
    """1-5 Gaussian modes; every third sample rounded to integer ties,
    every third rescaled by 1000."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    centers = rng.uniform(0.0, 20.0, k)
    widths = rng.uniform(0.1, 2.0, k)
    which = rng.integers(0, k, int(rng.integers(3, 400)))
    values = rng.normal(centers[which], widths[which])
    if seed % 3 == 1:
        values = np.round(values)
    elif seed % 3 == 2:
        values = values * 1000.0
    return values


class TestKdeScipyParity:
    """The numpy KDE counts the peaks scipy's ``gaussian_kde`` did."""

    @pytest.mark.parametrize("bandwidth", [None, 0.1, 0.3])
    def test_matches_scipy_on_seeded_fuzz_set(self, bandwidth):
        mismatches = [
            seed
            for seed in range(300)
            if count_kde_peaks(_fuzz_sample(seed), bandwidth=bandwidth)
            != _scipy_kde_peaks(_fuzz_sample(seed), bandwidth=bandwidth)
        ]
        assert mismatches == []

    def test_zero_bandwidth_is_rejected(self):
        # scipy raised LinAlgError (a ValueError) on the singular kernel.
        with pytest.raises(ValueError):
            count_kde_peaks(np.array([1.0, 2.0, 3.0, 5.0]), bandwidth=0.0)

    def test_fuzz_set_spans_one_to_many_peaks(self):
        counts = {_scipy_kde_peaks(_fuzz_sample(seed)) for seed in range(300)}
        assert {1, 2, 3, 4} <= counts

    def test_large_input_memory_is_blocked(self):
        """2M values never materialise an n x grid kernel matrix.

        A 32-point grid keeps the test near a second: unblocked, its
        matrix alone is 512 MB, 16x the bound (at the default 256 points
        it would be 4 GB).  The bound leaves room for one n-length
        temporary (16 MB, the variance) plus the blocks.
        """
        import tracemalloc

        rng = np.random.default_rng(7)
        values = np.concatenate(
            [rng.normal(0.0, 1.0, 1_000_000), rng.normal(8.0, 1.0, 1_000_000)]
        )
        tracemalloc.start()
        try:
            peaks = count_kde_peaks(values, grid_points=32)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peaks == 2
        assert peak_bytes < 32 * 2**20


class TestSilhouette:
    def test_separated_clusters_score_high(self, rng):
        pts = np.concatenate([rng.normal(0, 0.1, 40), rng.normal(10, 0.1, 40)])
        labels = np.array([0] * 40 + [1] * 40)
        assert silhouette_score(pts, labels) > 0.9

    def test_random_labels_score_low(self, rng):
        pts = rng.random(60)
        labels = rng.integers(0, 2, 60)
        assert silhouette_score(pts, labels) < 0.5

    def test_single_cluster_returns_zero(self, rng):
        pts = rng.random(20)
        assert silhouette_score(pts, np.zeros(20, dtype=int)) == 0.0

    def test_size_cap_raises_typed_error(self):
        from repro.core.clustering import SILHOUETTE_MAX_POINTS
        from repro.errors import ReproError

        n = SILHOUETTE_MAX_POINTS + 1
        pts = np.zeros(n)
        labels = np.arange(n) % 2
        with pytest.raises(ReproError, match="max_points"):
            silhouette_score(pts, labels)

    def test_size_cap_override(self, rng):
        from repro.core.clustering import SILHOUETTE_MAX_POINTS
        from repro.errors import ReproError

        pts = np.concatenate([rng.normal(0, 0.1, 30), rng.normal(10, 0.1, 30)])
        labels = np.array([0] * 30 + [1] * 30)
        # Tighter cap rejects; explicit higher cap admits the same data.
        with pytest.raises(ReproError):
            silhouette_score(pts, labels, max_points=10)
        assert silhouette_score(pts, labels, max_points=60) > 0.9
