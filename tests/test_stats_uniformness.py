"""Unit tests for uniformness measures (the Fig. 9 Y-axis)."""

import numpy as np
import pytest

from repro.stats.uniformness import (
    ks_distance,
    ks_distance_to_uniform,
    uniformness_variance,
)


class TestUniformnessVariance:
    def test_perfect_uniform_grid_is_tiny(self):
        n = 1000
        values = (np.arange(1, n + 1)) / (n + 1)
        assert uniformness_variance(values) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_sample_small(self):
        rng = np.random.default_rng(1)
        values = rng.random(5000)
        assert uniformness_variance(values) < 1e-3

    def test_clustered_sample_large(self):
        values = np.full(100, 0.5)
        clustered = uniformness_variance(values)
        rng = np.random.default_rng(2)
        uniform = uniformness_variance(rng.random(100))
        assert clustered > 10 * uniform

    def test_order_invariant(self):
        rng = np.random.default_rng(3)
        values = rng.random(50)
        assert uniformness_variance(values) == pytest.approx(
            uniformness_variance(values[::-1])
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            uniformness_variance([0.5, 1.5])
        with pytest.raises(ValueError):
            uniformness_variance([-0.1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniformness_variance([])

    def test_paper_scale_achievable(self):
        # The paper reports variance < 2e-5 for a well-chosen sigma; a
        # genuinely uniform sample of a few thousand points is in that
        # ballpark, so the measure's scale matches the paper's.
        rng = np.random.default_rng(4)
        values = rng.random(3000)
        assert uniformness_variance(values) < 5e-4


class TestKsDistances:
    def test_uniform_sample_small_distance(self):
        rng = np.random.default_rng(5)
        assert ks_distance_to_uniform(rng.random(2000)) < 0.05

    def test_constant_sample_large_distance(self):
        assert ks_distance_to_uniform(np.full(100, 0.01)) > 0.9

    def test_two_sample_identical(self):
        values = np.linspace(0, 1, 100)
        assert ks_distance(values, values) == pytest.approx(0.0)

    def test_two_sample_disjoint(self):
        a = np.linspace(0.0, 0.1, 50)
        b = np.linspace(0.9, 1.0, 50)
        assert ks_distance(a, b) == pytest.approx(1.0)

    def test_two_sample_symmetric(self):
        rng = np.random.default_rng(6)
        a = rng.random(100)
        b = rng.normal(0.5, 0.1, 100)
        assert ks_distance(a, b) == pytest.approx(ks_distance(b, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])
        with pytest.raises(ValueError):
            ks_distance_to_uniform([])
