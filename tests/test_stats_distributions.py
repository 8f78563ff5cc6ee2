"""Unit tests for Zipf laws and power-law fitting."""

import numpy as np
import pytest

from repro.stats.distributions import fit_power_law, zipf_probabilities


class TestZipfProbabilities:
    def test_normalised(self):
        probs = zipf_probabilities(100, 1.1)
        assert probs.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        probs = zipf_probabilities(50, 1.0)
        assert np.all(np.diff(probs) < 0)

    def test_zero_exponent_uniform(self):
        probs = zipf_probabilities(10, 0.0)
        assert np.allclose(probs, 0.1)

    def test_exact_ratio(self):
        probs = zipf_probabilities(3, 1.0)
        assert probs[0] / probs[1] == pytest.approx(2.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)
        with pytest.raises(ValueError):
            zipf_probabilities(5, -1.0)


class TestPowerLawFit:
    def test_recovers_exact_power_law(self):
        x = np.arange(1, 101, dtype=float)
        y = 3.0 * x**-1.5
        fit = fit_power_law(x, y)
        assert fit.slope == pytest.approx(-1.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_data_lower_r_squared(self):
        rng = np.random.default_rng(5)
        x = np.arange(1, 201, dtype=float)
        y = x**-1.0 * rng.lognormal(0, 0.5, size=200)
        fit = fit_power_law(x, y)
        assert 0.3 < fit.r_squared < 1.0

    def test_nonpositive_points_ignored(self):
        x = np.array([0.0, 1.0, 2.0, 4.0])
        y = np.array([5.0, 1.0, 0.5, 0.25])
        fit = fit_power_law(x, y)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2, 3])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [2.0])
