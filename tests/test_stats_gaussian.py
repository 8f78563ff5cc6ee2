"""Unit tests for the Gaussian-sum / logistic machinery (Eq. 5–8)."""

import numpy as np
import pytest

from repro.stats.gaussian import (
    gaussian_pdf,
    gaussian_sum_cdf,
    gaussian_sum_pdf,
    logistic_sum_cdf,
)


class TestGaussianPdf:
    def test_peak_at_mean(self):
        x = np.linspace(-1, 1, 201)
        values = gaussian_pdf(x, mu=0.2, sigma=5.0)
        assert x[np.argmax(values)] == pytest.approx(0.2, abs=0.02)

    def test_sigma_is_steepness(self):
        # Higher sigma = narrower bell = taller peak (paper convention).
        low = gaussian_pdf(0.0, mu=0.0, sigma=1.0)
        high = gaussian_pdf(0.0, mu=0.0, sigma=10.0)
        assert high > low

    def test_integrates_to_one(self):
        x = np.linspace(-5, 5, 20001)
        values = gaussian_pdf(x, mu=0.0, sigma=2.0)
        assert np.trapezoid(values, x) == pytest.approx(1.0, abs=1e-4)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_pdf(0.0, sigma=0.0)


class TestSums:
    MUS = [0.1, 0.2, 0.4, 0.7]

    def test_sum_pdf_is_mean_of_bells(self):
        x = 0.2
        individual = [gaussian_pdf(x, mu=m, sigma=20.0) for m in self.MUS]
        combined = gaussian_sum_pdf(x, self.MUS, sigma=20.0)
        assert float(combined) == pytest.approx(float(np.mean(individual)))

    def test_sum_cdf_limits(self):
        assert float(gaussian_sum_cdf(100.0, self.MUS, 20.0)) == pytest.approx(1.0)
        assert float(gaussian_sum_cdf(-100.0, self.MUS, 20.0)) == pytest.approx(0.0)

    def test_logistic_sum_cdf_monotone(self):
        x = np.linspace(0, 1, 101)
        values = logistic_sum_cdf(x, self.MUS, sigma=50.0)
        assert np.all(np.diff(values) >= 0)

    def test_logistic_approximates_erf_form(self):
        # The two curve families agree qualitatively: same midpoints, both
        # in [0,1]; check values stay within a coarse tolerance with
        # steepness-matched parameters (logistic(x) ≈ Φ(1.702x)).
        x = np.linspace(0.0, 1.0, 51)
        logistic = logistic_sum_cdf(x, self.MUS, sigma=1.702 * 30.0)
        erf = gaussian_sum_cdf(x, self.MUS, sigma=30.0)
        assert np.max(np.abs(logistic - erf)) < 0.05

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            logistic_sum_cdf(0.5, [], sigma=10.0)
        with pytest.raises(ValueError):
            gaussian_sum_pdf(0.5, [], sigma=10.0)

    def test_scalar_and_array_agree(self):
        scalar = float(logistic_sum_cdf(0.3, self.MUS, 25.0))
        array = logistic_sum_cdf(np.array([0.3]), self.MUS, 25.0)
        assert scalar == pytest.approx(float(array[0]))
