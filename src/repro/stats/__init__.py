"""Statistics substrate: Gaussian-sum models, Zipf laws, CV, uniformness."""

from repro.stats.gaussian import (
    gaussian_pdf,
    gaussian_sum_pdf,
    gaussian_sum_cdf,
    logistic_sum_cdf,
)
from repro.stats.distributions import (
    zipf_probabilities,
    fit_power_law,
    PowerLawFit,
)
from repro.stats.crossval import train_control_split
from repro.stats.uniformness import (
    uniformness_variance,
    ks_distance_to_uniform,
)

__all__ = [
    "gaussian_pdf",
    "gaussian_sum_pdf",
    "gaussian_sum_cdf",
    "logistic_sum_cdf",
    "zipf_probabilities",
    "fit_power_law",
    "PowerLawFit",
    "train_control_split",
    "uniformness_variance",
    "ks_distance_to_uniform",
]
