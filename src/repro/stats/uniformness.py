"""Uniformness measures for TRS distributions (paper §5.1.3, Fig. 9).

The paper's criterion: "we compute the variance in the distribution of the
TRS values of a particular term in the control set with respect to a uniform
distribution, that is, how far the TRS distribution is from a uniform
distribution."

We realise that as the mean squared deviation between the sorted control TRS
values and the order statistics of the uniform distribution on [0, 1]
(``E[U_(i)] = i / (n + 1)``).  A perfectly uniform sample scores ~0; the
paper reports achievable values below 2e-5.  A Kolmogorov–Smirnov distance
is provided as a second, scale-free check used by the attack modules.
"""

from __future__ import annotations

import numpy as np


def uniformness_variance(values) -> float:
    """Mean squared deviation of sorted *values* from uniform order statistics.

    Values must lie in [0, 1]; raises :class:`ValueError` otherwise (a TRS
    outside the range indicates an RSTF bug, not a statistical outcome).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("values must lie in [0, 1]")
    arr = np.sort(np.clip(arr, 0.0, 1.0))
    n = arr.size
    expected = np.arange(1, n + 1, dtype=float) / (n + 1)
    return float(((arr - expected) ** 2).mean())


def ks_distance_to_uniform(values) -> float:
    """Kolmogorov–Smirnov distance between *values* and Uniform[0, 1]."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("need at least one value")
    n = arr.size
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - arr)
    d_minus = np.max(arr - (i - 1) / n)
    return float(max(d_plus, d_minus))


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov–Smirnov distance between samples *a* and *b*."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    data = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, data, side="right") / a.size
    cdf_b = np.searchsorted(b, data, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
