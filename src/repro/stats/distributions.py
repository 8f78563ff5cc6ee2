"""Zipf laws and power-law fitting.

Two uses in the reproduction:

* the synthetic corpus generator weights term ranks by Zipf laws so that raw
  TF distributions follow a power law (paper Fig. 4) and document
  frequencies have the usual heavy head;
* the Fig. 4/5 benchmarks *fit* a power law to measured distributions to
  assert the log-log-linearity claim quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def zipf_probabilities(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf probabilities over ranks ``1..n``: ``p_r ∝ r^-s``."""
    if n <= 0:
        raise ValueError("n must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``log10 y = slope * log10 x + intercept``.

    Attributes
    ----------
    slope / intercept:
        Fit coefficients in log-log space.
    r_squared:
        Coefficient of determination of the log-log fit; close to 1 means
        the data is well described by a power law (straight line on a
        log-log plot — the visual criterion of paper Fig. 4).
    """

    slope: float
    intercept: float
    r_squared: float


def fit_power_law(x, y) -> PowerLawFit:
    """Fit a power law to positive data by least squares in log-log space."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    mask = (x > 0) & (y > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive points to fit")
    lx = np.log10(x[mask])
    ly = np.log10(y[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)
