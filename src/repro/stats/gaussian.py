"""Gaussian-sum density and CDF machinery behind the RSTF (paper §5.1).

The paper models the relevance-score density of a term as a sum of Gaussian
bells, one per training value (Eq. 5)::

    f(x) = (1/N) * sum_i  N(x; mu_i, sigma)

and the RSTF as its integral (Eq. 6).  Eq. 7 approximates the Gaussian
integral with a logistic curve, giving the closed form of Eq. 8::

    RSTF(x) ~= (1/N) * sum_i  1 / (1 + exp(-sigma * (x - mu_i)))

Note the paper's σ convention: in Eq. 8 σ acts as the *steepness* of the
logistic — "Smaller σ means a broader Gaussian bell … Higher σ value means a
narrower bell" (§5.1.3).  We follow that convention throughout: ``sigma`` is
a steepness (inverse-scale) parameter, and the exact error-function variant
uses bell width ``1/sigma``.

All functions accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def gaussian_pdf(x, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """Density of N(mu, (1/sigma)^2) at *x*, with σ as steepness.

    With the paper's convention the bell *width* is ``1/sigma``, so the
    standard formula with scale ``s = 1/sigma`` applies.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    scale = 1.0 / sigma
    z = (_as_array(x) - mu) / scale
    return _INV_SQRT_2PI / scale * np.exp(-0.5 * z * z)


def _erf(z: np.ndarray) -> np.ndarray:
    """Vectorised error function.

    Uses :func:`math.erf` elementwise; accurate to double precision, and the
    array sizes involved in RSTF evaluation (training sets of at most a few
    thousand points) keep this fast enough.
    """
    z = _as_array(z)
    if z.ndim == 0:
        return np.asarray(math.erf(float(z)))
    flat = np.array([math.erf(v) for v in z.ravel()])
    return flat.reshape(z.shape)


def gaussian_sum_pdf(x, mus, sigma: float) -> np.ndarray:
    """Gaussian-sum density (Eq. 5): mean of bells centred at ``mus``."""
    mus = _as_array(mus)
    if mus.size == 0:
        raise ValueError("at least one training value is required")
    x = _as_array(x)
    # Broadcast: result[i] = mean_j pdf(x[i]; mus[j], sigma)
    diffs = x[..., None] - mus[None, ...] if x.ndim else x - mus
    scale = 1.0 / sigma
    z = diffs / scale
    vals = _INV_SQRT_2PI / scale * np.exp(-0.5 * z * z)
    return vals.mean(axis=-1)


def gaussian_sum_cdf(x, mus, sigma: float) -> np.ndarray:
    """Exact integral of the Gaussian-sum density (Eq. 6)."""
    mus = _as_array(mus)
    if mus.size == 0:
        raise ValueError("at least one training value is required")
    x = _as_array(x)
    diffs = x[..., None] - mus[None, ...] if x.ndim else x - mus
    scale = 1.0 / sigma
    z = diffs / (scale * _SQRT2)
    return (0.5 * (1.0 + _erf(z))).mean(axis=-1)


def logistic_sum_cdf(x, mus, sigma: float) -> np.ndarray:
    """Closed-form RSTF of Eq. 8: mean of logistic curves at ``mus``.

    This is the function Zerber+R publishes per term at index
    initialisation time.
    """
    mus = _as_array(mus)
    if mus.size == 0:
        raise ValueError("at least one training value is required")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = _as_array(x)
    diffs = x[..., None] - mus[None, ...] if x.ndim else x - mus
    z = np.clip(-sigma * diffs, -700.0, 700.0)
    return (1.0 / (1.0 + np.exp(z))).mean(axis=-1)
