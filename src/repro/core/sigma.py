"""σ selection for the RSTF (paper §5.1.3, Fig. 9).

The σ parameter is the steepness of the logistic/Gaussian bells: too small
and the RSTF over-smooths (TRS values bunch in the middle of [0, 1]); too
large and it memorises the training points (overfitting — control scores
that fall *between* training points all map near bell plateaus).  The paper
selects σ by cross-validation: transform a held-out control set and measure
how far the TRS distribution is from uniform; the optimal σ minimises that
variance (Fig. 9's U-shaped curve).

The paper leaves "directly determining an optimal σ" as future work; we
implement the natural direct estimator as :func:`heuristic_sigma` (bell
width matched to the mean spacing of the training scores) and benchmark it
against CV in ``benchmarks/bench_fig09_sigma_selection.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.stats.gaussian import gaussian_sum_cdf, logistic_sum_cdf
from repro.stats.uniformness import uniformness_variance


def default_sigma_grid(
    minimum: float = 1.0, maximum: float = 1e5, points: int = 25
) -> tuple[float, ...]:
    """Log-spaced σ candidates covering under- to over-fitting regimes."""
    if minimum <= 0 or maximum <= minimum:
        raise ValueError("need 0 < minimum < maximum")
    if points < 2:
        raise ValueError("need at least two grid points")
    return tuple(np.geomspace(minimum, maximum, points).tolist())


def trs_variance_for_sigma(
    train_scores: Sequence[float],
    control_scores: Sequence[float],
    sigma: float,
    kind: str = "logistic",
) -> float:
    """Uniformness variance of the control TRS under σ (Fig. 9's Y-axis)."""
    if not train_scores:
        raise ValueError("empty training scores")
    if not control_scores:
        raise ValueError("empty control scores")
    mus = np.asarray(sorted(train_scores), dtype=float)
    x = np.asarray(control_scores, dtype=float)
    if kind == "logistic":
        trs = logistic_sum_cdf(x, mus, sigma)
    elif kind == "erf":
        trs = gaussian_sum_cdf(x, mus, sigma)
    else:
        raise ValueError("kind must be logistic|erf")
    return uniformness_variance(trs)


@dataclass(frozen=True)
class SigmaSelection:
    """Result of a σ sweep: the Fig. 9 curve plus its argmin.

    Attributes
    ----------
    sigmas / variances:
        The sweep grid and the control-set TRS variance at each σ.
    best_sigma / best_variance:
        The infimum of the variance curve (paper: "An optimal σ for a
        particular term is the infimum of the variance function").
    """

    sigmas: tuple[float, ...]
    variances: tuple[float, ...]

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.variances))

    @property
    def best_sigma(self) -> float:
        return self.sigmas[self.best_index]

    @property
    def best_variance(self) -> float:
        return self.variances[self.best_index]


def select_sigma(
    train_scores: Sequence[float],
    control_scores: Sequence[float],
    grid: Sequence[float] | None = None,
    kind: str = "logistic",
) -> SigmaSelection:
    """Sweep σ over *grid* and return the full curve with its minimum."""
    grid = tuple(grid) if grid is not None else default_sigma_grid()
    if not grid:
        raise ValueError("empty sigma grid")
    variances = tuple(
        trs_variance_for_sigma(train_scores, control_scores, sigma, kind=kind)
        for sigma in grid
    )
    return SigmaSelection(sigmas=grid, variances=variances)


def heuristic_sigma(scores: Sequence[float]) -> float:
    """Direct σ estimate: bell width ≈ mean spacing of training scores.

    With N training scores spanning range ``w``, uniformising works best
    when each logistic step has width comparable to the gap between
    neighbouring scores, i.e. steepness σ ≈ N / w.  Degenerate inputs
    (single score, zero range) fall back to a width derived from the score
    magnitude so that the function is always usable.

    This is the reproduction's implementation of the paper's "future
    research" direction (§5.1.3); Fig. 9's benchmark compares it to CV.
    """
    arr = np.asarray(list(scores), dtype=float)
    if arr.size == 0:
        raise ValueError("empty score set")
    spread = float(arr.max() - arr.min())
    if spread > 0:
        sigma = arr.size / spread
        # A denormal spread (e.g. max - min == 5e-324) overflows the
        # division; such scores are numerically identical — fall through
        # to the equal-scores rule rather than returning inf.
        if np.isfinite(sigma):
            return sigma
    # All scores equal: any monotonic curve through the point works;
    # pick a bell width of 10% of the score (or an absolute floor).
    scale = max(abs(float(arr[0])) * 0.1, 1e-4)
    return 1.0 / scale
