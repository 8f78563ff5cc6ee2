"""Fig. 9 — TRS variance in the control set as a function of σ.

The paper's curve: decreasing to a minimum (an optimal σ), then rising
again as overfitting sets in; a good σ achieves variance < 2e-5 on their
collections.  We regenerate the sweep for a frequent term of the
StudIP-like collection, assert the U-shape, and additionally benchmark the
paper's "future work" direct σ estimator (an ablation: σ from the spacing
of the training scores, with no sweep) against the cross-validated optimum.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_series
from repro.core.scoring import extract_term_scores
from repro.core.sigma import (
    default_sigma_grid,
    heuristic_sigma,
    select_sigma,
    trs_variance_for_sigma,
)
from repro.stats.crossval import train_control_split


def _train_control(collection):
    """The paper's split: 30% training sample, 1/3 of it as control."""
    rng = np.random.default_rng(17)
    sample = collection.corpus.sample(0.30, rng)
    term_scores = extract_term_scores(
        collection.corpus.stats(d.doc_id) for d in sample
    )
    term = max(term_scores, key=lambda t: len(term_scores[t]))
    train, control = train_control_split(
        term_scores[term], control_fraction=1 / 3, rng=rng
    )
    return term, train, control


def test_fig09_sigma_sweep_u_shape(benchmark, studip):
    term, train, control = _train_control(studip)
    grid = default_sigma_grid(minimum=0.5, maximum=1e6, points=27)

    def measure():
        return select_sigma(train, control, grid=grid)

    selection = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = [
        [f"{s:.2f}", f"{v:.3e}"]
        for s, v in zip(selection.sigmas, selection.variances)
    ]
    print_series(
        f"Fig. 9: TRS variance vs sigma (term {term!r}, "
        f"{len(train)} train / {len(control)} control scores)",
        ["sigma", "variance"],
        rows,
    )
    print_series(
        "Fig. 9: optimum",
        ["best sigma", "best variance"],
        [[f"{selection.best_sigma:.2f}", f"{selection.best_variance:.3e}"]],
    )

    # Shape: interior minimum with both extremes clearly worse.  (Strict
    # point-wise monotonicity is too brittle on the overfitting plateau,
    # where the staircase RSTF makes the variance fluctuate slightly.)
    assert 0 < selection.best_index < len(selection.sigmas) - 1
    assert selection.variances[0] > 10 * selection.best_variance
    assert selection.variances[-1] > 1.5 * selection.best_variance
    # Scale: the optimum variance is in the small-variance regime (paper:
    # < 2e-5 at their corpus scale; our control sets are far smaller and
    # hence noisier — assert < 2e-3).
    assert selection.best_variance < 2e-3


def test_fig09_direct_sigma_estimator_ablation(benchmark, studip):
    """Ablation: the spacing heuristic lands near the CV optimum, so a
    costly training run can skip the sweep."""
    term, train, control = _train_control(studip)

    def measure():
        return heuristic_sigma(train)

    direct = benchmark.pedantic(measure, rounds=1, iterations=1)
    selection = select_sigma(train, control)
    v_direct = trs_variance_for_sigma(train, control, direct)

    print_series(
        "Fig. 9 ablation: direct estimator vs cross-validation",
        ["method", "sigma", "control variance"],
        [
            ["cross-validation", f"{selection.best_sigma:.2f}", f"{selection.best_variance:.3e}"],
            ["direct (spacing)", f"{direct:.2f}", f"{v_direct:.3e}"],
        ],
    )
    # The direct estimate must stay within an order of magnitude of the CV
    # optimum's quality — good enough to skip CV when training is costly.
    assert v_direct < 10 * selection.best_variance + 1e-6


def test_fig09_erf_vs_logistic_kind(benchmark, studip):
    """Ablation: Eq. 8's logistic approximation vs. the exact erf integral
    of the Gaussian it stands for."""
    term, train, control = _train_control(studip)
    grid = default_sigma_grid(minimum=0.5, maximum=1e6, points=15)

    def measure():
        return {
            kind: select_sigma(train, control, grid=grid, kind=kind)
            for kind in ("logistic", "erf")
        }

    selections = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_series(
        "Fig. 9 ablation: curve family",
        ["kind", "best sigma", "best variance"],
        [
            [kind, f"{sel.best_sigma:.2f}", f"{sel.best_variance:.3e}"]
            for kind, sel in selections.items()
        ],
    )
    # Both families uniformise comparably (within 5x of each other).
    v_log = selections["logistic"].best_variance
    v_erf = selections["erf"].best_variance
    assert v_log < 5 * v_erf + 1e-6
    assert v_erf < 5 * v_log + 1e-6
