"""Train/control splitting used for σ selection (paper §5.1.3, §6.1.2).

The paper: "we randomly selected 30% of the documents from each data set as
a training set.  We randomly chose about one third from the initial sample
for the control set and used the rest as training data and minimized
variance among the TRS values using cross-validation."
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

import numpy as np

T = TypeVar("T")


def train_control_split(
    items: Sequence[T],
    control_fraction: float = 1.0 / 3.0,
    rng: np.random.Generator | None = None,
) -> tuple[list[T], list[T]]:
    """Randomly partition *items* into (training, control) sets.

    ``control_fraction`` of the items (rounded down, but at least one item
    on each side when ``len(items) >= 2``) go to the control set.
    """
    if not 0.0 < control_fraction < 1.0:
        raise ValueError("control_fraction must be in (0, 1)")
    rng = rng if rng is not None else np.random.default_rng()
    n = len(items)
    if n < 2:
        return list(items), []
    n_control = int(n * control_fraction)
    n_control = min(max(n_control, 1), n - 1)
    perm = rng.permutation(n)
    control_idx = set(perm[:n_control].tolist())
    train = [items[i] for i in range(n) if i not in control_idx]
    control = [items[i] for i in range(n) if i in control_idx]
    return train, control
