"""Good (linted as a repro.core module): seeded generators, tick clock."""

import random
from typing import Any

import numpy as np


def jitter(seed: int, clock: Any) -> float:
    rng = np.random.default_rng(seed)
    local = random.Random(seed)
    return clock.tick_count + rng.random() + local.random()
