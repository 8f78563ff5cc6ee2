"""Bad (linted as a repro.core module): wall clock, unseeded entropy and
a host timer racing the coordinator's tick agenda."""

import random
import threading
import time
from sched import scheduler

import numpy as np


def jitter() -> float:
    started = time.time()
    rng = np.random.default_rng()
    pick = random.random()
    return started + rng.random() + pick


def spawn_timer(callback: object) -> scheduler:
    threading.Timer(1.0, callback).start()
    return scheduler()
