"""Bad: core code building its own timer/callback machinery.

Linted as ``repro.core.fixture_mod`` — inside the rule's scope but not
one of the raw-scheduling modules (eventloop itself, router).
"""

import threading
from sched import scheduler
from typing import Any


def spawn_timer(callback: Any) -> Any:
    timer = threading.Timer(1.0, callback)
    timer.start()
    return timer


def schedule_delivery(loop: Any, cluster: Any) -> None:
    # Periodic maintenance hand-rolled as one-shot callbacks instead of
    # a registered EventLoop.every task.
    loop.call_at(3, cluster.replication_tick)
    loop.call_at(4, cluster.replication_tick)
