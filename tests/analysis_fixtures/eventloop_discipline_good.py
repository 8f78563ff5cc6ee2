"""Good: periodic core work registered through the event loop.

Linted as ``repro.core.fixture_mod`` — scheduling goes through
``EventLoop.every``, which is allowed everywhere in the core.
"""

from typing import Any


def register_maintenance(loop: Any, cluster: Any) -> None:
    loop.every(1, cluster.replication_tick)
    loop.every(4, cluster.anti_entropy)


def drive(loop: Any) -> Any:
    loop.advance(1)
    return loop.run_until_quiet()
