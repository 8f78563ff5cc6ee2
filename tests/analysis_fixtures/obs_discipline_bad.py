"""Bad fixture: every telemetry discipline violation in one file.

Linted as ``repro.core.fixture_mod`` so the core-scoped sub-rules apply.
"""

from typing import Any


def leak_telemetry(tracer: Any, registry: Any, batch: Any) -> Any:
    # ad-hoc stdout telemetry instead of the registry
    print("served", len(batch), "slices")

    # span opened outside a `with` — leaks open on exception
    span = tracer.span("serve", slices=len(batch))

    # the core must not create instruments at all
    served = registry.counter("cluster_reads_total")
    depth = registry.gauge("coordinator_queue_depth")
    lag = registry.histogram("cluster_read_lag_ticks")
    return span, served, depth, lag
