"""Good fixture: the sanctioned telemetry idioms.

Linted as ``repro.core.fixture_mod`` so the core-scoped sub-rules apply.
"""

from typing import Any


def serve_with_discipline(tracer: Any, obs: Any, batch: Any) -> Any:
    # spans are context-managed, so they close even on exception
    with tracer.span("serve", slices=len(batch)) as span:
        span.annotate(done=True)

    # session roots are the one sanctioned non-context pair
    trace_id = tracer.begin_trace("query", terms=2)
    tracer.end_trace(trace_id)

    # the core records through pre-bound instruments, never factories
    obs.reads.inc(1.0, consistency="one")
    obs.read_lag_ticks.observe(0.0, consistency="one")
    return trace_id
