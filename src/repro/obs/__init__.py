"""``repro.obs`` — dependency-free unified telemetry.

Two cooperating pieces, all injectable and all deterministic under
the ``repro.core`` rules (tick clock only, no wall time, no global
state):

* **Metrics** — :class:`MetricsRegistry` hands out catalog-validated
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments
  with labeled series, and snapshots them.  The closed catalog lives in
  :data:`METRIC_CATALOG`.  The layers' ``*Stats`` dataclasses are the
  one store of their cumulative counts; each is exported as one counter
  family labeled by field name (``coordinator_stats_total{field=...}``,
  ``replication_stats_total``, ``views_stats_total``), summed over every
  source registered on the telemetry.
* **Tracing** — :class:`Tracer` records per-request span trees
  (query → coalesce → read-repair, query → skim), tick-stamped, in a
  bounded ring buffer; the trace-context id rides the wire on
  ``FetchRequest``.

:class:`Telemetry` bundles a registry and a tracer into the single
object threaded through ``deploy_cluster`` and the layer constructors;
``repro.obs.instruments`` holds the per-layer bound-instrument bundles
so ``repro.core`` never names a metric itself (the ``obs-discipline``
zlint rule enforces this).  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    metrics_to_json,
    metrics_to_text,
    trace_to_json,
    trace_to_text,
)
from repro.obs.instruments import Telemetry
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.registry import METRIC_CATALOG, MetricsRegistry
from repro.obs.trace import Span, Trace, Tracer

__all__ = [
    "METRIC_CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Trace",
    "Tracer",
    "metrics_to_json",
    "metrics_to_text",
    "trace_to_json",
    "trace_to_text",
]
