"""The injectable metrics registry and the closed metric catalog.

Every metric the system may emit is declared here, once, as a
:class:`MetricSpec` in :data:`METRIC_CATALOG`.  Instrument creation
(:meth:`MetricsRegistry.counter` / ``gauge`` / ``histogram``) validates
the name and kind against the catalog, so a typo'd or undeclared metric
fails loudly at wiring time instead of silently forking the namespace.
The ``obs-discipline`` zlint rule mirrors the catalog names statically
(``repro.analysis.checkers.obs``) and a drift-guard test keeps the two
in sync, the same way the consistency-enum mirrors are guarded.

The registry is process-global-free: callers construct one (usually via
:class:`~repro.obs.instruments.Telemetry`) and inject it.  Cheap live
counters that already exist as ``*Stats`` dataclasses are mirrored in
at snapshot time through *collectors* (:meth:`register_collector`), so
the hot paths keep their single-attribute increments and no existing
caller breaks.

``snapshot`` → ``reset`` → ``merge_snapshot`` round-trips: counters and
histogram buckets add, gauges are right-biased.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TICK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
)


@dataclass(frozen=True)
class MetricSpec:
    """One catalog entry: name, kind, unit, and (histograms) buckets."""

    name: str
    kind: str
    help: str
    unit: str = ""
    buckets: tuple[float, ...] | None = None


def _stats_counters(prefix: str, fields: tuple[str, ...], unit: str = "") -> tuple[MetricSpec, ...]:
    return tuple(
        MetricSpec(
            name=f"{prefix}_{field}_total",
            kind="counter",
            help=f"cumulative {field.replace('_', ' ')} (mirrored from {prefix} stats)",
            unit=unit,
        )
        for field in fields
    )


#: Fields of ``CoordinatorStats`` mirrored as counters by the collector.
COORDINATOR_STAT_FIELDS: tuple[str, ...] = (
    "ticks",
    "server_calls",
    "slices_requested",
    "slices_sent",
    "sessions_completed",
    "sessions_spilled",
    "stale_epoch_reroutes",
    "backpressure_sheds",
    "pipeline_overlap",
)

#: Fields of ``ReplicationStats`` mirrored as counters (``max_staleness_seen``
#: is a high-water mark and becomes the ``replication_max_staleness`` gauge).
REPLICATION_STAT_FIELDS: tuple[str, ...] = (
    "ticks",
    "ops_logged",
    "follower_ops_applied",
    "stale_reads_detected",
    "read_repairs",
    "repair_ops",
    "read_reserves",
    "anti_entropy_runs",
    "anti_entropy_syncs",
    "anti_entropy_ops",
    "version_probes",
    "write_ack_syncs",
    "write_ack_ops",
    "failovers",
    "failover_ops",
    "floor_reserves",
)

#: Fields of ``ViewStats`` mirrored as counters by the collector.
VIEW_STAT_FIELDS: tuple[str, ...] = (
    "hits",
    "misses",
    "full_builds",
    "stale_rebuilds",
    "incremental_updates",
    "replication_patches",
    "evictions",
    "invalidations",
)

METRIC_CATALOG: tuple[MetricSpec, ...] = (
    # -- coordinator ------------------------------------------------------
    *_stats_counters("coordinator", COORDINATOR_STAT_FIELDS),
    MetricSpec(
        "coordinator_queue_depth",
        "gauge",
        "sessions active at the start of the current scheduling tick",
        unit="sessions",
    ),
    MetricSpec(
        "coordinator_envelope_slices",
        "histogram",
        "slices coalesced into one per-server envelope",
        unit="slices",
        buckets=DEFAULT_SIZE_BUCKETS,
    ),
    MetricSpec(
        "coordinator_session_rounds",
        "histogram",
        "scheduling rounds a completed session took",
        unit="rounds",
        buckets=DEFAULT_SIZE_BUCKETS,
    ),
    # -- cluster read/write paths ----------------------------------------
    MetricSpec(
        "cluster_reads_total",
        "counter",
        "slice reads served, labeled by read consistency level",
        unit="slices",
    ),
    MetricSpec(
        "cluster_writes_total",
        "counter",
        "acknowledged write ops, labeled by write consistency level",
        unit="ops",
    ),
    MetricSpec(
        "cluster_read_lag_ticks",
        "histogram",
        "ticks until the serving replica would be caught up, per read "
        "consistency level (0 = served at the log head)",
        unit="ticks",
        buckets=DEFAULT_TICK_BUCKETS,
    ),
    MetricSpec(
        "cluster_read_staleness",
        "histogram",
        "version gap observed by reads that landed on a diverged replica",
        unit="versions",
        buckets=DEFAULT_SIZE_BUCKETS,
    ),
    MetricSpec(
        "cluster_quorum_write_refusals_total",
        "counter",
        "writes refused because the replica roster could not form a quorum",
        unit="writes",
    ),
    MetricSpec(
        "cluster_server_load",
        "gauge",
        "cumulative slices served per server",
        unit="slices",
    ),
    # -- replication ------------------------------------------------------
    *_stats_counters("replication", REPLICATION_STAT_FIELDS),
    MetricSpec(
        "replication_max_staleness",
        "gauge",
        "worst version gap any read has observed (high-water mark)",
        unit="versions",
    ),
    MetricSpec(
        "replication_ack_latency_ticks",
        "histogram",
        "ticks between logging a write and a scheduled follower applying it",
        unit="ticks",
        buckets=DEFAULT_TICK_BUCKETS,
    ),
    MetricSpec(
        "replication_log_length",
        "gauge",
        "retained replication-log entries, labeled per list",
        unit="ops",
    ),
    MetricSpec(
        "replication_follower_backlog",
        "gauge",
        "log ops a server still lacks, summed over the lists it holds",
        unit="ops",
    ),
    # -- readable views ---------------------------------------------------
    *_stats_counters("views", VIEW_STAT_FIELDS),
    # -- crypto skim ------------------------------------------------------
    MetricSpec(
        "crypto_skim_elements_total",
        "counter",
        "posting elements pushed through the decrypt skim",
        unit="elements",
    ),
    MetricSpec(
        "crypto_skim_memo_hits_total",
        "counter",
        "skim elements answered by the verified-decoded memo (decode skipped too)",
        unit="elements",
    ),
    # -- persistence ------------------------------------------------------
    MetricSpec(
        "persist_snapshots_total",
        "counter",
        "cluster snapshots written",
        unit="snapshots",
    ),
    MetricSpec(
        "persist_snapshot_bytes",
        "gauge",
        "encoded size of the most recent cluster snapshot",
        unit="bytes",
    ),
    MetricSpec(
        "persist_snapshot_seconds",
        "gauge",
        "wall-clock duration of the most recent snapshot write (recorded "
        "by repro.persist, which is outside the determinism scope)",
        unit="seconds",
    ),
    MetricSpec(
        "persist_restores_total",
        "counter",
        "cluster restores completed",
        unit="restores",
    ),
)

CATALOG_BY_NAME: dict[str, MetricSpec] = {spec.name: spec for spec in METRIC_CATALOG}

if len(CATALOG_BY_NAME) != len(METRIC_CATALOG):  # pragma: no cover
    raise AssertionError("duplicate metric names in METRIC_CATALOG")


class MetricsRegistry:
    """Catalog-validated instrument factory plus snapshot/merge/reset."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._collectors: list[Callable[[], None]] = []

    def _spec(self, name: str, kind: str) -> MetricSpec:
        spec = CATALOG_BY_NAME.get(name)
        if spec is None:
            raise ValueError(
                f"metric {name!r} is not in METRIC_CATALOG — declare it in "
                "repro.obs.registry (and the obs-discipline mirror) first"
            )
        if spec.kind != kind:
            raise ValueError(
                f"metric {name!r} is declared as a {spec.kind}, not a {kind}"
            )
        return spec

    def counter(self, name: str) -> Counter:
        spec = self._spec(name, "counter")
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name, help_text=spec.help, unit=spec.unit)
            self._metrics[name] = metric
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        spec = self._spec(name, "gauge")
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(name, help_text=spec.help, unit=spec.unit)
            self._metrics[name] = metric
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str) -> Histogram:
        spec = self._spec(name, "histogram")
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(
                name,
                help_text=spec.help,
                unit=spec.unit,
                buckets=spec.buckets or DEFAULT_TICK_BUCKETS,
            )
            self._metrics[name] = metric
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector()`` before every snapshot; collectors mirror
        live ``*Stats`` counters into registry series via ``set_total``."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector()

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Collector-refreshed, deterministically ordered state dump."""
        self.collect()
        return {
            name: self._metrics[name].to_snapshot()
            for name in sorted(self._metrics)
        }

    def reset(self) -> None:
        """Zero every series; instruments and collectors stay registered."""
        for metric in self._metrics.values():
            metric.reset()

    def merge_snapshot(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold a snapshot (this catalog's shape) into the live metrics."""
        for name in sorted(snapshot):
            data = snapshot[name]
            kind = data.get("kind")
            if kind == "counter":
                metric: Metric = self.counter(name)
            elif kind == "gauge":
                metric = self.gauge(name)
            elif kind == "histogram":
                metric = self.histogram(name)
            else:
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
            series = data.get("series", [])
            if not isinstance(series, list):
                raise ValueError(f"metric {name!r}: series must be a list")
            for entry in series:
                metric.merge_series(entry)
