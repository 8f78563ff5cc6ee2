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
:class:`~repro.obs.instruments.Telemetry`) and inject it.  The
``CoordinatorStats`` / ``ReplicationStats`` / ``ViewStats`` dataclasses
are the one store of the layers' cumulative counts: the hot paths bump
their fields, and :meth:`MetricsRegistry.register_stats` exports each
dataclass as one counter family labeled ``field=<name>``, read at
snapshot time.  Gauges that summarise live state are refreshed the same
way, by *collectors* (:meth:`MetricsRegistry.register_collector`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

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


METRIC_CATALOG: tuple[MetricSpec, ...] = (
    # -- coordinator ------------------------------------------------------
    MetricSpec(
        "coordinator_stats_total",
        "counter",
        "CoordinatorStats counters, one series per field, summed over "
        "every coordinator on this telemetry",
    ),
    MetricSpec(
        "coordinator_queue_depth",
        "gauge",
        "sessions active at the start of the current scheduling tick",
        unit="sessions",
    ),
    MetricSpec(
        "coordinator_envelope_slices",
        "histogram",
        "unique slices one coordinator flush sends in its batch",
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
    MetricSpec(
        "replication_stats_total",
        "counter",
        "ReplicationStats counters, one series per field, summed over "
        "every cluster on this telemetry",
    ),
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
    MetricSpec(
        "views_stats_total",
        "counter",
        "ViewStats counters, one series per field, summed over every "
        "shard server's view index",
    ),
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
        "skim elements answered by the memo, without a keystream (decode skipped too)",
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
    """Catalog-validated instrument factory plus snapshot-time export."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._collectors: list[Callable[[], None]] = []
        self._stats_sources: dict[Counter, list[Callable[[], object]]] = {}

    def _spec(self, name: str, kind: str) -> MetricSpec:
        spec = CATALOG_BY_NAME.get(name)
        if spec is None:
            raise ValueError(
                f"metric {name!r} is not in METRIC_CATALOG — declare it in "
                "repro.obs.registry first"
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

    def register_stats(self, counter: Counter, read: Callable[[], object]) -> None:
        """Export the ``*Stats`` dataclass ``read()`` returns through
        *counter*, one ``field=<name>`` series per dataclass field.

        Every source registered on one counter is summed at snapshot
        time — two coordinators on one telemetry export their joint
        counts — so every field must be a count, never a high-water mark.
        """
        self._stats_sources.setdefault(counter, []).append(read)

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector()`` before every snapshot (gauges of live state)."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for counter, sources in self._stats_sources.items():
            totals: dict[str, int] = {}
            for read in sources:
                stats = read()
                for field in fields(stats):  # type: ignore[arg-type]
                    totals[field.name] = totals.get(field.name, 0) + getattr(
                        stats, field.name
                    )
            for name, total in totals.items():
                counter.set_total(float(total), field=name)
        for collector in self._collectors:
            collector()

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Collector-refreshed, deterministically ordered state dump."""
        self.collect()
        return {
            name: self._metrics[name].to_snapshot()
            for name in sorted(self._metrics)
        }
