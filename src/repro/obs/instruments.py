"""Telemetry injection point and per-layer bound-instrument bundles.

``repro.core`` never creates metrics itself — the ``obs-discipline``
zlint rule bans ``.counter(`` / ``.gauge(`` / ``.histogram(`` calls
there.  Instead each layer holds one of the bundles below, built from
an optional :class:`Telemetry`.  With telemetry absent every slot is a
shared ``Null*`` instrument, so instrumented code is branch-free and
the disabled cost is one no-op method call per site.  What live
instruments add to a warm query is an exact tier-1 frame count
(``TELEMETRY_FRAME_BUDGET`` in ``tests/test_core_client.py``).

The ``CoordinatorStats`` / ``ReplicationStats`` / ``ViewStats``
dataclasses are the one store of the layers' cumulative counts; the
bundles register them with the registry
(:meth:`~repro.obs.registry.MetricsRegistry.register_stats`), which
exports each as one counter family labeled by field name, so a new
field is exported with no other edit.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.obs.metrics import (
    NULL_BOUND_GAUGE,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    BoundCounter,
    BoundHistogram,
    Counter,
    Histogram,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


class Telemetry:
    """Everything a layer needs, threaded through constructors.

    The tracer's tick clock starts as a constant 0 and is bound to the
    owning cluster's replication tick counter when the cluster attaches
    (:meth:`bind_clock`), so span timestamps share the one sanctioned
    time source.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(lambda: 0)

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self.tracer._clock = clock


class _InstrumentBundle:
    """Base for the per-layer bundles: the tracer and the enabled flag."""

    def __init__(self, telemetry: Telemetry | None) -> None:
        self.enabled = telemetry is not None
        self.tracer = telemetry.tracer if telemetry else NULL_TRACER


class CoordinatorInstruments(_InstrumentBundle):
    """Direct instruments for the scheduling hot loop."""

    def __init__(self, telemetry: Telemetry | None) -> None:
        super().__init__(telemetry)
        if telemetry is not None:
            registry = telemetry.registry
            self.queue_depth = registry.gauge("coordinator_queue_depth").bind()
            self.envelope_slices = registry.histogram(
                "coordinator_envelope_slices"
            ).bind()
            self.session_rounds = registry.histogram(
                "coordinator_session_rounds"
            ).bind()
        else:
            self.queue_depth = NULL_BOUND_GAUGE
            self.envelope_slices = NULL_HISTOGRAM.bind()
            self.session_rounds = NULL_HISTOGRAM.bind()

    def register_stats_collector(
        self, telemetry: Telemetry | None, stats: Callable[[], object]
    ) -> None:
        if telemetry is None:
            return
        registry = telemetry.registry
        registry.register_stats(registry.counter("coordinator_stats_total"), stats)


class ClusterInstruments(_InstrumentBundle):
    """Read/write-path instruments plus the cluster-side collectors."""

    def __init__(self, telemetry: Telemetry | None) -> None:
        super().__init__(telemetry)
        if telemetry is not None:
            registry = telemetry.registry
            self.reads: Counter = registry.counter("cluster_reads_total")
            self.writes: Counter = registry.counter("cluster_writes_total")
            self.read_lag_ticks: Histogram = registry.histogram(
                "cluster_read_lag_ticks"
            )
            self.read_staleness = registry.histogram("cluster_read_staleness").bind()
            self.quorum_refusals = registry.counter(
                "cluster_quorum_write_refusals_total"
            ).bind()
        else:
            self.reads = NULL_COUNTER
            self.writes = NULL_COUNTER
            self.read_lag_ticks = NULL_HISTOGRAM
            self.read_staleness = NULL_HISTOGRAM.bind()
            self.quorum_refusals = NULL_COUNTER.bind()
        self._read_bound: dict[str, tuple[BoundCounter, BoundHistogram]] = {}

    def read_instruments(self, consistency: str) -> tuple[BoundCounter, BoundHistogram]:
        """Per-consistency (reads counter, read-lag histogram) pair.

        Looked up once per server call of the read path; binding the
        label set once per consistency level keeps the label freeze off
        that hot path.
        """
        pair = self._read_bound.get(consistency)
        if pair is None:
            pair = (
                self.reads.bind(consistency=consistency),
                self.read_lag_ticks.bind(consistency=consistency),
            )
            self._read_bound[consistency] = pair
        return pair

    def register_collectors(
        self,
        telemetry: Telemetry | None,
        *,
        replication_stats: Callable[[], object],
        view_stats: Sequence[Callable[[], object]],
        max_staleness: Callable[[], int],
        per_server_load: Callable[[], Sequence[int]],
        replication_backlog: Callable[[], Mapping[tuple[int, int], int]],
        log_lengths: Callable[[], Mapping[int, int]],
    ) -> None:
        if telemetry is None:
            return
        registry = telemetry.registry
        registry.register_stats(
            registry.counter("replication_stats_total"), replication_stats
        )
        views = registry.counter("views_stats_total")
        for read in view_stats:
            registry.register_stats(views, read)
        max_staleness_seen = registry.gauge("replication_max_staleness")
        server_load = registry.gauge("cluster_server_load")
        follower_backlog = registry.gauge("replication_follower_backlog")
        log_length = registry.gauge("replication_log_length")

        def collect() -> None:
            max_staleness_seen.set(float(max_staleness()))
            loads = per_server_load()
            behind = [0] * len(loads)
            for (_, server_index), depth in replication_backlog().items():
                behind[server_index] += depth
            for index, load in enumerate(loads):
                server_load.set(float(load), server=str(index))
                follower_backlog.set(float(behind[index]), server=str(index))
            for list_id, length in sorted(log_lengths().items()):
                log_length.set(float(length), list=str(list_id))

        registry.register_collector(collect)


class ReplicationInstruments(_InstrumentBundle):
    """Handed to the replication manager for in-path observations."""

    def __init__(self, telemetry: Telemetry | None) -> None:
        super().__init__(telemetry)
        if telemetry is not None:
            registry = telemetry.registry
            self.ack_latency = registry.histogram(
                "replication_ack_latency_ticks"
            ).bind()
        else:
            self.ack_latency = NULL_HISTOGRAM.bind()


class ClientInstruments(_InstrumentBundle):
    """Client-side skim accounting (the only crypto metrics producer)."""

    def __init__(self, telemetry: Telemetry | None) -> None:
        super().__init__(telemetry)
        if telemetry is not None:
            registry = telemetry.registry
            self.skim_elements = registry.counter("crypto_skim_elements_total").bind()
            self.skim_memo_hits = registry.counter(
                "crypto_skim_memo_hits_total"
            ).bind()
        else:
            self.skim_elements = NULL_COUNTER.bind()
            self.skim_memo_hits = NULL_COUNTER.bind()


class PersistInstruments(_InstrumentBundle):
    """Snapshot/restore accounting recorded by ``repro.persist``."""

    def __init__(self, telemetry: Telemetry | None) -> None:
        super().__init__(telemetry)
        if telemetry is not None:
            registry = telemetry.registry
            self.snapshots = registry.counter("persist_snapshots_total").bind()
            self.snapshot_bytes = registry.gauge("persist_snapshot_bytes").bind()
            self.snapshot_seconds = registry.gauge("persist_snapshot_seconds").bind()
            self.restores = registry.counter("persist_restores_total").bind()
        else:
            self.snapshots = NULL_COUNTER.bind()
            self.snapshot_bytes = NULL_BOUND_GAUGE
            self.snapshot_seconds = NULL_BOUND_GAUGE
            self.restores = NULL_COUNTER.bind()
