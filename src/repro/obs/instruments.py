"""Telemetry injection point and per-layer bound-instrument bundles.

``repro.core`` never creates metrics itself — the ``obs-discipline``
zlint rule bans ``.counter(`` / ``.gauge(`` / ``.histogram(`` calls
there.  Instead each layer holds one of the bundles below, built from
an optional :class:`Telemetry`.  With telemetry absent every slot is a
shared ``Null*`` instrument, so instrumented code is branch-free and
the disabled cost is one no-op method call per site.  What live
instruments add to a warm query is an exact tier-1 frame count
(``TELEMETRY_FRAME_BUDGET`` in ``tests/test_core_client.py``).

Cumulative counters that already live in the ``*Stats`` dataclasses
(``CoordinatorStats`` / ``ReplicationStats`` / ``ViewStats``) stay the
write-path storage; ``register_*_collector`` mirrors them into the
registry at snapshot time via ``Counter.set_total``, generically over
``dataclasses.fields`` so a new stats field that lacks a catalog entry
fails the drift-guard test instead of silently vanishing.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping, Sequence

from repro.obs.metrics import (
    NULL_BOUND_COUNTER,
    NULL_BOUND_GAUGE,
    NULL_BOUND_HISTOGRAM,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    BoundCounter,
    BoundHistogram,
    Counter,
    Gauge,
    Histogram,
)
from repro.obs.registry import (
    COORDINATOR_STAT_FIELDS,
    REPLICATION_STAT_FIELDS,
    VIEW_STAT_FIELDS,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, Tracer


class Telemetry:
    """Everything a layer needs, threaded through constructors.

    The tick clock starts as a constant 0 and is bound to the owning
    cluster's replication tick counter when the cluster attaches
    (:meth:`bind_clock`), so span timestamps share the one sanctioned
    time source.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        trace_capacity: int = 256,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock: Callable[[], int] = lambda: 0
        self.tracer = Tracer(self._now, capacity=trace_capacity)
        self._bundles: list[_InstrumentBundle] = []

    def _now(self) -> int:
        return self._clock()

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        # Rebind the tracer directly: span enter/exit reads the clock on
        # the hot path, and the extra _now() hop is measurable there.
        self.tracer._clock = clock

    def now(self) -> int:
        return self._now()

    def suspend(self) -> None:
        """Runtime kill switch: stop all hot-path recording, live.

        Every bundle built from this telemetry swaps its instruments for
        the shared ``Null*`` singletons, putting the deployment in the
        same state as one deployed with no telemetry at all — without
        redeploying.  Registry collectors still run at snapshot time
        (they read ``*Stats`` dataclasses, not hot-path instruments),
        and totals recorded before the suspend are kept, so flipping
        telemetry back on (:meth:`resume`) continues where it left off.
        """
        for bundle in self._bundles:
            bundle.suspend()

    def resume(self) -> None:
        """Undo :meth:`suspend`: restore every bundle's live instruments."""
        for bundle in self._bundles:
            bundle.resume()


def _mirror_stats(
    registry: MetricsRegistry,
    prefix: str,
    expected_fields: tuple[str, ...],
    skip: frozenset[str] = frozenset(),
) -> dict[str, Counter]:
    counters: dict[str, Counter] = {}
    for field in expected_fields:
        if field in skip:
            continue
        counters[field] = registry.counter(f"{prefix}_{field}_total")
    return counters


def _collect_stats(
    counters: Mapping[str, Counter], stats: object, skip: frozenset[str] = frozenset()
) -> None:
    for field in dataclasses.fields(stats):  # type: ignore[arg-type]
        if field.name in skip:
            continue
        counters[field.name].set_total(float(getattr(stats, field.name)))


class _InstrumentBundle:
    """Base for the per-layer bundles: wiring plus the live kill switch.

    ``_swap`` names the instrument attributes that :meth:`suspend`
    replaces with shared ``Null*`` singletons (and :meth:`resume` puts
    back).  Swapping the *attributes* rather than flagging each call
    site keeps the hot path branch-free in both states — suspended code
    runs the very same no-op method calls as a telemetry-less
    deployment.
    """

    _swap: tuple[tuple[str, object], ...] = ()

    def __init__(self, telemetry: Telemetry | None) -> None:
        self.enabled = telemetry is not None
        self.tracer = telemetry.tracer if telemetry else NULL_TRACER
        self._saved: dict[str, object] | None = None
        if telemetry is not None:
            telemetry._bundles.append(self)

    def suspend(self) -> None:
        if not self.enabled or self._saved is not None:
            return
        self._saved = {name: getattr(self, name) for name, _ in self._swap}
        for name, null in self._swap:
            setattr(self, name, null)
        self.enabled = False

    def resume(self) -> None:
        if self._saved is None:
            return
        for name, value in self._saved.items():
            setattr(self, name, value)
        self._saved = None
        self.enabled = True


class CoordinatorInstruments(_InstrumentBundle):
    """Direct instruments for the scheduling hot loop."""

    _swap = (
        ("tracer", NULL_TRACER),
        ("queue_depth", NULL_BOUND_GAUGE),
        ("envelope_slices", NULL_BOUND_HISTOGRAM),
        ("session_rounds", NULL_BOUND_HISTOGRAM),
    )

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
            self.queue_depth = NULL_GAUGE.bind()
            self.envelope_slices = NULL_HISTOGRAM.bind()
            self.session_rounds = NULL_HISTOGRAM.bind()

    def register_stats_collector(
        self, telemetry: Telemetry | None, stats_fn: Callable[[], object]
    ) -> None:
        if telemetry is None:
            return
        counters = _mirror_stats(
            telemetry.registry, "coordinator", COORDINATOR_STAT_FIELDS
        )

        def collect() -> None:
            _collect_stats(counters, stats_fn())

        telemetry.registry.register_collector(collect)


_REPLICATION_GAUGE_FIELDS = frozenset({"max_staleness_seen"})


class ClusterInstruments(_InstrumentBundle):
    """Read/write-path instruments plus the cluster-side collectors."""

    _swap = (
        ("tracer", NULL_TRACER),
        ("reads", NULL_COUNTER),
        ("writes", NULL_COUNTER),
        ("read_lag_ticks", NULL_HISTOGRAM),
        ("read_staleness", NULL_BOUND_HISTOGRAM),
        ("quorum_refusals", NULL_BOUND_COUNTER),
    )

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
        self._saved_read_bound: dict[str, tuple[BoundCounter, BoundHistogram]] = {}

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

    def suspend(self) -> None:
        if not self.enabled or self._saved is not None:
            return
        # Park the per-consistency cache too: its pairs are bound to the
        # live counter/histogram.  Suspended lookups rebuild null pairs.
        self._saved_read_bound = self._read_bound
        self._read_bound = {}
        super().suspend()

    def resume(self) -> None:
        if self._saved is None:
            return
        self._read_bound = self._saved_read_bound
        super().resume()

    def register_collectors(
        self,
        telemetry: Telemetry | None,
        *,
        replication_stats: Callable[[], object],
        view_stats: Callable[[], object],
        per_server_load: Callable[[], Sequence[int]],
        replication_backlog: Callable[[], Mapping[tuple[int, int], int]],
        log_lengths: Callable[[], Mapping[int, int]],
    ) -> None:
        if telemetry is None:
            return
        registry = telemetry.registry
        replication_counters = _mirror_stats(
            registry,
            "replication",
            REPLICATION_STAT_FIELDS,
        )
        max_staleness = registry.gauge("replication_max_staleness")
        view_counters = _mirror_stats(registry, "views", VIEW_STAT_FIELDS)
        server_load = registry.gauge("cluster_server_load")
        follower_backlog = registry.gauge("replication_follower_backlog")
        log_length = registry.gauge("replication_log_length")

        def collect() -> None:
            stats = replication_stats()
            _collect_stats(
                replication_counters, stats, skip=_REPLICATION_GAUGE_FIELDS
            )
            max_staleness.set(float(getattr(stats, "max_staleness_seen")))
            _collect_stats(view_counters, view_stats())
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

    _swap = (
        ("ack_latency", NULL_BOUND_HISTOGRAM),
    )

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

    _swap = (
        ("tracer", NULL_TRACER),
        ("skim_elements", NULL_BOUND_COUNTER),
        ("skim_memo_hits", NULL_BOUND_COUNTER),
    )

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

    _swap = (
        ("snapshots", NULL_BOUND_COUNTER),
        ("snapshot_bytes", NULL_BOUND_GAUGE),
        ("snapshot_seconds", NULL_BOUND_GAUGE),
        ("restores", NULL_BOUND_COUNTER),
    )

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
            self.snapshot_bytes = NULL_GAUGE.bind()
            self.snapshot_seconds = NULL_GAUGE.bind()
            self.restores = NULL_COUNTER.bind()
