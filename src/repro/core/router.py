"""Coordinator: cross-query slice coalescing over the sharded cluster.

The seed topology had every client talk to the cluster directly, so N
concurrent users issued N independent batched calls per round even when
they wanted the *same* head-term slices (the Fig. 10 skew makes that the
common case).  The coordinator inverts the call direction — clients no
longer call servers; they park resumable
:class:`~repro.core.client.ClientQuerySession` objects at the coordinator,
which schedules them on its own virtual clock, one agenda per tick::

    client sessions                coordinator                 shard servers
    ---------------          ----------------------          ---------------
    s1: [t1,t2,t3] ──submit─▸ flush @ tick t:                 +----------+
    s2: [t1,t4]    ──submit─▸   1 gather ready    ┌─{srv 0}─▸ | server 0 |
    s3: [t2,t5]    ──submit─▸     slices          │           +----------+
                                2 dedup shared    │           +----------+
     ◂─deliver()/result()──     3 one batch_fetch ┴─{srv 1}─▸ | server 1 |
                                4 fan replies out             +----------+
          end of every tick:    replication delivery · anti-entropy ·
                                failover checks

Per *flush* the coordinator (1) gathers every ready session's pending
fetch slices in submission-age order, (2) deduplicates identical
slices — same principal, list, offset, count — so concurrent queries for
the same hot list share one server slice, (3) sends the unique slices,
by principal and then by age, as one
:class:`~repro.core.protocol.BatchFetchRequest` — the type a client's own
round travels in, here holding many principals' slices — through
:meth:`~repro.core.cluster.ServerCluster.batch_fetch`, which routes each
slice and makes one server call per touched server, whose share keeps
that order, and (4) fans each reply out to every session that wanted the
slice as deliveries ``round_latency`` ticks later (0: later in the
same tick); above 0 the decrypt/skim of round *n* overlaps the flush of
round *n + 1* (counted by ``pipeline_overlap``).  Routing is the
cluster's alone: the coordinator adds cross-session dedup and per-tick
batching.  Follower replication delivery, with the anti-entropy sweep
and failover checks it carries, runs once at the end of every tick
instead of piggybacking on the flush; a flush routes and serves inside
one call, so no election can fall between the two.

The schedule is a plain agenda: ``_agenda[tick]`` is a list of
callables — flushes and deliveries — run first in, first out, work
appended to the running tick included.  :meth:`Coordinator.advance`
runs one tick's list, then ``cluster.replication_tick()`` once (on an
idle tick too), then moves :attr:`Coordinator.now` on.  A tick is never
regrouped into phases: a flush clears its tick from ``_flush_scheduled``
before it runs, so work queued later in the same tick gets a second
flush, and which slices share a flush is exactly this append order.

There is one way in and one way through.  :meth:`Coordinator.submit`
admits a session at ``now`` and queues a flush, or refuses it with
:class:`~repro.errors.BackpressureError` when ``max_queue_depth``
sessions are already parked: a refusal parks and queues nothing, is
counted once in ``backpressure_sheds``, and its
:class:`~repro.core.protocol.BackpressureSignal` is its only record —
the caller owns the retry.  :meth:`Coordinator.tick` queues a
flush for the parked sessions and advances one tick, so a session whose
flush raised (every replica of a list down) picks up again on the next
tick; :meth:`Coordinator.drain` ticks until no session is parked.  One
cadence rule holds at every latency: a session's next flush is at
``max(delivery tick, dispatch tick + 1)``, so a round takes
``max(round_latency, 1)`` ticks.

Per-session fetch sequences (offsets, counts, stop conditions) are exactly
what the session would have issued against the cluster directly, so query
results are byte-identical to the direct path — the coordinator changes
*who pays for round-trips*, never what a query returns.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from operator import itemgetter

from repro.core.client import ClientQuerySession, MultiQueryResult, ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.protocol import (
    BackpressureSignal,
    BatchFetchRequest,
    FetchRequest,
    FetchResponse,
    ResponsePolicy,
)
from repro.errors import BackpressureError, ConfigurationError, ProtocolError
from repro.obs.instruments import CoordinatorInstruments
from repro.obs.trace import Span

SliceKey = tuple[str, int, int, int]
"""Identity of a fetch slice: (principal, list_id, offset, count).

Deliberately excludes the request's ``min_version`` session floor: two
sessions wanting the same slice under different floors still share one
server fetch — the coalesced request carries the *max* of their floors,
which satisfies both (floors are lower bounds)."""


@dataclass
class CoordinatorStats:
    """Scheduling counters of one coordinator.

    ``slices_requested`` counts session slices served;
    ``slices_sent`` counts unique slices actually shipped after
    cross-session deduplication — the difference is work served from a
    shared response.  ``server_calls`` counts the shard-server calls the
    flushes made (the number a latency-bound deployment cares about): one
    per touched server, plus any read-repair re-serve.
    ``backpressure_sheds`` counts submits refused at admission (queue
    depth exhausted), once each — shed *before* anything was
    acknowledged, so a shed never loses accepted work.
    ``pipeline_overlap`` counts flushes sent while earlier rounds'
    deliveries were still in flight — the round-pipelining the agenda
    buys over lockstep barriers (always 0 with ``round_latency=0``).
    """

    ticks: int = 0
    server_calls: int = 0
    slices_requested: int = 0
    slices_sent: int = 0
    sessions_completed: int = 0
    sessions_spilled: int = 0  # always 0: no flush defers a session any more
    backpressure_sheds: int = 0
    pipeline_overlap: int = 0

    @property
    def slices_shared(self) -> int:
        """Session slices answered from another session's fetch."""
        return self.slices_requested - self.slices_sent


@dataclass
class _TickPlan:
    """Work of one flush: per-session slice keys plus the unique slices.

    ``unique`` maps a slice key to its request, in gathering order; a
    slice several sessions want carries the highest of their floors.
    ``requested`` counts the session slices, shared ones included.
    """

    session_keys: list[tuple[ClientQuerySession, list[SliceKey]]] = field(
        default_factory=list
    )
    unique: dict[SliceKey, FetchRequest] = field(default_factory=dict)
    requested: int = 0


class Coordinator:
    """Shared front-end scheduling many query sessions over one cluster.

    It reads through :meth:`ServerCluster.batch_fetch`, at the cluster's
    own ``read_consistency``; a session's fetch sequence is
    the client's, ``policy`` and the per-term request cap
    (:data:`~repro.core.client.MAX_REQUESTS`) included, so the
    coordinator takes no consistency or request-count knob of its own.
    """

    def __init__(
        self,
        cluster: ServerCluster,
        *,
        round_latency: int = 0,
        max_queue_depth: int | None = None,
    ) -> None:
        """``max_queue_depth`` is the *admission* bound (``None``
        disables): a submit that would exceed it is shed with a
        retry-after hint instead of parked.  ``round_latency`` ticks
        separate a flush's dispatch from its sessions' skim delivery
        (0 — the default — delivers later in the dispatching tick).
        """
        if round_latency < 0:
            raise ConfigurationError("round_latency must be >= 0")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be >= 1")
        self._cluster = cluster
        self._round_latency = round_latency
        self._max_queue_depth = max_queue_depth
        self._now = 0
        # Work queued per virtual tick, run in append order.
        self._agenda: dict[int, list[Callable[[], None]]] = {}
        self._sessions: list[ClientQuerySession] = []
        # Sessions whose responses are in flight (id() keys — sessions are
        # scheduled by identity, never by equality).
        self._awaiting: set[int] = set()
        # Virtual ticks with a flush already queued (dedup guard).
        self._flush_scheduled: set[int] = set()
        self.stats = CoordinatorStats()
        # Scheduling counters stay plain attribute increments on the hot
        # loop; the collector mirrors them into the registry at snapshot
        # time.  Direct instruments cover only what the stats cannot: the
        # queue-depth gauge and the per-flush / per-session histograms.
        self._obs = CoordinatorInstruments(cluster.telemetry)
        self._obs.register_stats_collector(cluster.telemetry, lambda: self.stats)

    @property
    def cluster(self) -> ServerCluster:
        return self._cluster

    @property
    def now(self) -> int:
        """The current virtual tick (the replication clock's unit)."""
        return self._now

    @property
    def active_sessions(self) -> int:
        """Sessions parked here: admitted and not yet done."""
        return len(self._sessions)

    # -- session intake ----------------------------------------------------------

    def submit(self, session: ClientQuerySession) -> ClientQuerySession:
        """Admit a client's query session at :attr:`now`, or refuse it.

        The session's client must be bound to this coordinator's cluster;
        accepting a session from a client on another backend would answer
        it from the wrong index.  A session already done (no terms) is
        counted complete and never parked.  With ``max_queue_depth``
        sessions parked, the session is refused with
        :class:`~repro.errors.BackpressureError`: nothing is parked or
        queued for it, the refusal is counted once in
        ``stats.backpressure_sheds``, and the error's signal is its only
        record — the caller owns the retry.  An admitted session's first
        flush is queued at :attr:`now`.
        """
        if session.backend is not self._cluster:
            raise ConfigurationError(
                "session's client is not bound to this coordinator's cluster"
            )
        if any(existing is session for existing in self._sessions):
            raise ProtocolError("session is already submitted")
        if session.done:
            self.stats.sessions_completed += 1
            return session
        depth, limit = len(self._sessions), self._max_queue_depth
        if limit is not None and depth >= limit:
            self.stats.backpressure_sheds += 1
            raise BackpressureError(
                BackpressureSignal(
                    principal=session.principal,
                    tick=self._now,
                    queue_depth=depth,
                    limit=limit,
                )
            )
        self._sessions.append(session)
        self._ensure_flush(self._now)
        return session

    def evict(self, session: ClientQuerySession) -> None:
        """Remove a parked session (e.g. a caller abandoning a query).

        A delivery already in flight for the session fires as a no-op
        (delivery is matched by identity against the parked set).
        """
        self._sessions = [s for s in self._sessions if s is not session]

    # -- scheduling --------------------------------------------------------------

    def _call_at(self, tick: int, fn: Callable[[], None]) -> None:
        """Queue *fn* at virtual *tick* (a past tick clamps to now)."""
        self._agenda.setdefault(max(tick, self._now), []).append(fn)

    def advance(self, ticks: int = 1) -> None:
        """Run the next *ticks* virtual ticks, one at a time.

        A tick runs its agenda in append order, work appended to it while
        it runs included, then one ``cluster.replication_tick()`` — on an
        idle tick too — and then moves :attr:`now` on.  If a callable
        raises, the ones not yet run stay queued and ``now`` stays.
        """
        if ticks < 1:
            raise ConfigurationError("ticks must be >= 1")
        for _ in range(ticks):
            due = self._agenda.get(self._now, [])
            while due:
                due.pop(0)()
            self._agenda.pop(self._now, None)
            self._cluster.replication_tick()
            self._now += 1

    def tick(self) -> bool:
        """Run one scheduling tick; returns whether a session was parked.

        Queues a flush at :attr:`now` for the parked sessions (a no-op if
        one is queued) and advances exactly one tick, which runs this
        tick's flush, its deliveries and the replication tick.  Raises
        :class:`~repro.errors.UnavailableError` if a needed list has no
        live replica — fail-fast, matching
        :meth:`ServerCluster.batch_fetch` semantics; the sessions stay
        parked, and the next tick flushes them again.
        """
        if not self._sessions:
            self._obs.queue_depth.set(0.0)
            return False
        self._ensure_flush(self._now)
        self.advance(1)
        return True

    def drain(self, max_ticks: int = 100_000) -> int:
        """:meth:`tick` until no session is parked; returns the ticks run.

        Raises :class:`~repro.errors.ProtocolError` if sessions are still
        parked after *max_ticks* ticks.
        """
        start = self._now
        while self._sessions:
            if self._now - start >= max_ticks:
                raise ProtocolError(
                    f"coordinator did not quiesce within {max_ticks} ticks "
                    f"({len(self._sessions)} session(s) parked)"
                )
            self.tick()
        return self._now - start

    def _ensure_flush(self, tick: int) -> None:
        """Schedule a flush at *tick* unless one is already queued there."""
        tick = max(tick, self._now)
        if tick in self._flush_scheduled:
            return
        self._flush_scheduled.add(tick)
        self._call_at(tick, lambda: self._flush(tick))

    def _flush(self, at_tick: int) -> None:
        """Run one coalescing round over every ready (non-awaiting) session."""
        self._flush_scheduled.discard(at_tick)
        self._obs.queue_depth.set(float(len(self._sessions)))
        ready = [s for s in self._sessions if id(s) not in self._awaiting]
        if not ready:
            return
        plan = self._gather(ready)
        if self._awaiting:
            # This round's flush overlaps in-flight deliveries of earlier
            # rounds — the pipelining win over lockstep.
            self.stats.pipeline_overlap += 1
        # One flush's coalescing is genuinely shared work; its span is
        # attributed to the oldest admitted session's trace, and any
        # read-repair of its serve nests under it.
        with self._obs.tracer.span(
            "coalesce",
            trace=plan.session_keys[0][0].trace_id,
            sessions=len(plan.session_keys),
        ) as span:
            self._schedule_deliveries(plan, self._dispatch(plan, span))
        self.stats.ticks += 1

    def _schedule_deliveries(
        self, plan: _TickPlan, replies: dict[SliceKey, FetchResponse]
    ) -> None:
        """Fan every slice response out to all sessions that wanted it,
        ``round_latency`` ticks from now."""
        dispatched = self._now
        for session, keys in plan.session_keys:
            responses = tuple([replies[key] for key in keys])
            self._awaiting.add(id(session))
            self._call_at(
                dispatched + self._round_latency,
                lambda s=session, r=responses: self._deliver_one(
                    s, r, dispatched
                ),
            )

    def _deliver_one(
        self,
        session: ClientQuerySession,
        responses: tuple[FetchResponse, ...],
        dispatched: int,
    ) -> None:
        """Land one session's round (skim happens here)."""
        self._awaiting.discard(id(session))
        if not any(existing is session for existing in self._sessions):
            return  # evicted while the round was in flight
        session.deliver(responses)
        if session.done:
            self.stats.sessions_completed += 1
            self._obs.session_rounds.observe(float(session.rounds))
            self._sessions = [s for s in self._sessions if s is not session]
        else:
            # The one cadence rule: next flush at max(this delivery tick,
            # dispatch tick + 1) — _ensure_flush clamps to now.  Past
            # latency 0 that is this tick, where the next round can coalesce
            # with whatever else is ready: skim of round n overlapping build
            # of round n+1.
            self._ensure_flush(dispatched + 1)

    def _gather(self, ready: list[ClientQuerySession]) -> _TickPlan:
        """Collect pending slices, deduplicating across sessions.

        Sessions are considered in submission (age) order.  A slice
        another session already asked for ships once, under the max of
        both session floors — so it is routed on the highest floor of all
        its wanters.
        """
        plan = _TickPlan()
        unique = plan.unique
        for session in ready:
            keys: list[SliceKey] = []
            for request in session.pending_requests():
                key: SliceKey = (
                    request.principal,
                    request.list_id,
                    request.offset,
                    request.count,
                )
                keys.append(key)
                held = unique.get(key)
                unique[key] = (
                    request if held is None else self._merge_floor(held, request)
                )
            plan.requested += len(keys)
            plan.session_keys.append((session, keys))
        return plan

    @staticmethod
    def _merge_floor(held: FetchRequest, request: FetchRequest) -> FetchRequest:
        """Raise a deduplicated slice's session floor to cover both wanters."""
        if request.min_version > held.min_version:
            return dataclass_replace(held, min_version=request.min_version)
        return held

    def _dispatch(self, plan: _TickPlan, span: Span) -> dict[SliceKey, FetchResponse]:
        """Send the flush's unique slices as one cluster read.

        The batch holds them by principal, then in gathering order (the
        sort is stable), so every touched server's share of it — one
        server call each — is packed the same way; replies come back in
        batch order and are matched to their slice keys by position.
        """
        keys = sorted(plan.unique, key=itemgetter(0))
        batch = BatchFetchRequest(tuple([plan.unique[key] for key in keys]))
        cluster = self._cluster
        calls = cluster.total_calls
        replies = cluster.batch_fetch(batch).responses
        server_calls = cluster.total_calls - calls
        span.annotate(server_calls=server_calls, slices=len(batch))
        self._obs.envelope_slices.observe(float(len(batch)))
        # Counted once the read returned: a flush that raises is retried
        # whole on the next tick.
        self.stats.server_calls += server_calls
        self.stats.slices_requested += plan.requested
        self.stats.slices_sent += len(batch)
        return dict(zip(keys, replies))

    def run_queries(
        self,
        jobs: Sequence[tuple[ZerberRClient, Sequence[str], int]],
        policy: ResponsePolicy | None = None,
    ) -> list[MultiQueryResult]:
        """Serve ``(client, terms, k)`` jobs concurrently; results in order."""
        if self._sessions:
            raise ProtocolError("coordinator already has sessions in flight")
        # Open every session before submitting any: a bad job (unknown
        # term, invalid k) must fail the whole call without leaving
        # earlier jobs parked, which would wedge later run_queries calls.
        sessions = [
            client.open_multi_session(terms, k, policy=policy)
            for client, terms, k in jobs
        ]
        try:
            for session in sessions:
                self.submit(session)
            self.drain()
        except BaseException:
            # A failure at admission (a later job shed by the queue bound)
            # or mid-run (e.g. every replica of a list down) must not park
            # these sessions forever and wedge the coordinator.
            for session in sessions:
                self.evict(session)
            raise
        return [session.result() for session in sessions]
