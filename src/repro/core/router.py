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
    s1: [t1,t2,t3] ─arrival─▸ flush @ tick t:                 +----------+
    s2: [t1,t4]    ─arrival─▸   1 gather ready    ┌─{srv 0}─▸ | server 0 |
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
callables — arrivals, flushes, deliveries — run first in, first out,
work appended to the running tick included.  :meth:`Coordinator.advance`
runs one tick's list, then ``cluster.replication_tick()`` once (on an
idle tick too), then moves :attr:`Coordinator.now` on.  A tick is never
regrouped into phases: a flush clears its tick from ``_flush_scheduled``
before it runs, so work queued later in the same tick gets a second
flush, and which slices share a flush is exactly this append order.

Admission is governed by *real backpressure* rather than unbounded
parking: with ``max_queue_depth`` set, an arrival that would exceed the
bound is shed before anything is acknowledged, carrying a deterministic
:class:`~repro.core.protocol.BackpressureSignal` retry hint
(:meth:`Coordinator.submit` raises
:class:`~repro.errors.BackpressureError`; :meth:`submit_arrival`
reschedules the arrival for the hinted tick).

The lockstep :meth:`Coordinator.tick` is a thin driver over the agenda
— one tick advances virtual time by exactly one tick, which drains that
tick to quiescence.  One cadence rule holds at every latency: a
session's next flush is at ``max(delivery tick, dispatch tick + 1)``, so
a round takes ``max(round_latency, 1)`` ticks.

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

#: Retained shed records (oldest dropped first); enough for any test or
#: bench to inspect recent admission decisions without unbounded growth.
_MAX_SHED_RECORDS = 1024


@dataclass
class CoordinatorStats:
    """Scheduling counters of one coordinator.

    ``slices_requested`` counts session slices gathered;
    ``slices_sent`` counts unique slices actually shipped after
    cross-session deduplication — the difference is work served from a
    shared response.  ``server_calls`` counts the shard-server calls the
    flushes made (the number a latency-bound deployment cares about): one
    per touched server, plus any read-repair re-serve.
    ``backpressure_sheds`` counts arrivals refused at admission (queue
    depth exhausted) — shed *before* anything was acknowledged, so a
    shed never loses accepted work.
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
    """

    session_keys: list[tuple[ClientQuerySession, list[SliceKey]]] = field(
        default_factory=list
    )
    unique: dict[SliceKey, FetchRequest] = field(default_factory=dict)


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
        disables): an arrival that would exceed it is shed with a
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
        self.sheds: list[BackpressureSignal] = []
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
        return sum(1 for s in self._sessions if not s.done)

    # -- admission control -------------------------------------------------------

    def _admission_signal(
        self, principal: str
    ) -> BackpressureSignal | None:
        """The shed signal admitting *principal* now would trigger, if any."""
        if self._max_queue_depth is None:
            return None
        depth = sum(1 for s in self._sessions if not s.done)
        if depth < self._max_queue_depth:
            return None
        return BackpressureSignal(
            principal=principal,
            tick=self._now,
            retry_after_ticks=depth - self._max_queue_depth + 1,
            queue_depth=depth,
            limit=self._max_queue_depth,
        )

    def _record_shed(self, signal: BackpressureSignal) -> None:
        self.stats.backpressure_sheds += 1
        self.sheds.append(signal)
        if len(self.sheds) > _MAX_SHED_RECORDS:
            del self.sheds[: len(self.sheds) - _MAX_SHED_RECORDS]

    # -- session intake ----------------------------------------------------------

    def _check_intake(self, session: ClientQuerySession) -> None:
        if session.backend is not self._cluster:
            raise ConfigurationError(
                "session's client is not bound to this coordinator's cluster"
            )
        if any(existing is session for existing in self._sessions):
            raise ProtocolError("session is already submitted")

    def submit(self, session: ClientQuerySession) -> ClientQuerySession:
        """Park a client's query session for scheduling.

        The session's client must be bound to this coordinator's cluster;
        accepting a session from a client on another backend would answer
        it from the wrong index.  With admission bounds configured, a
        session that would exceed them is refused with
        :class:`~repro.errors.BackpressureError` — nothing is parked, the
        caller owns the retry.
        """
        self._check_intake(session)
        signal = self._admission_signal(session.principal)
        if signal is not None:
            self._record_shed(signal)
            raise BackpressureError(signal)
        self._sessions.append(session)
        # As for an arrival: the session's first round is queued now, so
        # drain() settles it as tick() does (tick finds this flush queued).
        self._ensure_flush(self._now)
        return session

    def submit_arrival(
        self,
        session: ClientQuerySession,
        at: int | None = None,
        retry_on_shed: bool = True,
    ) -> None:
        """Schedule *session* to arrive at virtual tick *at* (default now).

        The arrival-driven intake: admission happens when the arrival
        runs, a flush is scheduled for the same tick, and the session
        runs its rounds without any external ``tick()`` driver — callers
        :meth:`drain` the coordinator (or :meth:`advance` it) to completion.
        A shed arrival is rescheduled ``retry_after_ticks`` later when
        *retry_on_shed* is set, so a transient overload degrades into
        deferred admission instead of lost work.
        """
        self._check_intake(session)
        when = self._now if at is None else at
        self._call_at(when, lambda: self._admit_arrival(session, retry_on_shed))

    def _admit_arrival(
        self, session: ClientQuerySession, retry_on_shed: bool
    ) -> None:
        if any(existing is session for existing in self._sessions):
            return  # double-scheduled arrival; already admitted
        signal = self._admission_signal(session.principal)
        if signal is not None:
            self._record_shed(signal)
            if retry_on_shed:
                self._call_at(
                    self._now + signal.retry_after_ticks,
                    lambda: self._admit_arrival(session, retry_on_shed),
                )
            return
        self._sessions.append(session)
        self._ensure_flush(self._now)

    def evict(self, session: ClientQuerySession) -> None:
        """Remove a parked session (e.g. a caller abandoning a query).

        A delivery already in flight for the session fires as a no-op
        (delivery is matched by identity against the parked set).
        """
        self._sessions = [s for s in self._sessions if s is not session]

    def open_session(
        self,
        client: ZerberRClient,
        terms: Sequence[str],
        k: int,
        policy: ResponsePolicy | None = None,
    ) -> ClientQuerySession:
        """Open a session on *client* and submit it in one step."""
        return self.submit(client.open_multi_session(terms, k, policy=policy))

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
        """Run one lockstep scheduling tick; returns whether work was done.

        Advances virtual time by exactly one tick, which runs this
        tick's flush, its deliveries, the replication tick and any due
        maintenance.  Raises :class:`~repro.errors.UnavailableError` if a
        needed list has no live replica — fail-fast, matching
        :meth:`ServerCluster.batch_fetch` semantics.
        """
        self._prune()
        if not self._sessions:
            self._obs.queue_depth.set(0.0)
            return False
        self._ensure_flush(self._now)
        self.advance(1)
        return True

    def drain(self, max_ticks: int = 100_000) -> int:
        """Advance until all arrivals, rounds and deliveries settle.

        The arrival-driven counterpart of :meth:`run_until_complete`:
        returns the virtual ticks advanced; raises
        :class:`~repro.errors.ProtocolError` if the agenda is not empty
        within *max_ticks* (work that keeps rescheduling itself).
        """
        start = self._now
        while any(self._agenda.values()):
            if self._now - start >= max_ticks:
                queued = sum(map(len, self._agenda.values()))
                raise ProtocolError(
                    f"coordinator did not quiesce within {max_ticks} ticks "
                    f"({queued} callable(s) queued)"
                )
            self.advance(1)
        return self._now - start

    def _prune(self) -> None:
        """Drop, and count, sessions that were already done when submitted
        (e.g. zero terms): they never reach :meth:`_deliver_one`, which
        counts and drops every other session as it finishes."""
        done = sum(1 for s in self._sessions if s.done)
        if done:
            self.stats.sessions_completed += done
            self._sessions = [s for s in self._sessions if not s.done]

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
        self._prune()
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
            self.stats.slices_requested += len(keys)
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
        self.stats.server_calls += server_calls
        self.stats.slices_sent += len(batch)
        return dict(zip(keys, replies))

    def run_until_complete(self) -> int:
        """Tick until every submitted session is done; returns ticks run."""
        ticks = 0
        while self.tick():
            ticks += 1
        return ticks

    def run_queries(
        self,
        jobs: Sequence[tuple[ZerberRClient, Sequence[str], int]],
        policy: ResponsePolicy | None = None,
    ) -> list[MultiQueryResult]:
        """Serve ``(client, terms, k)`` jobs concurrently; results in order."""
        if self.active_sessions:
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
            self.run_until_complete()
        except BaseException:
            # A failure at admission (a later job shed by the queue bound)
            # or mid-run (e.g. every replica of a list down) must not park
            # these sessions forever and wedge the coordinator.
            for session in sessions:
                self.evict(session)
            raise
        return [session.result() for session in sessions]
