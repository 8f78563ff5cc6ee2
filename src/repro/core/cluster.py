"""Multi-server deployment (paper §3.1: "Zerber relies on a centralized
set of largely untrusted index servers").

A :class:`ServerCluster` shards the merged posting lists across N
:class:`~repro.core.server.ZerberRServer` shards, which it alone
constructs, and is the one backend a
:class:`~repro.core.client.ZerberRClient` talks to: the paper's single
index server is a one-server cluster (what
:meth:`~repro.core.system.ZerberRSystem.build` indexes into).  A batched
fetch splits into one sub-batch per shard server,
so a multi-term client round costs one round-trip per *touched server*
rather than per merged list.  A slice has one path to a shard server and
back: ``fetch`` is a one-slice ``batch_fetch``, which routes and groups
per server, and every server call — a client's sub-batch or a
coordinator's envelope (:meth:`ServerCluster.serve_envelope`) — goes
through one body, ``_serve``.

Which servers hold which list is fixed at construction
(:func:`~repro.core.placement.round_robin_placement`).  The cluster owns
the placement table plus a *placement epoch* that bumps whenever a
failover election reorders a list's replicas (see
:meth:`ServerCluster.check_failovers`); coordinator envelopes pin the
epoch they were routed under so a stale route is rejected rather than
served from a server that is no longer the list's primary.

Replication is a real subsystem (:mod:`repro.core.replication`), not a
synchronous fan-out: each list has a primary replica (first in its
placement tuple) and a versioned replication log.  Every write, at every
lag, takes one path: validate, check the ack quorum, mutate the primary,
record the op, deliver what is due, force the acks W still lacks.  The
unit of that path is the batch — a document insert (``insert_many``) or
a document delete (``delete_many``) is one pass through it: one
admission pass (which servers can ack is decided once per batch, the
preconditions once per touched list) before any primary is written, so
a refused batch is a clean no-op, and one ack pass
(:meth:`~repro.core.replication.ReplicationManager.force_acks`) at the
end; ``insert`` and ``delete_element`` are its one-item calls.
Followers receive ops through the log ``lag`` ticks after they were
recorded (one integer for every follower); reads carry the
serving replica's applied version, and the cluster detects divergence and
read-repairs according to its
:class:`~repro.core.replication.ReadConsistency` (``ONE`` fast/stale,
``PRIMARY`` strong — the default, ``QUORUM`` version-max across a
majority).  An anti-entropy sweep (``anti_entropy_every`` ticks) bounds
worst-case staleness.  Lag 0 (the default) is a lag: the ops a write
records are due in the same call, so every reachable replica holds them
when the call returns.

A read goes to the first *eligible* replica in placement order — the
primary whenever it is live, unpaused and fresh enough for the
consistency level and the session floor — so a follower serves a read
only when the primary cannot.  Every shard server is a synchronous
in-process call with no queue, so spreading reads would buy no latency.
Routing a slice and stamping its
answer each read the replication log once
(:meth:`~repro.core.replication.ReplicationManager.read_state`), and a
batch that lands whole on one server is passed through as the object
the caller built; nothing about a route is remembered between slices.
The stamp is read *before* the serve and handed to the server, which
builds each reply once with it: a fresh slice comes back as that very
reply, and only a slice stamped below its list's head is repaired and,
where its consistency level asks, re-served.

Sharding also *improves* confidentiality in the compromised-server model:
an adversary owning one server sees only ``1/N`` of the merged lists and
only that shard's query stream — quantified by :meth:`visible_fraction`.
Replication trades that away for availability: with replication factor f,
a fetch is served by a live replica, and :meth:`fail_server` simulates a
server loss (:meth:`pause_follower` simulates a partition that lets
replicas *diverge* instead).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import fields as dataclass_fields

from repro.core.placement import round_robin_placement, validate_placement
from repro.core.protocol import (
    BatchFetchRequest,
    BatchFetchResponse,
    FetchRequest,
    FetchResponse,
    Receipt,
    ReceiptLike,
)
from repro.core.replication import (
    FailoverEvent,
    ReadConsistency,
    ReplicationManager,
    ReplicationStats,
    WriteConsistency,
)
from repro.core.server import ObservedFetch, ZerberRServer
from repro.core.views import ViewStats
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    ProtocolError,
    QuorumUnavailableError,
    QuorumWriteUnavailableError,
    StaleEpochError,
    UnavailableError,
    UnknownListError,
)
from repro.index.postings import EncryptedPostingElement
from repro.obs.instruments import (
    ClusterInstruments,
    ReplicationInstruments,
    Telemetry,
)
from repro.obs.metrics import BoundHistogram


def validate_write_batch(
    keys: GroupKeyService,
    principal: str,
    items: Iterable[tuple[int, EncryptedPostingElement]],
    check_list_id: Callable[[int], object],
) -> list[tuple[int, EncryptedPostingElement]]:
    """The all-or-nothing gate of a batched insert, mutating nothing.

    Element by element, in batch order: it carries a TRS
    (:class:`ProtocolError`), *principal* is a member of its group
    (:class:`AccessDeniedError`), its list id is one *check_list_id*
    accepts (it raises :class:`UnknownListError`) — so the first
    offending element decides the refusal.  Memberships and list ids do
    not change inside one call, so each distinct group is put to the key
    service once and each distinct list id checked once.  It runs once
    per batch, in the cluster, before the first of several primaries is
    touched; the shards take what it passed as it is.
    """
    batch = list(items)
    groups: set[str] = set()
    list_ids: set[int] = set()
    for list_id, element in batch:
        if element.trs is None:
            raise ProtocolError("Zerber+R elements must carry a TRS")
        if element.group not in groups:
            if not keys.is_member(principal, element.group):
                raise AccessDeniedError(principal, element.group)
            groups.add(element.group)
        if list_id not in list_ids:
            check_list_id(list_id)
            list_ids.add(list_id)
    return batch


class ServerCluster:
    """Shard merged posting lists over several untrusted servers.

    ``read_consistency`` and ``write_consistency`` are plain attributes,
    the one setting every read and every write obeys; the constructor is
    the one place a level's string spelling (``"one"``, ``"quorum"``, …)
    is coerced.  A caller that wants another level for a while assigns
    the attribute (``cluster.read_consistency = ReadConsistency.ONE``).
    """

    def __init__(
        self,
        key_service: GroupKeyService,
        num_lists: int,
        num_servers: int,
        replication: int = 1,
        lag: int = 0,
        read_consistency: ReadConsistency | str | None = None,
        anti_entropy_every: int | None = None,
        write_consistency: WriteConsistency | str | None = None,
        failover_after: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if num_servers < 1:
            raise ConfigurationError("need at least one server")
        if not 1 <= replication <= num_servers:
            raise ConfigurationError("replication must be in [1, num_servers]")
        if num_lists < 1:
            raise ProtocolError("num_lists must be >= 1")
        if failover_after is not None and failover_after < 1:
            raise ConfigurationError("failover_after must be >= 1 tick")
        self._num_lists = num_lists
        self.replication = replication
        self._keys = key_service
        self._servers = [
            ZerberRServer(key_service, num_lists=num_lists)
            for _ in range(num_servers)
        ]
        self._alive = [True] * num_servers
        self._placement = round_robin_placement(num_lists, num_servers, replication)
        self._epoch = 0
        self.read_consistency = ReadConsistency.coerce(read_consistency)
        self.write_consistency = WriteConsistency.coerce(write_consistency)
        self.failover_after = failover_after
        # server -> replication tick it was first seen unreachable (the
        # failover timer); cleared the tick the server is reachable again.
        self._unreachable_since: dict[int, int] = {}
        self._failover_history: list[FailoverEvent] = []
        self.telemetry = telemetry
        self._obs = ClusterInstruments(telemetry)
        self._repl_obs = ReplicationInstruments(telemetry)
        self._repl = self._new_replication_manager(lag, anti_entropy_every)
        if telemetry is not None:
            # The replication tick counter is THE telemetry clock; read
            # through self._repl so a restore_topology swap stays bound.
            telemetry.bind_clock(lambda: self._repl.tick_count)
            self._obs.register_collectors(
                telemetry,
                replication_stats=lambda: self._repl.stats,
                view_stats=[
                    lambda server=server: server.view_stats
                    for server in self._servers
                ],
                max_staleness=lambda: self._repl.max_staleness_seen,
                per_server_load=self.per_server_load,
                replication_backlog=lambda: self._repl.backlog(),
                log_lengths=lambda: self._repl.log_lengths(),
            )

    @property
    def key_service(self) -> GroupKeyService:
        """The trusted key service the cluster checks memberships with
        (a dump seals its document directories through it)."""
        return self._keys

    def _new_replication_manager(
        self, lag: int, anti_entropy_every: int | None
    ) -> ReplicationManager:
        """A manager over the current placement table.  It is handed ids
        the cluster has validated, so it reads the rows as stored.  It
        holds the two tables, not the cluster: with no telemetry a
        dropped cluster is freed at once, not at the next collection."""
        return ReplicationManager(
            self._servers,
            replicas_of=self._placement.__getitem__,
            server_alive=self._alive.__getitem__,
            num_lists=self._num_lists,
            lag=lag,
            anti_entropy_every=anti_entropy_every,
            instruments=self._repl_obs,
        )

    # -- topology -----------------------------------------------------------

    @property
    def num_servers(self) -> int:
        return len(self._servers)

    @property
    def num_lists(self) -> int:
        return self._num_lists

    @property
    def placement_epoch(self) -> int:
        """Version of the placement table; bumps on every failover election."""
        return self._epoch

    def replicas_of(self, list_id: int) -> list[int]:
        """Server indices holding *list_id* (primary first)."""
        if not 0 <= list_id < self._num_lists:
            raise UnknownListError(list_id)
        return list(self._placement[list_id])

    def _primary_of(self, list_id: int) -> int:
        """The primary of *list_id*, validating the id (no row copy)."""
        if not 0 <= list_id < self._num_lists:
            raise UnknownListError(list_id)
        return self._placement[list_id][0]

    def server(self, index: int) -> ZerberRServer:
        """Direct access to one server (the adversary's viewpoint)."""
        return self._servers[index]

    def fail_server(self, index: int) -> None:
        """Mark a server as down (availability simulation).

        A down server neither serves reads nor receives replication
        deliveries: acknowledged ops it missed live on in the
        replication log and drain after :meth:`restore_server`.  The one
        idealisation kept from the seed: a *primary's* copy models
        durable storage, so a ``ONE`` write to a list whose primary is
        down still lands there and reads fail over to the live replicas.
        With ``failover_after`` set, a primary that stays down past the
        threshold is deposed by an election instead (see
        :meth:`check_failovers`); ``QUORUM``/``ALL`` writes never lean on
        the idealisation — they require a live primary.
        """
        self._alive[index] = False

    def restore_server(self, index: int) -> None:
        self._alive[index] = True

    def is_alive(self, index: int) -> bool:
        """Whether one server is currently up."""
        return self._alive[index]

    # -- replication control plane ------------------------------------------

    @property
    def replication_manager(self) -> ReplicationManager:
        """The replication subsystem (logs, versions, lag scheduler)."""
        return self._repl

    @property
    def replication_stats(self) -> ReplicationStats:
        return self._repl.stats

    def replication_tick(self) -> int:
        """Advance the replication clock one tick; returns ops delivered.

        Deliveries whose lag has elapsed apply to their followers, and
        every ``anti_entropy_every``-th tick additionally force-syncs all
        reachable stale followers.  With ``failover_after`` set, the tick
        also runs the failover election check (see
        :meth:`check_failovers`).
        """
        applied = self._repl.tick()
        if self.failover_after is not None:
            self.check_failovers()
        return applied

    def pause_follower(self, index: int) -> None:
        """Partition one server from replication traffic (reads still work)."""
        self._repl.pause(index)

    def resume_follower(self, index: int) -> None:
        self._repl.resume(index)

    def primary_version(self, list_id: int) -> int:
        """The replication-log head version of *list_id*."""
        self.replicas_of(list_id)  # validates the id
        return self._repl.head_version(list_id)

    def applied_version(self, list_id: int, server_index: int) -> int:
        """Ops of *list_id* applied at *server_index*."""
        return self._repl.applied_version(list_id, server_index)

    def replication_backlog(self) -> dict[tuple[int, int], int]:
        """Staleness per (list, server) pair; empty when fully converged."""
        return self._repl.backlog()

    def run_replication_until_quiet(self, max_ticks: int = 1000) -> int:
        """Tick until every *reachable* replica is caught up.

        Returns the ticks run.  Backlog held for paused or down servers
        does not block quiescence — heal them first if the test needs
        full convergence.  Ticks go through :meth:`replication_tick`, so
        failover timers advance (and clear) exactly as under normal
        operation.
        """
        ticks = 0
        while self._repl.reachable_backlog() and ticks < max_ticks:
            self.replication_tick()
            ticks += 1
        return ticks

    # -- primary failover ----------------------------------------------------

    def _reachable(self, server_index: int) -> bool:
        """Alive and not partitioned — can serve and receive log traffic."""
        return self._alive[server_index] and not self._repl.is_paused(server_index)

    def check_failovers(self) -> list[FailoverEvent]:
        """Elect new primaries for lists whose primary stayed unreachable.

        The failover timer is per *server*: a server that has been down
        or paused for at least ``failover_after`` consecutive replication
        ticks is deposed as primary of every list it leads.  The election
        promotes the most-caught-up reachable replica — first forced to
        the log head through the log itself (invariant 3 guarantees the
        ops exist), so the new primary acknowledges writes from exactly
        the old head.  The placement epoch bumps once per election batch,
        rejecting in-flight coalesced envelopes routed under the old
        primary; the deposed server stays in the replica set and catches
        up through normal lag-driven delivery after it is restored
        (demote-and-catch-up).

        Called from :meth:`replication_tick` when ``failover_after`` is
        set; harmless to call directly (a no-op when it is ``None`` or no
        timer has expired).  Returns the elections performed.
        """
        if self.failover_after is None:
            return []
        tick = self._repl.tick_count
        for server_index in range(len(self._servers)):
            if self._reachable(server_index):
                self._unreachable_since.pop(server_index, None)
            else:
                self._unreachable_since.setdefault(server_index, tick)
        elections: list[FailoverEvent] = []
        for list_id in range(self._num_lists):
            primary = self._placement[list_id][0]
            since = self._unreachable_since.get(primary)
            if since is None or tick - since < self.failover_after:
                continue
            event = self._elect_primary(list_id)
            if event is not None:
                elections.append(event)
        if elections:
            self._epoch += 1
        return elections

    def _elect_primary(self, list_id: int) -> FailoverEvent | None:
        """Promote the most-caught-up reachable replica of one list.

        Returns ``None`` (no election) when no other replica is
        reachable — the list keeps its dead primary and the write-path
        durability idealisation until a candidate appears.
        """
        old = self._placement[list_id]
        candidates = [s for s in old[1:] if self._reachable(s)]
        if not candidates:
            return None
        winner = max(
            candidates,
            key=lambda s: (self._repl.applied_version(list_id, s), -old.index(s)),
        )
        # Force the winner to the head BEFORE it takes over: a primary
        # behind its own log would violate the _record invariant.
        self._repl.sync(list_id, winner, reason="failover")
        if self._repl.applied_version(list_id, winner) < self._repl.head_version(
            list_id
        ):
            return None  # log raced away (cannot happen; defensive)
        self._placement[list_id] = (winner,) + tuple(
            s for s in old if s != winner
        )
        event = FailoverEvent(
            list_id=list_id,
            old_primary=old[0],
            new_primary=winner,
            tick=self._repl.tick_count,
        )
        self._failover_history.append(event)
        self._repl.stats.failovers += 1
        return event

    def failover_history(self) -> list[FailoverEvent]:
        """Every election performed (or restored), in order."""
        return list(self._failover_history)

    def unreachable_since(self) -> dict[int, int]:
        """Live failover timers: server -> tick it became unreachable."""
        return dict(self._unreachable_since)

    def restore_failover_state(
        self,
        history: Iterable[FailoverEvent] = (),
        unreachable_since: Mapping[int, int] | None = None,
    ) -> None:
        """Reinstall persisted failover audit trail and timers (recovery).

        The elected primaries themselves are already carried by the
        persisted placement table; this restores the *audit trail* and
        the in-progress unreachability timers so a restart taken
        mid-outage neither forgets past promotions nor resets the clock
        on a pending one.
        """
        self._failover_history = list(history)
        timers = dict(unreachable_since or {})
        for server_index in timers:
            if not 0 <= server_index < len(self._servers):
                raise ConfigurationError(
                    f"unreachable-since timer names unknown server {server_index}"
                )
        self._unreachable_since = timers

    # -- data plane -----------------------------------------------------------

    def _check_write_quorum(
        self, list_id: int, consistency: WriteConsistency
    ) -> None:
        """Refuse a W > 1 write that cannot reach its ack count.

        Runs BEFORE the primary is mutated or anything is logged, so a
        refused write is a clean no-op.  An ack-capable replica is one
        that will *hold* the op when the write call returns: the primary
        (alive — a paused primary still applies writes inline; pausing
        only blocks log deliveries *to* it) plus every reachable
        follower, which
        :meth:`~repro.core.replication.ReplicationManager.force_acks`
        forces current through the log.  Per the :meth:`fail_server`
        contract, W > 1 writes
        never lean on the durable-primary idealisation: a down primary
        refuses the write outright even when enough followers could ack,
        because acknowledging through a dead primary's idealised copy
        would launder the ack count.  That refusal is exactly the one a
        pending failover election heals — once a live replica is
        promoted, the same write goes through — so clients may park on
        it (see ``ZerberRClient._write_with_failover_retry``).  ``ONE``
        keeps the pre-quorum behaviour, including the durable-primary
        idealisation for a down primary.
        """
        replicas = self.replicas_of(list_id)
        needed = consistency.required_acks(len(replicas))
        if needed <= 1:
            return
        primary = replicas[0]
        ack_capable = [primary] if self._alive[primary] else []
        ack_capable += [s for s in replicas[1:] if self._reachable(s)]
        if not self._alive[primary] or len(ack_capable) < needed:
            self._obs.quorum_refusals.inc()
            raise QuorumWriteUnavailableError(
                list_id,
                len(replicas),
                needed,
                live_replicas=tuple(ack_capable),
                down_replicas=tuple(
                    s for s in replicas if not self._alive[s]
                ),
                paused_replicas=tuple(
                    s
                    for s in replicas
                    if self._alive[s] and self._repl.is_paused(s) and s != primary
                ),
            )

    def _ensure_primary_current(self, list_id: int) -> None:
        """Refuse to acknowledge a write at a gapped primary.

        A primary below the log head (a restored dump can say so) must
        not acknowledge a fresh write: that would stamp the primary
        *over* its gap and silently lose the gap ops (their scheduled
        catch-up delivery would no-op).  Catch the primary up from the
        log first; if it is unreachable (paused or down with a gap), the
        write fails honestly with :class:`UnavailableError`.
        """
        replicas = self._placement[list_id]
        if self._repl.staleness(list_id, replicas[0]):
            self._repl.sync(list_id, replicas[0], reason="write-catchup")
            if self._repl.staleness(list_id, replicas[0]):
                raise UnavailableError(list_id, len(replicas))

    def _group_by_primary(
        self, items: list[tuple[int, EncryptedPostingElement]]
    ) -> dict[int, list[tuple[int, EncryptedPostingElement]]]:
        """Group items by their list's primary, preserving caller order
        (the items themselves, not copies: one per element written)."""
        per_server: dict[int, list[tuple[int, EncryptedPostingElement]]] = {}
        placement = self._placement
        for item in items:
            per_server.setdefault(placement[item[0]][0], []).append(item)
        return per_server

    def insert(
        self, principal: str, list_id: int, element: EncryptedPostingElement
    ) -> None:
        """Insert one element: a one-item :meth:`insert_many`."""
        self.insert_many(principal, [(list_id, element)])

    def insert_many(
        self, principal: str, items: Iterable[tuple[int, EncryptedPostingElement]]
    ) -> int:
        """Replicated multi-insert, batched per touched primary.

        Items are validated up front (list id, TRS and group membership
        of the whole batch before any server is touched, see
        :func:`validate_write_batch` — a rejected
        batch cannot leave replicas of a list divergent) and grouped by
        primary, so a batch costs
        O(touched primaries) server write calls.  Only the primaries are
        written by this call; every follower copy arrives through the
        replication log — in this same call when its lag is 0, on a later
        replication tick otherwise — except the W - 1 follower acks a
        ``QUORUM``/``ALL`` ``write_consistency`` forces through the log
        before returning.  The ack count is checked for every touched list
        before anything is mutated, so a write refused with
        :class:`~repro.errors.QuorumWriteUnavailableError` is a clean
        no-op.
        """
        return self._replicated_write_batch(principal, items, bulk=False)

    def bulk_load(
        self, principal: str, items: Iterable[tuple[int, EncryptedPostingElement]]
    ) -> int:
        """Bulk-load with the same all-or-nothing validation and the
        same replication discipline as :meth:`insert_many` — every
        element is one logged op — but each touched primary list takes
        its share of the batch as one mutation."""
        return self._replicated_write_batch(principal, items, bulk=True)

    def _admit_write(
        self, list_ids: Iterable[int], consistency: WriteConsistency
    ) -> list[int]:
        """Per touched list: the ack quorum is reachable and the primary
        holds the log head.  Runs before any primary is written, so a
        refusal is a clean no-op.  Returns the distinct lists, in order.

        Which servers can ack is decided once per batch — it is a
        property of the server, not of the list; the first list whose
        replicas fall short gets its refusal, roster and all, from
        :meth:`_check_write_quorum`.
        """
        touched = list(dict.fromkeys(list_ids))
        needed = consistency.required_acks(self.replication)
        if needed > 1:
            reachable = [self._reachable(s) for s in range(len(self._servers))]
            if not all(reachable):  # otherwise no list can fall short
                for list_id in touched:
                    replicas = self._placement[list_id]
                    ack_capable = 1 + sum(reachable[s] for s in replicas[1:])
                    if not self._alive[replicas[0]] or ack_capable < needed:
                        self._check_write_quorum(list_id, consistency)
        for list_id in touched:
            self._ensure_primary_current(list_id)
        return touched

    def _acknowledge_write(
        self, touched: Iterable[int], consistency: WriteConsistency, ops: int
    ) -> None:
        """Close a batch whose *ops* are applied at the primaries and
        recorded: one delivery round, then the acks W still lacks."""
        # Deliver before forcing: a zero-lag follower's copy of the ops
        # just recorded is already due, so the forcing finds it at the head.
        self._repl.deliver_due()
        self._repl.force_acks(touched, consistency)
        self._obs.writes.inc(float(ops), consistency=consistency.value)

    def _replicated_write_batch(
        self,
        principal: str,
        items: Iterable[tuple[int, EncryptedPostingElement]],
        bulk: bool,
    ) -> int:
        """Shared body of :meth:`insert_many` and :meth:`bulk_load` —
        identical replication discipline, different server entry point."""
        consistency = self.write_consistency
        items = validate_write_batch(
            self._keys, principal, items, self._primary_of
        )
        touched = self._admit_write((lid for lid, _ in items), consistency)
        per_primary = self._group_by_primary(items)
        for server_index in sorted(per_primary):
            server = self._servers[server_index]
            load = server.bulk_load if bulk else server.insert_many
            load(per_primary[server_index])
        record_insert = self._repl.record_insert
        for list_id, element in items:
            record_insert(list_id, element)
        self._acknowledge_write(touched, consistency, len(items))
        return len(items)

    def delete_many(
        self, principal: str, receipts: Iterable[ReceiptLike]
    ) -> list[bool]:
        """Delete a document's elements by their receipts, as one write.

        The delete-side twin of :meth:`insert_many`, on the same
        pipeline: every touched list is admitted (ack quorum, primary at
        the head) and every receipt is located and membership-checked at
        its primary before any element is removed, so an unknown list id,
        a foreign-group element or a refused quorum leaves every replica,
        version and log untouched.  Receipts are located *after* the
        primary catch-up because locating reads the primary's list.  Then
        the primaries pop and patch their views, each removed element is
        recorded with its stored TRS (followers bisect to it), and the
        batch closes with one delivery round and one ack pass over the
        touched lists.  Returns, per receipt, whether it removed an
        element; a miss (already deleted, named twice, never inserted)
        mutates, logs and counts nothing — deletion is idempotent.
        """
        consistency = self.write_consistency
        batch = [Receipt(*receipt) for receipt in receipts]
        per_primary: dict[int, list[int]] = {}
        for index, receipt in enumerate(batch):
            primary = self._primary_of(receipt.list_id)
            per_primary.setdefault(primary, []).append(index)
        self._admit_write((receipt.list_id for receipt in batch), consistency)
        located = {
            server_index: self._servers[server_index].locate_receipts(
                principal, [batch[i] for i in indices]
            )
            for server_index, indices in per_primary.items()
        }
        removed = [False] * len(batch)
        written: list[int] = []
        for server_index in sorted(per_primary):
            elements = self._servers[server_index].remove_located(
                located[server_index]
            )
            for index, element in zip(per_primary[server_index], elements):
                if element is not None:
                    list_id, ciphertext, _ = batch[index]
                    self._repl.record_delete(list_id, ciphertext, element.trs)
                    removed[index] = True
                    written.append(list_id)
        if written:
            self._acknowledge_write(
                dict.fromkeys(written), consistency, len(written)
            )
        return removed

    def delete_element(self, principal: str, list_id: int, ciphertext: bytes) -> bool:
        """Delete one element: a one-receipt :meth:`delete_many`."""
        return self.delete_many(principal, [Receipt(list_id, ciphertext)])[0]

    # -- read path -------------------------------------------------------------
    #
    # Per slice the cluster decides which replica serves it and which
    # version the answer is stamped with — the stamp before the server is
    # called; both are read off the replication log in one call
    # (ReplicationManager.read_state: head, the log's own server ->
    # applied mapping, the paused set).  Neither decision is cached here:
    # a remembered route would be a second source of truth for replica
    # health, and the log read is two dict lookups.

    def route(self, list_id: int, min_version: int | None = None) -> int:
        """The replica that should serve a read of *list_id*.

        Eligibility depends on the cluster's ``read_consistency``:
        ``PRIMARY`` prefers caught-up live replicas, ``ONE`` accepts any
        live replica — narrowed, when *min_version* (the asking session's
        read-your-writes/monotonic floor) is given, to those at or above
        it whenever one exists, so the read is not routed to a replica
        :meth:`_finalize_read` would then have to repair and re-serve —
        and ``QUORUM`` requires a live majority and returns the
        version-max member.
        Among eligible replicas, paused (partitioned) ones are avoided
        whenever an unpaused candidate exists — they only grow staler —
        and the first that remains, in placement order, serves.  Down
        servers are never eligible under any level.

        One log read per slice: the placement row is read as stored (no
        copy), liveness is filtered once, versions are compared out of
        the log's own mapping, and the paused set is consulted only when
        somebody is paused.

        Raises :class:`UnavailableError` when every replica is down and
        :class:`QuorumUnavailableError` when a quorum read lacks a live
        majority.
        """
        if not 0 <= list_id < self._num_lists:
            raise UnknownListError(list_id)
        replicas = self._placement[list_id]
        alive = self._alive
        live = [s for s in replicas if alive[s]]
        if not live:
            raise UnavailableError(list_id, len(replicas))
        head, applied, paused = self._repl.read_state(list_id)
        consistency = self.read_consistency
        if consistency is ReadConsistency.QUORUM:
            needed = len(replicas) // 2 + 1
            if len(live) < needed:
                raise QuorumUnavailableError(
                    list_id,
                    len(replicas),
                    needed,
                    live_replicas=tuple(live),
                    down_replicas=tuple(s for s in replicas if not alive[s]),
                    paused_replicas=tuple(s for s in live if s in paused),
                )
            self._repl.stats.version_probes += len(live)
            return max(live, key=applied.__getitem__)
        candidates = live
        if consistency is ReadConsistency.PRIMARY:
            fresh = [s for s in live if applied[s] == head]
            if fresh:
                candidates = fresh
        elif min_version:  # ONE under a session floor
            floor = min(min_version, head)
            satisfying = [s for s in live if applied[s] >= floor]
            if satisfying:
                candidates = satisfying
        if paused:
            # A partitioned follower only grows staler: route around it
            # unless it is the only copy left (it then serves best-effort).
            unpaused = [s for s in candidates if s not in paused]
            if unpaused:
                candidates = unpaused
        return candidates[0]

    def _count_reads(self, slices: int) -> BoundHistogram | None:
        """Count *slices* served under the cluster's ``read_consistency``
        — one instrument lookup and one counter bump per server call —
        and hand back the read-lag histogram :meth:`_serve` observes per
        slice (``None`` while telemetry is off)."""
        if not self._obs.enabled:
            return None
        read_counter, lag_histogram = self._obs.read_instruments(
            self.read_consistency.value
        )
        read_counter.inc(float(slices))
        return lag_histogram

    def fetch(self, request: FetchRequest) -> FetchResponse:
        """Serve one slice: the one-slice form of :meth:`batch_fetch`.

        The response's ``replica_version`` is the serving replica's
        applied log version; a stale replica triggers read-repair, and a
        ``ONE`` answer below the request's ``min_version`` session floor
        is re-served (see :meth:`_finalize_read`).
        """
        return self.batch_fetch(BatchFetchRequest((request,))).responses[0]

    def batch_fetch(self, batch: BatchFetchRequest) -> BatchFetchResponse:
        """Serve a batch with one server call per touched shard server.

        Each slice routes on its own (:meth:`route`).  A batch that lands
        whole on one server travels as it is — the caller's
        :class:`BatchFetchRequest` object, already validated when it was
        built — and its reply is the one :meth:`_serve` returns; only a
        round that really splits is re-bundled into one sub-batch per
        touched server (one round-trip per touched server, not per
        slice), its replies reassembled in the original slice order.  A
        list with no live replica fails the whole batch.
        """
        requests = batch.requests
        route = self.route
        per_server: dict[int, list[int]] = {}
        for slice_index, request in enumerate(requests):
            server_index = route(request.list_id, request.min_version)
            per_server.setdefault(server_index, []).append(slice_index)
        if len(per_server) == 1:
            (server_index,) = per_server
            return self._serve(server_index, batch)
        responses: list[FetchResponse | None] = [None] * len(requests)
        for server_index, slice_indices in per_server.items():
            sub_batch = BatchFetchRequest(tuple([requests[i] for i in slice_indices]))
            served = self._serve(server_index, sub_batch).responses
            for i, response in zip(slice_indices, served):
                responses[i] = response
        return BatchFetchResponse(tuple(responses))  # type: ignore[arg-type]

    def serve_envelope(
        self, server_index: int, envelope: BatchFetchRequest
    ) -> BatchFetchResponse:
        """Deliver a coordinator envelope to one (live) shard server.

        The coordinator routed the envelope itself, so the cluster only
        verifies that the target is alive and that the envelope was routed
        under the *current* placement epoch — an envelope built before a
        failover election must be re-routed, not served from a stale
        shard map.  It is then served like any other batch
        (:meth:`_serve`): stamped before the serve, its stale slices
        read-repaired per ``read_consistency``.  Replies come back in
        the envelope's slice order.
        """
        if not 0 <= server_index < len(self._servers):
            raise ConfigurationError(f"unknown server index {server_index}")
        if not self._alive[server_index]:
            raise ProtocolError(f"server {server_index} is down")
        if envelope.epoch is not None and envelope.epoch != self._epoch:
            raise StaleEpochError(envelope.epoch, self._epoch)
        with self._obs.tracer.span(
            "serve",
            trace=envelope.trace_id,
            server=server_index,
            slices=len(envelope),
        ):
            return self._serve(server_index, envelope)

    def _serve(self, server_index: int, batch: BatchFetchRequest) -> BatchFetchResponse:
        """The one server call of the read path: stamp, serve, repair.

        Every slice's stamp — the serving replica's applied version of
        its list — is read before the server is called, together with
        the list's head, and handed down, so the server builds each reply
        once, with the version its elements reflect.  (Read after the
        serve, one slice's read-repair would stamp a later, pre-repair
        slice of the same list as fresh.)  A slice sent to a server that
        does not hold its list fails the whole call before anything is
        served.
        The read counter moves once per call and the read-lag histogram
        sees every slice once (:meth:`_count_reads`).  A slice stamped at
        its head comes back as the very reply the server built, and the
        whole reply when every slice is; a slice stamped below its head
        goes through :meth:`_finalize_read`.
        """
        requests = batch.requests
        read_state = self._repl.read_state
        stamps: list[int] = []
        stale: list[int] = []
        for slice_index, request in enumerate(requests):
            head, applied, _ = read_state(request.list_id)
            version = applied.get(server_index)
            if version is None:
                raise ProtocolError(
                    f"server {server_index} does not hold list {request.list_id}"
                )
            stamps.append(version)
            if version < head:
                stale.append(slice_index)
        served = self._servers[server_index].batch_fetch(batch, stamps)
        lag_histogram = self._count_reads(len(requests))
        if lag_histogram is not None:
            pending_lag = self._repl.pending_lag_ticks
            for request in requests:
                lag_histogram.observe(float(pending_lag(request.list_id, server_index)))
        if not stale:
            return served
        responses = list(served.responses)
        for slice_index in stale:
            responses[slice_index] = self._finalize_read(
                requests[slice_index],
                server_index,
                stamps[slice_index],
                responses[slice_index],
            )
        return BatchFetchResponse(tuple(responses))

    def _finalize_read(
        self,
        request: FetchRequest,
        server_index: int,
        version: int,
        response: FetchResponse,
    ) -> FetchResponse:
        """Read-repair a slice served from a replica behind its head.

        *version* is the stamp :meth:`_serve` read before the serve and
        *response* the reply the server built with it.  The serving
        replica is caught up immediately when reachable (the repair ops
        also patch its readable views).
        Under ``PRIMARY``/``QUORUM`` the slice is then *re-served* from a
        replica at the head — the repaired server itself, or the primary
        — so the caller sees every acknowledged write; under ``ONE`` the
        stale response is returned as-is (fast/stale) *unless* it
        violates the request's ``min_version`` session floor, in which
        case the read escalates to the same repair-and-re-serve.  When no
        reachable replica can satisfy the floor (every fresh copy down or
        partitioned), the stale answer is returned best-effort rather
        than failing the read — the guarantees hold whenever a head
        replica is reachable.  The re-serve is the one place a slice is
        answered twice.
        """
        list_id = request.list_id
        consistency = self.read_consistency
        head, applied, _ = self._repl.read_state(list_id)
        self._repl.observe_staleness(head - version)
        self._obs.read_staleness.observe(float(head - version))
        with self._obs.tracer.span(
            "read-repair", list=list_id, server=server_index, staleness=head - version
        ):
            if self._repl.sync(list_id, server_index):
                self._repl.stats.read_repairs += 1
        if consistency is ReadConsistency.QUORUM:
            # Quorum reads repair every stale live replica they examined.
            for other in self._placement[list_id]:
                if (
                    other != server_index
                    and self._alive[other]
                    and applied[other] < head
                    and self._repl.sync(list_id, other)
                ):
                    self._repl.stats.read_repairs += 1
        needs_fresh = consistency is not ReadConsistency.ONE
        # A session floor can never honestly exceed the log head (it came
        # from an earlier response of this cluster); clamp defensively.
        floor = min(request.min_version or 0, head)
        floor_violated = version < floor
        if needs_fresh or floor_violated:
            reserve_from = None
            if applied[server_index] >= head:
                reserve_from = server_index  # repaired in place
            else:
                primary = self._placement[list_id][0]
                if self._alive[primary] and applied[primary] >= head:
                    reserve_from = primary
            if reserve_from is not None:
                if not needs_fresh:
                    self._repl.stats.floor_reserves += 1
                response = self._servers[reserve_from].fetch(
                    request, applied[reserve_from]
                )
                self._repl.stats.read_reserves += 1
        return response

    # -- crash recovery (persistence support; see repro.persist) -----------------

    def placement_table(self) -> list[tuple[int, ...]]:
        """A copy of the authoritative placement table (persisted in every snapshot)."""
        return [tuple(replicas) for replicas in self._placement]

    def restore_topology(
        self, placement: Iterable[Iterable[int]], epoch: int
    ) -> None:
        """Install a persisted placement table and epoch (recovery path).

        Replaces the replication manager with a fresh one built over the
        restored placement (same lag and anti-entropy cadence);
        the persistence layer then reinstalls each list's log and
        per-replica applied versions through
        :meth:`~repro.core.replication.ReplicationManager.restore_clock`
        and ``restore_list_state``.  Must run before the servers' list
        contents are restored only in the sense that nothing here reads
        them — the order the persist module uses is topology, clock,
        lists, logs.
        """
        if epoch < 0:
            raise ConfigurationError("placement epoch must be >= 0")
        self._placement = validate_placement(
            [tuple(replicas) for replicas in placement],
            self._num_lists,
            len(self._servers),
            self.replication,
        )
        self._epoch = int(epoch)
        self._repl = self._new_replication_manager(
            self._repl.lag, self._repl.anti_entropy_every
        )

    # -- accounting -------------------------------------------------------------

    @property
    def num_elements(self) -> int:
        """Logical element count (replicas counted once).

        Counted at the primaries, so replication lag on followers does
        not skew the logical size.
        """
        return sum(
            self._servers[replicas[0]].list_length(list_id)
            for list_id, replicas in enumerate(self._placement)
        )

    def list_length(self, list_id: int) -> int:
        primary = self.replicas_of(list_id)[0]
        return self._servers[primary].list_length(list_id)

    def visible_trs_values(self, list_id: int) -> list[float]:
        primary = self.replicas_of(list_id)[0]
        return self._servers[primary].visible_trs_values(list_id)

    def storage_score_slots(self) -> int:
        return self.num_elements

    def storage_bits(self) -> int:
        return sum(s.storage_bits() for s in self._servers)

    @property
    def total_calls(self) -> int:
        """Fetch calls served cluster-wide (a batch/envelope counts once)."""
        return sum(s.num_calls for s in self._servers)

    def per_server_load(self) -> list[int]:
        """Slices served per server — the read-load balance signal."""
        return [s.slices_served for s in self._servers]

    def view_stats(self) -> ViewStats:
        """Cluster-wide readable-view health: summed per-server counters.

        Aggregates every server's :class:`~repro.core.views.ViewStats`
        (hits, rebuilds, patches, evictions, …) so benchmarks and the
        coordinator can watch view churn — replication repair traffic
        shows up as ``replication_patches``.
        """
        total = ViewStats()
        for server in self._servers:
            stats = server.view_stats
            for field in dataclass_fields(ViewStats):
                setattr(
                    total,
                    field.name,
                    getattr(total, field.name) + getattr(stats, field.name),
                )
        return total

    # -- adversary model ----------------------------------------------------------

    def visible_fraction(self, compromised: Iterable[int]) -> float:
        """Fraction of merged lists an adversary owning *compromised*
        servers can read — the confidentiality benefit of sharding."""
        owned = set(compromised)
        if not owned <= set(range(len(self._servers))):
            raise ConfigurationError("unknown server index")
        visible = sum(
            1
            for list_id in range(self._num_lists)
            if owned & set(self.replicas_of(list_id))
        )
        return visible / self._num_lists

    def observations_at(self, index: int) -> list[ObservedFetch]:
        """The fetch log of one (compromised) server."""
        return self._servers[index].observations
