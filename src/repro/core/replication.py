"""Asynchronous replica maintenance: logs, lag, read-repair, anti-entropy.

The seed cluster *faked* replication: every insert/delete applied to all
replicas synchronously inside the write call, so replicas could never
diverge and "replication" bought availability only.  This module gives
:class:`~repro.core.cluster.ServerCluster` a real replication data plane:

* each merged list has a **primary** replica (the first server in its
  placement tuple) and a monotonically versioned :class:`ReplicationLog`;
* a write batch is *recorded* in one call, each element as a
  :class:`ReplicationOp` with the next sequence number of its list's
  log, and applied to the primaries in the same write call (that is the
  acknowledged durable copy — the op also lives in the log until every
  replica holds it).  The primaries take the ops they logged through the
  very call a follower's delivery makes,
  :meth:`~repro.core.server.ZerberRServer.apply_replicated_ops`, so
  every copy of a list is the log's ops applied in log order;
* followers receive recorded ops asynchronously through a tick-driven
  scheduler embedded in :class:`ReplicationManager`: each op becomes due
  ``lag`` ticks after it was recorded (one delay for every follower), and
  :meth:`ReplicationManager.tick` applies every due op in log order.
  The scheduler keeps its state at the granularity it has: everything one
  follower is owed for one tick is one **bucket**, ``(due tick, follower)
  -> {list: [upto_seq, records]}``, and a min-heap holds one key per
  bucket — at most one push per follower per tick, however many lists a
  write batch touched — so a delivery round touches the followers that
  have something due and nothing else (``docs/REPLICATION.md``,
  "Delivery scheduler"), and a bucket goes to its follower in one
  server call, one run per list.  The delay never changes, so the tick
  a bucket was recorded at is ``due - lag`` and is not stored;
  ``records`` counts the ops behind one entry, which is what
  :meth:`ReplicationManager.outstanding_deliveries` and the ack-latency
  histogram (one observation per delivered record) read;
* a follower can be **paused** (a network partition the cluster keeps,
  :meth:`~repro.core.cluster.ServerCluster.pause_follower`): deliveries
  to it are held — not dropped — until it is resumed; buckets that came
  due while their follower was paused or down wait under that server's
  name, and every delivery round asks the cluster's reachability
  predicate once per such server whether it is back;
* an **anti-entropy sweep** (every ``anti_entropy_every`` ticks) force-
  syncs every reachable stale follower, one server call per server,
  bounding worst-case staleness even for lists that nobody reads.

The server, not the list, is the unit of every replica write: whatever
hands a replica ops — a write batch at its primaries, a delivery bucket,
a forced ack, a sweep — hands each server the runs of all its lists in
one ``apply_replicated_ops`` call, while each list keeps its own log,
versions and invariants below.

Version / log invariants
------------------------

1. ``head_seq(list)`` increments by exactly one per recorded op (insert
   or delete); it is the version of the primary's state, because a write
   applies to the primary in the same write call that records the op.
2. ``log.applied[server]`` is the number of the log's ops *server* has
   applied; the log owns one entry per current replica
   (:attr:`ReplicationLog.applied`).  Every replica's state is always a
   *prefix* of the log: ops are delivered strictly in sequence order —
   a follower's buckets come due in due-tick order and each delivers
   the run ``(applied, upto_seq]`` of each of its lists — and nothing
   else mutates a replicated list (the primary applies each batch's
   recorded ops as one run per list too; a restore replays each
   replica's prefix of the log, :meth:`ReplicationManager.restore_list_state`).
3. ``base_seq(list) <= min(log.applied.values())`` — the log retains at
   least every op some current replica still lacks, so any reachable
   replica can always be caught up from the log alone (read-repair,
   anti-entropy, failover election), even if the primary is down.  Ops
   at or below the minimum applied version are truncated, so the
   retained ops are exactly the run ``(base_seq, head_seq]``; the
   minimum is over the log's own dict, and only the replica that held
   it looks for something to truncate (:meth:`ReplicationLog.advance`).
4. Staleness of a replica is ``head_seq - applied``; it is what fetch
   responses expose as the serving replica's
   :attr:`~repro.core.protocol.FetchResponse.replica_version` and what
   read-repair keys on.

Catching a follower up out of turn (read-repair, anti-entropy, a forced
write ack) makes the deliveries it was still owed moot.  Its *newest*
bucket entry — ``log.pending[server]`` remembers that bucket's due tick,
which is also all :meth:`ReplicationManager.pending_lag_ticks` needs — is
dropped there and then: a QUORUM write forces a follower in the very
batch that scheduled its delivery, and leaving those entries in place
piles them up through a large lagged upload.  Entries in *older* buckets
are left where they are and skipped when their bucket comes due
(``upto_seq <= applied``): finding them eagerly would mean walking
buckets on the write path, and there are at most ``lag`` of them.

Lag 0 (the default) is a lag like any other: a recorded op is due on the
tick it was recorded, so the ``deliver_due()`` that ends every cluster
write call applies it to each reachable follower before the call
returns, and the op is truncated there and then.  A list with a single
replica has no follower to wait for: recording an op there advances the
head, the base and the replica's version together, and keeps no op.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple, TypeVar

from repro.errors import ConfigurationError, ProtocolError
from repro.index.postings import EncryptedPostingElement
from repro.obs.instruments import ReplicationInstruments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import ZerberRServer


_Level = TypeVar("_Level", "ReadConsistency", "WriteConsistency")


def _coerce(
    cls: type[_Level], value: _Level | str | None, default: _Level, side: str
) -> _Level:
    """A level from its member, its string spelling (any case) or
    ``None`` (*default*); anything else is a :class:`ConfigurationError`."""
    if value is None:
        return default
    if isinstance(value, cls):
        return value
    try:
        return cls(str(value).lower())
    except ValueError:
        raise ConfigurationError(
            f"unknown {side} consistency {value!r}; "
            f"expected one of {[c.value for c in cls]}"
        ) from None


class ReadConsistency(Enum):
    """Tunable read consistency of cluster fetches.

    ``ONE``
        Serve from whichever replica routing picked, as-is — fastest,
        possibly stale.  Divergence is still *detected* (the response
        version is compared against the log head) and triggers catch-up
        of the stale follower, but the stale response is returned.
    ``PRIMARY``
        Strong reads (the default, and the seed's effective behaviour):
        if the serving replica is behind the log head, it is caught up
        from the log when reachable, and the slice is re-served — from
        the repaired replica, or from the primary — so the response
        reflects every acknowledged write whenever any reachable replica
        can be brought to the head.
    ``QUORUM``
        Version-max across a majority: the read consults the applied
        versions of a majority of live replicas, serves from the highest
        one, and repairs the stale members it examined.  Raises
        :class:`~repro.errors.QuorumUnavailableError` when fewer than a
        majority of replicas are live.
    """

    ONE = "one"
    PRIMARY = "primary"
    QUORUM = "quorum"

    @classmethod
    def coerce(cls, value: "ReadConsistency | str | None") -> "ReadConsistency":
        return _coerce(cls, value, cls.PRIMARY, "read")


class WriteConsistency(Enum):
    """Tunable acknowledgement requirement of cluster writes.

    The write-side half of the consistency matrix (reads are tuned by
    :class:`ReadConsistency`).  Whatever the level, the mutation itself
    is always recorded in the replication log and applied to the primary
    first; the level only controls how many replicas must
    *hold* the op before the write call returns — acks are forced
    synchronously through the log (no wall-clock waiting), so an
    acknowledged write is never outrun by a crash of fewer than W
    replicas.

    ``ONE``
        Primary ack only — the default, and the pre-quorum behaviour:
        followers converge asynchronously under the lag model.
    ``QUORUM``
        A majority of the list's replicas must hold the op before the
        call returns; the most-caught-up reachable followers are forced
        current through the log.  Raises
        :class:`~repro.errors.QuorumWriteUnavailableError` (a clean
        no-op: nothing mutated, nothing logged) when fewer than a
        majority are reachable.
    ``ALL``
        Every replica must hold the op — linearizable against any
        single-replica read, at the cost of refusing writes whenever any
        replica is down or partitioned.
    """

    ONE = "one"
    QUORUM = "quorum"
    ALL = "all"

    @classmethod
    def coerce(cls, value: "WriteConsistency | str | None") -> "WriteConsistency":
        return _coerce(cls, value, cls.ONE, "write")

    def required_acks(self, num_replicas: int) -> int:
        """Replicas that must hold an op before the write is acked."""
        if num_replicas < 1:
            raise ConfigurationError("num_replicas must be >= 1")
        if self is WriteConsistency.ONE:
            return 1
        elif self is WriteConsistency.QUORUM:
            return num_replicas // 2 + 1
        elif self is WriteConsistency.ALL:
            return num_replicas
        raise ConfigurationError(f"unknown write consistency {self!r}")


@dataclass(frozen=True)
class FailoverEvent:
    """One primary failover election (see ``ServerCluster``).

    Recorded when the cluster promotes ``new_primary`` over *list_id*
    because ``old_primary`` had been unreachable past the failover
    threshold at replication tick ``tick``.  The history is persisted
    with the cluster snapshot, so a restart keeps the promotion audit
    trail (and the elected primary, via the placement table).
    """

    list_id: int
    old_primary: int
    new_primary: int
    tick: int


class ReplicationOp(NamedTuple):
    """One recorded mutation of a merged list.

    ``seq`` is the list's log sequence number after applying this op
    (the first op of a list has ``seq == 1``).  ``kind`` is ``"insert"``
    or ``"delete"``; ``element`` is the element inserted or removed, so
    every replica, the primary included, bisects to its place by its TRS
    either way.

    A tuple, not a dataclass: every element written is one op, built on
    the write path, and a tuple is built in one C call where a frozen
    dataclass sets each field through ``object.__setattr__``.
    """

    seq: int
    kind: str
    element: EncryptedPostingElement


_new_op = tuple.__new__


class ReplicationLog:
    """The monotonically versioned op log of one merged list.

    Retains every op above ``base_seq``; invariant 3 of the module
    docstring governs truncation (the manager advances the base only
    past the minimum of ``applied``).  The log owns the versions it is a
    log *of*: ``applied`` has one entry per current replica of the list.
    """

    __slots__ = ("list_id", "head_seq", "base_seq", "_ops", "applied", "pending")

    def __init__(self, list_id: int, replicas: Iterable[int] = ()) -> None:
        self.list_id = list_id
        self.head_seq = 0
        self.base_seq = 0  # ops with seq <= base_seq are truncated
        self._ops: deque[ReplicationOp] = deque()
        # server -> ops of this log the server has applied.
        self.applied: dict[int, int] = dict.fromkeys(replicas, 0)
        # server -> due tick of the newest delivery scheduled for it that
        # nothing has satisfied yet (the bucket a catch-up must clean).
        self.pending: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._ops)

    def extend(self, ops: Sequence[ReplicationOp]) -> None:
        """Retain a non-empty run of new ops, numbered on from the head."""
        self._ops.extend(ops)
        self.head_seq = ops[-1].seq

    def ops_between(self, after_seq: int, upto_seq: int) -> list[ReplicationOp]:
        """Ops with ``after_seq < seq <= upto_seq``, in order."""
        base = self.base_seq
        if after_seq < base:
            raise self._truncated(after_seq)
        # The retained ops are the contiguous run (base_seq, head_seq].
        return list(islice(self._ops, after_seq - base, max(upto_seq - base, 0)))

    def advance(self, server_index: int, upto_seq: int) -> list[ReplicationOp]:
        """The run ``(applied, upto_seq]`` a replica lacks, which it is
        marked as having applied; *upto_seq* is above its version and at
        most the head.  The ops every replica now holds are truncated
        (invariant 3): only the replica that held the minimum can raise
        it."""
        applied = self.applied
        after = applied[server_index]
        base = self.base_seq
        if after < base:
            raise self._truncated(after)
        ops = list(islice(self._ops, after - base, upto_seq - base))
        applied[server_index] = upto_seq
        if after == base:
            low = min(applied.values())
            if low > base:
                self.truncate_to(low)
        return ops

    def _truncated(self, after_seq: int) -> ProtocolError:
        return ProtocolError(
            f"list {self.list_id}: ops after seq {after_seq} were "
            f"truncated (log base is {self.base_seq})"
        )

    def truncate_to(self, min_applied: int) -> None:
        """Drop ops every current replica has applied (invariant 3)."""
        while self._ops and self._ops[0].seq <= min_applied:
            self._ops.popleft()
        self.base_seq = max(self.base_seq, min(min_applied, self.head_seq))

    def iter_ops(self) -> list[ReplicationOp]:
        """Every retained op (``base_seq < seq <= head_seq``), in order.

        The persistence layer serialises exactly this: the retained tail
        is what some replica may still need after a restart.
        """
        return list(self._ops)

    def restore(
        self, head_seq: int, base_seq: int, ops: Sequence[ReplicationOp]
    ) -> None:
        """Reinstall persisted log state (recovery path; see ``repro.persist``).

        The restored state must satisfy the module invariants: the base
        never exceeds the head, and the retained ops are exactly a
        strictly increasing run ending at the head (or empty when base ==
        head — everything truncated before the snapshot).
        """
        if not 0 <= base_seq <= head_seq:
            raise ProtocolError(
                f"list {self.list_id}: invalid restored log bounds "
                f"base={base_seq} head={head_seq}"
            )
        expected = range(base_seq + 1, head_seq + 1)
        if [op.seq for op in ops] != list(expected):
            raise ProtocolError(
                f"list {self.list_id}: restored ops do not form the "
                f"contiguous run ({base_seq}, {head_seq}]"
            )
        self.head_seq = head_seq
        self.base_seq = base_seq
        self._ops = deque(ops)


@dataclass
class ReplicationStats:
    """Counters of the replication data plane (benchmarks assert on these).

    ``ops_logged`` counts recorded ops — every acknowledged write;
    ``follower_ops_applied`` counts scheduled (lag-driven) deliveries;
    ``repair_ops`` and ``anti_entropy_ops`` count the same deliveries
    when forced by read-repair or the anti-entropy sweep instead.
    ``read_reserves`` counts slices re-served for consistency after a
    stale first answer; ``version_probes`` counts replica version checks
    done by quorum reads.  Every field is a count; the high-water mark of
    observed staleness is :attr:`ReplicationManager.max_staleness_seen`.

    Write-side counters: ``write_ack_syncs`` / ``write_ack_ops`` count
    follower catch-ups forced synchronously by QUORUM/ALL writes (the
    price of a W > 1 ack).  ``failovers`` / ``failover_ops`` count
    primary elections and the catch-up ops they forced through the log.
    ``floor_reserves`` counts ONE reads re-served because a session's
    read-your-writes/monotonic-reads version floor was violated.
    """

    ticks: int = 0
    ops_logged: int = 0
    follower_ops_applied: int = 0
    stale_reads_detected: int = 0
    read_repairs: int = 0
    repair_ops: int = 0
    read_reserves: int = 0
    anti_entropy_runs: int = 0
    anti_entropy_syncs: int = 0
    anti_entropy_ops: int = 0
    version_probes: int = 0
    write_ack_syncs: int = 0
    write_ack_ops: int = 0
    failovers: int = 0
    failover_ops: int = 0
    floor_reserves: int = 0


class DeliveryOutlook(NamedTuple):
    """When one server's scheduled deliveries are due (``cluster-status``).

    ``next_due`` is the earliest due tick among its scheduled buckets
    (``None`` when it has none); ``held`` counts buckets that came due
    while it was paused or down and go out on the first delivery round
    after it recovers.  Buckets nothing is owed from any more — every
    entry satisfied by a catch-up — are not counted.
    """

    next_due: int | None
    scheduled: int
    held: int


class ReplicationManager:
    """Per-list replication logs plus the tick-driven delivery scheduler.

    The manager owns no topology: the cluster passes ``replicas_of``
    (current replica tuple per list, primary first) and ``reachable``
    (alive and not partitioned) callables, so elections, failures and
    partitions are always judged against the cluster's authoritative
    state.  It owns the follower-side server
    *mutations*: a delivery, catch-up, forced ack or repair hands a
    replica the run of ops it lacks on each of its lists in one
    :meth:`ZerberRServer.apply_replicated_ops` call per server — the call
    the cluster hands each primary server the runs a batch just recorded
    with (no membership re-check — the ops were admitted at the primary;
    re-checking at drain time would let a concurrent revocation fork the
    replicas).  A write batch is recorded in one call too
    (:meth:`record_insert` / :meth:`record_delete`), one scheduled entry
    per (list, follower) whatever the number of ops behind it.

    *lag* is the number of ticks every follower trails a recorded op by
    (0: due on the tick it was recorded, so the write call that recorded
    it delivers it).  Pausing a follower is *not* a lag value — it is a
    partition, which the cluster keeps and ``reachable`` reports.
    """

    def __init__(
        self,
        servers: "Sequence[ZerberRServer]",
        replicas_of: Callable[[int], Sequence[int]],
        reachable: Callable[[int], bool],
        num_lists: int,
        lag: int = 0,
        anti_entropy_every: int | None = None,
        instruments: ReplicationInstruments | None = None,
    ) -> None:
        if lag < 0:
            raise ConfigurationError("replication lag must be >= 0 ticks")
        if anti_entropy_every is not None and anti_entropy_every < 1:
            raise ConfigurationError("anti_entropy_every must be >= 1")
        self._servers = servers
        self._replicas_of = replicas_of
        # The cluster's one reachability predicate (alive, not partitioned).
        self._deliverable = reachable
        # The delay never changes, so a follower's buckets come due in the
        # order they were filled and a bucket's recording tick is its due
        # tick minus the delay.
        self._lag = int(lag)
        self.anti_entropy_every = anti_entropy_every
        self._obs = (
            instruments if instruments is not None else ReplicationInstruments(None)
        )
        self._logs: dict[int, ReplicationLog] = {
            list_id: ReplicationLog(list_id, replicas_of(list_id))
            for list_id in range(num_lists)
        }
        # (due tick, server) -> list_id -> [upto_seq, records]: every
        # delivery one follower is owed for one tick.  ``records`` is the
        # number of recorded ops behind the entry.
        self._buckets: dict[tuple[int, int], dict[int, list[int]]] = {}
        # Every bucket is in exactly one of these two: the min-heap of the
        # keys of buckets not yet due, or — server -> due ticks, oldest
        # first — the buckets that came due while their follower was
        # paused or down.  Nobody announces a recovery, so deliver_due()
        # asks again about each server that has something held.
        self._schedule: list[tuple[int, int]] = []
        self._held: dict[int, list[int]] = {}
        self.tick_count = 0
        self.stats = ReplicationStats()
        # The largest head-minus-applied gap any read ever observed.
        self.max_staleness_seen = 0

    @property
    def lag(self) -> int:
        """Ticks between recording an op and its delivery to a follower."""
        return self._lag

    # -- versions --------------------------------------------------------------

    def head_version(self, list_id: int) -> int:
        """The primary's (log head) version of *list_id*."""
        return self._logs[list_id].head_seq

    def applied_version(self, list_id: int, server_index: int) -> int:
        """Ops of *list_id*'s log that *server_index* has applied."""
        try:
            return self._logs[list_id].applied[server_index]
        except KeyError:
            raise ProtocolError(
                f"server {server_index} does not hold list {list_id}"
            ) from None

    def read_state(self, list_id: int) -> tuple[int, Mapping[int, int]]:
        """What a read of *list_id* is routed and stamped by, in one call:
        ``(head version, applied version per current replica)``.

        The mapping is the log's own (:attr:`ReplicationLog.applied`) —
        read-only for the caller, and live: a repair that runs after
        this call shows in the mapping already held.
        :meth:`head_version` and :meth:`applied_version` answer the same
        questions one at a time.
        """
        log = self._logs[list_id]
        return log.head_seq, log.applied

    def _unsatisfied(self) -> Iterator[tuple[tuple[int, int], int]]:
        """``(bucket key, records)`` of every entry still owed.

        An entry a catch-up has satisfied since (``upto_seq <= applied``)
        stays in its bucket until the bucket comes due; it is owed
        nothing, so the observability reads skip it like delivery does.
        """
        logs = self._logs
        for key, bucket in self._buckets.items():
            for list_id, (upto_seq, records) in bucket.items():
                if upto_seq > logs[list_id].applied[key[1]]:
                    yield key, records

    def outstanding_deliveries(self) -> int:
        """Scheduled (not yet applied) delivery records across all followers."""
        return sum(records for _, records in self._unsatisfied())

    # -- write path ------------------------------------------------------------

    def record_insert(
        self, items: Iterable[tuple[int, EncryptedPostingElement]]
    ) -> dict[int, list[ReplicationOp]]:
        """Log an insert of each ``(list_id, element)`` of a write batch;
        returns each touched list's run of ops, which the cluster then
        applies at the list's primary."""
        return self._record("insert", items)

    def record_delete(
        self, items: Iterable[tuple[int, EncryptedPostingElement]]
    ) -> dict[int, list[ReplicationOp]]:
        """Log a delete of each ``(list_id, element)``, the elements
        receipts located at the primaries; returns the runs per list, as
        :meth:`record_insert` does."""
        return self._record("delete", items)

    def _record(
        self, kind: str, items: Iterable[tuple[int, EncryptedPostingElement]]
    ) -> dict[int, list[ReplicationOp]]:
        """Record a batch: one op per item, numbered on from each list's
        head in batch order, and one scheduled delivery per (list,
        follower) carrying the count of ops behind it.  Lists come back
        in first-touch order."""
        logs, replicas_of = self._logs, self._replicas_of
        # list_id -> (its log, its replicas, its elements in batch order).
        touched: dict[
            int, tuple[ReplicationLog, Sequence[int], list[EncryptedPostingElement]]
        ] = {}
        for list_id, element in items:
            entry = touched.get(list_id)
            if entry is None:
                log = logs[list_id]
                replicas = replicas_of(list_id)
                if log.applied[replicas[0]] != log.head_seq:
                    # The cluster guards every write with a primary catch-up
                    # (ServerCluster._ensure_primary_current); stamping a
                    # gapped primary to the new head here would mark its
                    # missing ops as applied and silently lose them, so fail
                    # loudly — and before any op is numbered: a refused
                    # batch logs, schedules and counts nothing.
                    raise ProtocolError(
                        f"list {list_id}: primary {replicas[0]} is at version "
                        f"{log.applied[replicas[0]]}, cannot acknowledge op "
                        f"{log.head_seq + 1}"
                    )
                entry = touched[list_id] = (log, replicas, [])
            entry[2].append(element)
        runs: dict[int, list[ReplicationOp]] = {}
        for list_id, (log, replicas, elements) in touched.items():
            seq = log.head_seq
            run: list[ReplicationOp] = []
            for element in elements:
                # One op per element written: the tuple is built in one C
                # call, without the generated ``__new__`` a call to the
                # class enters.
                seq += 1
                run.append(_new_op(ReplicationOp, (seq, kind, element)))
            runs[list_id] = run
            self.stats.ops_logged += len(run)
            log.applied[replicas[0]] = seq
            if len(replicas) == 1:
                # Invariant 3 applied as the ops are recorded: the sole
                # replica holds them already and no follower will ever
                # ask for them, so the head, the base and its version
                # advance together and no op is kept (the log was empty:
                # the base sat at the head).
                log.head_seq = log.base_seq = seq
                continue
            log.extend(run)
            self._enqueue(log, replicas[1:], seq, len(run))
        return runs

    def _enqueue(
        self,
        log: ReplicationLog,
        followers: Iterable[int],
        upto_seq: int,
        records: int,
    ) -> None:
        """Owe each of *followers* the ops of *log* up to *upto_seq*, due
        after the lag: *records* more ops in each follower's bucket for
        that tick."""
        due = self.tick_count + self._lag
        buckets, list_id = self._buckets, log.list_id
        for server_index in followers:
            key = (due, server_index)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {}
                heappush(self._schedule, key)
            entry = bucket.get(list_id)
            if entry is None:
                bucket[list_id] = [upto_seq, records]
            else:
                entry[0] = upto_seq
                entry[1] += records
            log.pending[server_index] = due

    def force_acks(
        self, list_ids: Iterable[int], consistency: WriteConsistency
    ) -> None:
        """Force followers current until W replicas hold each list's head.

        The closing pass of a write batch over the lists it touched.  The
        acks are synchronous *through the log* — no wall-clock waiting:
        per list, the most-caught-up reachable followers (ties by
        placement order) are chosen, counted as ``"write-ack"`` syncs,
        until the required count of replicas would sit at the head; then
        each chosen follower is caught up on all its lists in one server
        call.  The cluster's admission check already proved enough
        replicas are reachable, and invariant 3 guarantees the log holds
        every op they lack, so this cannot fail once the write was
        admitted.  Whether a server is reachable is decided once per
        batch, not per list.
        """
        reachable: dict[int, bool] = {}
        required: dict[int, int] = {}
        forced: dict[int, list[ReplicationLog]] = {}
        for list_id in list_ids:
            log = self._logs[list_id]
            applied = log.applied
            replicas = len(applied)
            needed = required.get(replicas)
            if needed is None:
                needed = required[replicas] = consistency.required_acks(replicas)
            head = log.head_seq
            acked = 0
            for version in applied.values():
                if version >= head:
                    acked += 1
            if acked >= needed:
                continue
            stale: list[int] = []
            for follower in self._replicas_of(list_id)[1:]:
                if applied[follower] < head:
                    if follower not in reachable:
                        reachable[follower] = self._deliverable(follower)
                    if reachable[follower]:
                        stale.append(follower)
            # Most caught up first; a stable sort keeps placement order
            # among equals, reversed or not.
            stale.sort(key=applied.__getitem__, reverse=True)
            for follower in stale[: needed - acked]:
                logs = forced.get(follower)
                if logs is None:
                    logs = forced[follower] = []
                logs.append(log)
        for follower, logs in forced.items():
            self._catch_up(follower, logs, "write-ack")

    # -- delivery --------------------------------------------------------------

    def tick(self) -> int:
        """Advance the replication clock one tick; deliver due ops.

        Returns the number of ops applied to followers this tick.  Every
        ``anti_entropy_every`` ticks the sweep additionally force-syncs
        all reachable stale followers.
        """
        self.tick_count += 1
        self.stats.ticks += 1
        applied = self.deliver_due()
        if (
            self.anti_entropy_every is not None
            and self.tick_count % self.anti_entropy_every == 0
        ):
            applied += self.anti_entropy_sweep()
        return applied

    def deliver_due(self) -> int:
        """Apply every delivery that is due at the current tick.

        Costs one liveness check per *server* with something due or
        held, and one heap pop per bucket come due: nothing due and
        nothing held is one comparison against the top of the schedule.
        """
        total = 0
        if self._held:
            for server_index in [s for s in self._held if self._deliverable(s)]:
                # Oldest first, and before anything newer leaves the heap.
                for due in self._held.pop(server_index):
                    total += self._deliver((due, server_index))
        schedule = self._schedule
        while schedule and schedule[0][0] <= self.tick_count:
            key = heappop(schedule)
            if self._deliverable(key[1]):
                total += self._deliver(key)
            else:
                self._held.setdefault(key[1], []).append(key[0])
        self.stats.follower_ops_applied += total
        return total

    def _deliver(self, key: tuple[int, int]) -> int:
        """Hand one follower everything one bucket owes it, in one server
        call."""
        due, server_index = key
        observe = self._obs.ack_latency.observe if self._obs.enabled else None
        latency = float(self.tick_count - (due - self._lag))
        logs = self._logs
        owed: list[tuple[ReplicationLog, int]] = []
        for list_id, (upto_seq, records) in self._buckets.pop(key).items():
            log = logs[list_id]
            if upto_seq <= log.applied[server_index]:
                continue  # a catch-up got there first; it observed nothing
            if observe is not None:
                for _ in range(records):
                    observe(latency)
            if log.pending.get(server_index) == due:
                del log.pending[server_index]  # nothing newer is scheduled
            owed.append((log, upto_seq))
        return self._apply_runs(server_index, owed) if owed else 0

    def sync(self, list_id: int, server_index: int, reason: str = "repair") -> int:
        """Catch one replica up to the log head right now (if reachable).

        Used by read-repair and failover elections.  Returns the number
        of ops applied (0 when the replica is already current, paused or
        down).
        """
        log = self._logs.get(list_id)
        if log is None or server_index not in log.applied:
            raise ProtocolError(f"server {server_index} does not hold list {list_id}")
        if not self._deliverable(server_index):
            return 0
        return self._catch_up(server_index, [log], reason)

    def _catch_up(
        self, server_index: int, logs: Iterable[ReplicationLog], reason: str
    ) -> int:
        """Bring a replica known to be reachable to the head of each of
        *logs* in one server call; returns the ops applied.  Each log it
        was behind on counts as one sync of *reason*."""
        owed: list[tuple[ReplicationLog, int]] = []
        for log in logs:
            if log.applied[server_index] < log.head_seq:
                owed.append((log, log.head_seq))
                # At the head, the replica is owed nothing: drop the newest
                # delivery scheduled for it.  Older buckets skip theirs when
                # they come due (see the module docstring).
                due = log.pending.pop(server_index, None)
                if due is not None:
                    del self._buckets[due, server_index][log.list_id]
        if not owed:
            return 0
        applied = self._apply_runs(server_index, owed)
        stats = self.stats
        if reason == "anti-entropy":
            stats.anti_entropy_syncs += len(owed)
            stats.anti_entropy_ops += applied
        elif reason == "write-ack":
            stats.write_ack_syncs += len(owed)
            stats.write_ack_ops += applied
        elif reason == "failover":
            stats.failover_ops += applied
        else:
            stats.repair_ops += applied
        return applied

    def anti_entropy_sweep(self) -> int:
        """Force-sync every reachable stale follower of every list: one
        server call per stale server, carrying all its lists."""
        self.stats.anti_entropy_runs += 1
        stale: dict[int, list[ReplicationLog]] = {}
        for list_id, log in self._logs.items():
            head = log.head_seq
            if log.base_seq == head:
                continue  # invariant 3: the minimum is at the head
            for server_index in self._replicas_of(list_id):
                if log.applied[server_index] < head:
                    logs = stale.get(server_index)
                    if logs is None:
                        logs = stale[server_index] = []
                    logs.append(log)
        total = 0
        for server_index, logs in stale.items():
            if self._deliverable(server_index):
                total += self._catch_up(server_index, logs, "anti-entropy")
        return total

    def _apply_runs(
        self, server_index: int, owed: Iterable[tuple[ReplicationLog, int]]
    ) -> int:
        """Hand one replica, in one server call, the run ``(applied,
        upto_seq]`` of each ``(log, upto_seq)`` it is *owed* (each run
        non-empty); returns the ops handed over."""
        runs: list[tuple[int, list[ReplicationOp]]] = []
        total = 0
        for log, upto_seq in owed:
            ops = log.advance(server_index, upto_seq)
            runs.append((log.list_id, ops))
            total += len(ops)
        self._servers[server_index].apply_replicated_ops(runs)
        return total

    # -- recovery (persistence support; see repro.persist) ----------------------

    def log_snapshot(self, list_id: int) -> tuple[int, int, list[ReplicationOp]]:
        """One list's durable log state: ``(head_seq, base_seq, retained ops)``."""
        log = self._logs[list_id]
        return log.head_seq, log.base_seq, log.iter_ops()

    def applied_snapshot(self, list_id: int) -> dict[int, int]:
        """Applied version per current replica of *list_id*."""
        applied = self._logs[list_id].applied
        return {
            server_index: applied[server_index]
            for server_index in self._replicas_of(list_id)
        }

    def restore_clock(self, tick_count: int) -> None:
        """Reinstall the persisted replication clock.

        Called on a fresh manager, before :meth:`restore_list_state`, so
        catch-up deliveries scheduled during the restore are due relative
        to the restored clock, exactly as the pre-restart schedule was.
        """
        if tick_count < 0:
            raise ConfigurationError("tick_count must be >= 0")
        self.tick_count = tick_count

    def restore_list_state(
        self,
        list_id: int,
        head_seq: int,
        base_seq: int,
        run: Sequence[EncryptedPostingElement],
        ops: Sequence[ReplicationOp],
        applied: Mapping[int, int],
    ) -> None:
        """Rebuild one list of a fresh cluster by replaying its log.

        *run* is the list at version *base_seq* and *ops* the retained
        run ``(base_seq, head_seq]``.  *applied* must name exactly the
        list's current replicas (the cluster restores its placement
        table first), each at a version within ``[base_seq, head_seq]``
        — invariant 3 guarantees a snapshot taken through
        :meth:`log_snapshot` satisfies this.  Each replica is handed the
        run as insert ops, then its own ops ``(base_seq, applied]``, as
        two runs of one :meth:`ZerberRServer.apply_replicated_ops` call —
        the one way any list changes — so every replica shares the run's
        element objects.  The ops it still lacks are scheduled for normal
        lag-driven delivery: a restarted follower converges through the
        log instead of starting blank, so no acknowledged-but-undelivered
        op is lost.  Nothing is counted in :attr:`stats`.  A replayed
        delete that removes nothing means the run and the ops disagree:
        a :class:`ProtocolError`.
        """
        replicas = list(self._replicas_of(list_id))
        if set(applied) != set(replicas):
            raise ProtocolError(
                f"list {list_id}: restored applied versions name servers "
                f"{sorted(applied)}, placement says {sorted(replicas)}"
            )
        for server_index, version in applied.items():
            if not base_seq <= version <= head_seq:
                raise ProtocolError(
                    f"list {list_id}: restored applied version {version} of "
                    f"server {server_index} outside log bounds "
                    f"[{base_seq}, {head_seq}]"
                )
        log = self._logs[list_id]
        log.restore(head_seq, base_seq, ops)
        inserts = [ReplicationOp(0, "insert", element) for element in run]
        for server_index in replicas:
            version = applied[server_index]
            # A server call carries non-empty runs only.
            replay = [
                (list_id, part)
                for part in (inserts, log.ops_between(base_seq, version))
                if part
            ]
            expected = sum(len(part) for _, part in replay)
            if (
                replay
                and self._servers[server_index].apply_replicated_ops(replay)
                != expected
            ):
                raise ProtocolError(
                    f"list {list_id}: a restored delete op finds nothing "
                    f"to remove at server {server_index}: the run at "
                    f"version {base_seq} and the ops disagree"
                )
            log.applied[server_index] = version
            if version < head_seq:
                self._enqueue(log, (server_index,), head_seq, 1)
        # A hand-made dump may retain ops below every replica's version;
        # ReplicationLog.advance relies on the base sitting at the minimum.
        log.truncate_to(min(log.applied.values()))

    # -- observability ---------------------------------------------------------

    def observe_staleness(self, staleness: int) -> None:
        if staleness > 0:
            self.stats.stale_reads_detected += 1
            if staleness > self.max_staleness_seen:
                self.max_staleness_seen = staleness

    def pending_lag_ticks(self, list_id: int, server_index: int) -> int:
        """Ticks until the last scheduled delivery to one replica is due.

        0 means the replica has nothing scheduled (it is at the head, or
        its remaining staleness has no delivery yet — e.g. a sync emptied
        its schedule and it was paused before the next write).  This is
        the tick-denominated answer to "how long until a read from this
        replica would be fresh", which the cluster's per-consistency
        read-latency histogram observes.
        """
        due = self._logs[list_id].pending.get(server_index)
        return 0 if due is None else max(0, due - self.tick_count)

    def delivery_outlook(self, server_index: int) -> DeliveryOutlook:
        """When *server_index*'s scheduled deliveries are due (read-only;
        :meth:`ServerCluster.delivery_outlook
        <repro.core.cluster.ServerCluster.delivery_outlook>` checks the
        index)."""
        owed = {due for (due, s), _ in self._unsatisfied() if s == server_index}
        held = owed.intersection(self._held.get(server_index, ()))
        scheduled = owed - held
        return DeliveryOutlook(
            min(scheduled, default=None), len(scheduled), len(held)
        )

    def log_lengths(self) -> dict[int, int]:
        """Retained (untruncated) op count per list's replication log."""
        return {list_id: len(log) for list_id, log in self._logs.items()}

    def backlog(self) -> dict[tuple[int, int], int]:
        """Current staleness per (list, server) pair, stale pairs only."""
        return {
            (list_id, server_index): log.head_seq - applied
            for list_id, log in self._logs.items()
            for server_index, applied in log.applied.items()
            if applied < log.head_seq
        }

    def reachable_backlog(self) -> dict[tuple[int, int], int]:
        """The backlog restricted to live, un-paused servers — what ticks
        alone can still drain."""
        return {
            (list_id, server_index): staleness
            for (list_id, server_index), staleness in self.backlog().items()
            if self._deliverable(server_index)
        }
