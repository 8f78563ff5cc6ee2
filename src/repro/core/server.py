"""One shard of the untrusted Zerber+R index server (paper §5, §5.2).

The server stores merged posting lists whose elements carry an encrypted
payload plus a plaintext TRS, keeps each list sorted by descending TRS, and
serves ``(offset, count)`` slices to authenticated clients.  Access control
is group-based: every element is tagged with its owning group, and a fetch
only ever returns elements of groups the requesting principal belongs to
(paper §4.1: "The index server determines user's access rights").

A :class:`ZerberRServer` is a shard: only
:class:`~repro.core.cluster.ServerCluster` constructs one, and the paper's
single index server is a one-server cluster.  The cluster gates every
write batch once (:func:`~repro.core.cluster.validate_write_batch`) before
it hands a shard its share, and reads each slice's replica stamp before it
asks a shard to serve it.

Two throughput mechanisms sit on the fetch path:

* **Batched fetches** — :meth:`ZerberRServer.batch_fetch` serves a
  :class:`~repro.core.protocol.BatchFetchRequest` bundling many slices
  in a single call: a client round (one slice per merged list a
  multi-term query needs, so a round of the doubling protocol costs one
  round-trip regardless of term count) and a coordinator envelope (many
  principals' slices) alike, each slice under its own request's
  principal.  The cluster hands down the replica stamp of every slice,
  and each reply is built once, with it.  Each slice is still logged
  individually (with a shared ``batch_id``) because the
  compromised-server adversary sees them all.
* **Incremental readable views** — the per-principal readable sub-list a
  fetch slices is maintained by a
  :class:`~repro.core.views.ReadableViewIndex`: inserts and deletes patch
  cached views in place (a bisect plus one splice of a flat sorted
  array) instead of forcing a full membership-filtered rebuild of the
  merged list, fetches extract ``(offset, count)`` slices in O(count),
  and an LRU over ``(list, principal)`` pairs bounds the memory.

A list changes one way: :meth:`ZerberRServer.apply_replicated_ops`
applies runs of ops from the lists' replication logs, one ``(list_id,
ops)`` run per list, in one call per server however many lists a write
touched.  A primary server takes the runs the cluster just recorded on
the lists it leads, a follower the runs a delivery bucket, forced ack,
anti-entropy sweep or repair hands it, and a restored replica the run
its dump holds at the log base followed by its own prefix of the
retained ops, so every copy of a list is the same ops applied by the
same code.  Deletion is by receipt
(:class:`~repro.core.protocol.Receipt`): :meth:`ZerberRServer.locate_receipts`
validates a whole batch without touching a list, asking about each
group it meets once, so a cluster can check it at every primary it
spans before the first delete op is recorded, and a refused batch
deletes nothing.

Everything the server can observe — stored TRS values, group tags, and the
stream of fetch requests — is exactly what the threat-model adversary gets
when she compromises the server, so the server also keeps an observation
log that the attack modules read.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

from repro.core.protocol import (
    BatchFetchRequest,
    BatchFetchResponse,
    FetchRequest,
    FetchResponse,
    Receipt,
)
from repro.core.replication import ReplicationOp
from repro.core.views import ReadableViewIndex, ViewStats
from repro.crypto.keys import GroupKeyService
from repro.errors import AccessDeniedError, ProtocolError, UnknownListError
from repro.index.postings import (
    STORED_ELEMENT_BITS,
    EncryptedPostingElement,
    MergedPostingList,
)


# The observation log keeps the newest OBSERVATION_LOG_CAPACITY fetches:
# it is trimmed back to that many once it reaches twice as many, so the
# trim is amortised O(1) per fetch and the log stays a plain list.
OBSERVATION_LOG_CAPACITY = 65_536


@dataclass(frozen=True, slots=True)
class ObservedFetch:
    """What the compromised-server adversary records per served slice.

    ``batch_id`` groups the slices of one batched call (``None`` for a
    singleton fetch) — the adversary sees which slices travelled together.
    """

    principal: str
    list_id: int
    offset: int
    count: int
    returned: int
    batch_id: int | None = None


class ZerberRServer:
    """One shard: a merged, TRS-sorted, access-controlled posting-list store."""

    def __init__(self, key_service: GroupKeyService, num_lists: int) -> None:
        if num_lists < 1:
            raise ProtocolError("num_lists must be >= 1")
        self._keys = key_service
        self._lists: dict[int, MergedPostingList] = {
            list_id: MergedPostingList(list_id) for list_id in range(num_lists)
        }
        self.observations: list[ObservedFetch] = []
        # Incrementally maintained (list, principal) -> readable sub-list
        # cache; see repro.core.views for the maintenance discipline.
        self._views = ReadableViewIndex(key_service)
        self._batch_counter = 0
        # Slices served (the per-server read load) and round-trips served,
        # whatever the envelope.
        self._slices_served = 0
        self._calls_served = 0

    # -- properties ----------------------------------------------------------

    @property
    def num_lists(self) -> int:
        return len(self._lists)

    @property
    def num_elements(self) -> int:
        return sum(len(lst) for lst in self._lists.values())

    @property
    def view_stats(self) -> ViewStats:
        """Operation counters of the readable-view index (benchmarks)."""
        return self._views.stats

    @property
    def num_calls(self) -> int:
        """Fetch calls served (a batch or envelope counts once)."""
        return self._calls_served

    @property
    def slices_served(self) -> int:
        """Slices served over all lists, kept as a running total."""
        return self._slices_served

    def list_length(self, list_id: int) -> int:
        return len(self._list(list_id))

    def _list(self, list_id: int) -> MergedPostingList:
        merged = self._lists.get(list_id)
        if merged is None:
            raise UnknownListError(list_id)
        return merged

    # -- inserts (paper §5: online insertion phase) ----------------------------

    def insert_many(self, items: Sequence[tuple[int, EncryptedPostingElement]]) -> int:
        """Insert a validated batch, in batch order, as one
        :meth:`apply_replicated_ops` call.  Returns the number inserted."""
        return self.apply_replicated_ops(
            [
                (list_id, [ReplicationOp(0, "insert", element)])
                for list_id, element in items
            ]
        )

    # -- deletion (collaborative updates, paper §5's "unlimited index
    # update and insert operations") ------------------------------------------

    def locate_receipts(
        self, principal: str, receipts: Iterable[Receipt]
    ) -> list[tuple[int, EncryptedPostingElement] | None]:
        """Validate a batch of deletion receipts; mutates nothing.

        Per :class:`~repro.core.protocol.Receipt`: ``(list_id, element)``
        of the element it names, or ``None`` for a miss —
        nothing in the run of the receipt's TRS matches, or an earlier
        receipt of the batch already claimed the element (ciphertexts
        are unique, as live postings' plaintexts are).  The server
        cannot read ciphertexts, so the match is exact, and
        :meth:`MergedPostingList.find_by_ciphertext` searches only the
        bisected run of the receipt's TRS.
        Membership is enforced against the *stored* element's group tag —
        only members of the owning group may delete it — and an unknown
        list id or a foreign element refuses the whole batch here, before
        any delete op is recorded.
        """
        located: list[tuple[int, EncryptedPostingElement] | None] = []
        claimed: set[tuple[int, int]] = set()
        # Memberships do not change inside one call: each distinct group
        # is put to the key service once, as validate_write_batch does.
        members: set[str] = set()
        for list_id, ciphertext, trs in receipts:
            found = self._list(list_id).find_by_ciphertext(ciphertext, trs)
            if found is None or (list_id, found[0]) in claimed:
                located.append(None)
                continue
            position, target = found
            if target.group not in members:
                if not self._keys.is_member(principal, target.group):
                    raise AccessDeniedError(principal, target.group)
                members.add(target.group)
            claimed.add((list_id, position))
            located.append((list_id, target))
        return located

    def delete_element(
        self, principal: str, receipt: Receipt
    ) -> EncryptedPostingElement | None:
        """Remove one element by its receipt: locate it, then
        :meth:`apply_replicated_delete` it.  Returns it, or ``None``."""
        found = self.locate_receipts(principal, [receipt])[0]
        if found is None:
            return None
        self.apply_replicated_delete(*found)
        return found[1]

    # -- replication (cluster data plane; see repro.core.replication) -----------

    def apply_replicated_ops(
        self, runs: Iterable[tuple[int, Iterable[ReplicationOp]]]
    ) -> int:
        """Apply runs of ops from the lists' replication logs, each
        ``(list_id, ops)`` in log order and the runs in the order given;
        returns how many ops changed a list.

        The one way any copy of a list changes, and one call per server
        however many lists a write touched: the cluster hands a primary
        the runs a write batch just recorded on the lists it leads, and
        the replication manager hands a follower the runs it lacks — a
        delivery bucket's, a forced ack's or a sweep's.  No membership
        re-check: each op was validated and admitted at the primary when
        it was recorded; re-checking at delivery time would let a
        concurrent revocation make replicas diverge permanently.  An
        insert is bisected into place; a delete finds the removed element
        by its ciphertext in the run of its TRS, like a receipt (see
        :meth:`MergedPostingList.find_by_ciphertext`).  A delete that
        finds nothing changes nothing and is not counted: log order
        guarantees the insert preceded it, so only a restore whose run
        and ops disagree meets one, and it refuses the dump by the count.

        Each list is looked up once per run, and its cached readable
        views are patched per op — when it has any; a list nobody has
        read since it was loaded has none, and its ops cost the list
        mutation alone.
        """
        lists, view_index = self._lists, self._views
        viewed = view_index.by_list
        changed = 0
        for list_id, ops in runs:
            merged = lists.get(list_id)
            if merged is None:
                raise UnknownListError(list_id)
            views = view_index if list_id in viewed else None
            # A run holds about one op on the document-write path: the
            # list's mutators are called as attributes, not bound first.
            for _, kind, element in ops:
                if kind == "insert":
                    merged.add_sorted_by_trs(element)
                    if views is not None:
                        views.note_insert(merged, element)
                else:
                    found = merged.find_by_ciphertext(element.ciphertext, element.trs)
                    if found is None:
                        continue
                    merged.pop_at(found[0])
                    if views is not None:
                        views.note_delete(merged, found[1])
                changed += 1
        return changed

    def apply_replicated_insert(
        self, list_id: int, element: EncryptedPostingElement
    ) -> None:
        """Apply one insert op: a one-op :meth:`apply_replicated_ops`."""
        self.apply_replicated_ops([(list_id, [ReplicationOp(0, "insert", element)])])

    def apply_replicated_delete(
        self, list_id: int, element: EncryptedPostingElement
    ) -> bool:
        """Apply one delete op: a one-op :meth:`apply_replicated_ops`;
        returns whether an element was removed."""
        op = ReplicationOp(0, "delete", element)
        return self.apply_replicated_ops([(list_id, [op])]) == 1

    # -- crash recovery (persistence support; see repro.persist) ----------------

    def export_list(self, list_id: int) -> list[EncryptedPostingElement]:
        """Snapshot one list's elements in server order (a dump's run)."""
        return list(self._list(list_id).elements)

    # -- queries (paper §5.2) --------------------------------------------------

    def fetch(self, request: FetchRequest, version: int) -> FetchResponse:
        """Serve a TRS-ordered slice of the principal-readable elements.

        ``offset`` counts within the readable sub-list (the principal never
        learns how many unreadable elements interleave), and ``exhausted``
        signals that no readable elements remain past the returned slice.
        *version* is the reply's ``replica_version``: the stamp the
        cluster read for this replica before the call.
        """
        self._calls_served += 1
        return self._serve_slice(request, None, version)

    def batch_fetch(
        self, batch: BatchFetchRequest, versions: Sequence[int]
    ) -> BatchFetchResponse:
        """Serve many slices in one call — a client's round or a
        coordinator's envelope alike.

        Slices are served in request order, each under its own request's
        principal; each is logged as its own :class:`ObservedFetch`
        carrying the shared ``batch_id``, because the compromised-server
        adversary sees them travel together.  *versions* runs parallel
        to the requests: the stamp each reply is built with (see
        :meth:`fetch`).
        """
        self._calls_served += 1
        self._batch_counter += 1
        batch_id = self._batch_counter
        # ``map`` calls the slice server straight from C: no comprehension
        # frame per call.
        return BatchFetchResponse(
            tuple(map(self._serve_slice, batch.requests, repeat(batch_id), versions))
        )

    # The envelope entry's old name, still bound by the e2e bench tracer.
    coalesced_fetch = batch_fetch

    def _serve_slice(
        self, request: FetchRequest, batch_id: int | None, version: int
    ) -> FetchResponse:
        """Serve, count and observe one slice — once each, whatever call
        it travelled in — and build its one reply, stamped *version*."""
        principal = request.principal
        list_id = request.list_id
        offset = request.offset
        count = request.count
        slice_, readable_length = self._views.slice(
            self._list(list_id), principal, offset, count
        )
        self._slices_served += 1
        observations = self.observations
        observations.append(
            ObservedFetch(principal, list_id, offset, count, len(slice_), batch_id)
        )
        if len(observations) >= 2 * OBSERVATION_LOG_CAPACITY:
            del observations[:-OBSERVATION_LOG_CAPACITY]
        return FetchResponse(
            tuple(slice_), offset + count >= readable_length, version
        )

    # -- adversary-visible state (for the attack modules) -----------------------

    def visible_trs_values(self, list_id: int) -> list[float]:
        """All plaintext TRS values of a list, in server (descending) order."""
        return [e.trs for e in self._list(list_id)]

    def visible_group_tags(self, list_id: int) -> list[str]:
        """Plaintext group tags of a list, in server order."""
        return [e.group for e in self._list(list_id)]

    def storage_bits(self) -> int:
        """Total stored size of all posting elements, TRS included."""
        return self.num_elements * STORED_ELEMENT_BITS

    def clear_observations(self) -> None:
        self.observations.clear()
