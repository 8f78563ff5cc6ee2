"""Client/server wire protocol and the response-size policy (paper §5.2, §6.4).

The query interaction: the client authenticates, names a merged posting
list and a desired ``k``; the server returns the ``b`` highest-TRS elements
the client may read.  If, after decrypting and filtering, the client holds
fewer than ``k`` elements of the queried term, it issues follow-up
requests; "Zerber+R doubles response size for each follow-up request until
the user is satisfied with the result or obtains the whole list", so the
total after ``n`` follow-ups is (Eq. 12)::

    TRes = b * sum_{i=0..n} 2^i

:class:`ResponsePolicy` encodes the initial size ``b`` and the doubling;
:class:`QueryTrace` records what a query session cost, feeding the Fig.
11–13 metrics.

A reply element is what its reader opens and nothing more: a
:class:`SealedElement`, sealed bytes and a group tag.  The server ranks
by TRS and serves a list as a prefix in descending TRS order, so the
client needs no TRS to know when to stop: it holds ``k`` matches, or the
list is exhausted.  A stored
:class:`~repro.index.postings.EncryptedPostingElement` still travels as
it is in-process; its ``trs`` is simply not part of the wire type.  The
traces book a reply's bits as its element count times
:data:`~repro.index.postings.WIRE_ELEMENT_BITS`, the sealed bytes alone.

Batched fetches: a multi-term query touches one merged list per term, and
issuing those slices as separate server calls pays one network round-trip
each.  :class:`BatchFetchRequest` bundles many :class:`FetchRequest`
slices into a single server call and :class:`BatchFetchResponse` returns
the per-slice :class:`FetchResponse` replies in request order, so a client
round of the doubling protocol over *t* terms costs one round-trip instead
of *t*.
:class:`BatchQueryTrace` accounts a batched multi-term session: it
distinguishes server *round-trips* (batched calls, the quantity a
latency-bound deployment cares about) from *sub-fetches* (slices served,
the quantity the Fig. 12 per-term statistics count).  A session books
each round from the totals its per-term traces just counted
(:meth:`BatchQueryTrace.record_totals`).

The same type carries a coordinator's flush: a
:class:`~repro.core.router.Coordinator` collects the pending slices of
*many* concurrent client sessions and sends them as one
:class:`BatchFetchRequest` per scheduling tick, which the cluster splits
into one envelope per touched shard server.  Its slices may belong to
different principals — access control is per slice, each request names
its own — and the reply comes back in slice order, so the coordinator
matches replies to its sessions by position.  A batch carries slices and
nothing else: no placement epoch, no trace id.

Deletion is by :class:`Receipt`: what the inserting client kept of each
element it uploaded.  The server cannot read ciphertexts, so a delete
names the element by exact ciphertext match; the receipt also carries the
TRS the client computed at index time, and the server looks for the
element only in the run of its list that holds that TRS.  The TRS is
stored in the clear beside the element (it is what the server ranks
by), so a receipt tells the server nothing it does not already hold.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple, Protocol

from repro.errors import ProtocolError
from repro.index.postings import WIRE_ELEMENT_BITS


@dataclass(frozen=True)
class ResponsePolicy:
    """Initial response size and follow-up doubling (paper §5.2, Eq. 12).

    ``initial_size`` is the paper's ``b`` (best choice: ``b = k``, §6.4);
    every follow-up response is twice the one before.
    """

    initial_size: int

    def __post_init__(self) -> None:
        if self.initial_size < 1:
            raise ProtocolError("initial response size must be >= 1")

    def response_size(self, request_number: int) -> int:
        """Number of elements in the ``request_number``-th response (0-based)."""
        if request_number < 0:
            raise ProtocolError("request number must be non-negative")
        return self.initial_size * 2**request_number

    def total_after(self, num_requests: int) -> int:
        """Cumulative elements after *num_requests* responses (Eq. 12)."""
        if num_requests < 0:
            raise ProtocolError("num_requests must be non-negative")
        return self.initial_size * (2**num_requests - 1)


class Receipt(NamedTuple):
    """Deletion receipt of one uploaded posting element.

    *trs* is the element's stored TRS: the server searches only the run
    of equal TRS it bisects to, so a receipt with another TRS is a miss.
    """

    list_id: int
    ciphertext: bytes
    trs: float


@dataclass(frozen=True)
class FetchRequest:
    """One fetch against a merged posting list.

    ``offset``/``count`` address the server-side TRS order restricted to
    the elements the principal may read.  The server sees exactly these
    fields — they are what the query-observation adversary logs.

    ``min_version`` is a session-consistency floor: the lowest
    replication-log version of the list the response may reflect,
    carried by sessions enforcing read-your-writes and monotonic reads
    (see :class:`~repro.core.client.ClientQuerySession`).  ``0`` (the
    default, what a client sends before it first writes or reads the
    list) imposes no floor; a read below the floor is repaired and
    re-served.  It
    reveals only how recently the session last touched the list —
    strictly less than the query-observation channel already leaks.
    """

    principal: str
    list_id: int
    offset: int
    count: int
    min_version: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ProtocolError("offset must be non-negative")
        if self.count < 1:
            raise ProtocolError("count must be >= 1")
        if self.min_version < 0:
            raise ProtocolError("min_version must be non-negative")


class SealedElement(Protocol):
    """One element of a reply, as its reader sees it: the sealed posting
    and the group whose key opens it.  No TRS — nothing on the read path
    needs one."""

    @property
    def ciphertext(self) -> bytes: ...

    @property
    def group(self) -> str: ...


@dataclass(frozen=True)
class FetchResponse:
    """Server reply: an ordered slice plus an exhaustion flag.

    ``replica_version`` is the serving replica's applied replication-log
    version of the fetched list (see :mod:`repro.core.replication`): the
    cluster reads it before the serve and hands it to the server, which
    builds the reply with it.  The cluster compares it against the
    list's log head to detect a stale replica and trigger read-repair.
    """

    elements: tuple[SealedElement, ...]
    exhausted: bool
    replica_version: int

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class BatchFetchRequest:
    """Many fetch slices bundled into one server call.

    A client round holds one principal's slices, a coordinator flush
    many principals'; the server reads each slice's own principal.  Slice
    order is significant: the response carries replies in the same order.
    """

    requests: tuple[FetchRequest, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ProtocolError("batch must contain at least one fetch request")

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class BatchFetchResponse:
    """Per-slice replies, aligned with the batch's request order."""

    responses: tuple[FetchResponse, ...]

    def __len__(self) -> int:
        return len(self.responses)

    def __iter__(self) -> Iterator[FetchResponse]:
        return iter(self.responses)


@dataclass(frozen=True)
class BackpressureSignal:
    """Shed notice a coordinator returns instead of admitting a session.

    When the bounded admission queue is full, the submit is *shed*
    instead of being parked unboundedly.  This is the wire-shaped record
    of that decision — what a fronting RPC layer would serialize back to
    the client as a 429.  ``queue_depth`` is the depth the submit found,
    ``limit`` the bound; the caller owns the retry.
    """

    principal: str
    tick: int
    queue_depth: int
    limit: int


@dataclass
class QueryTrace:
    """Cost accounting of one top-k query session.

    Attributes
    ----------
    term / k:
        What was asked (client-side knowledge; the server never sees the
        term).
    num_requests:
        Requests issued, including the initial one.
    elements_transferred:
        Total posting elements shipped (the TRes of Eq. 12 — possibly less
        on the last response if the list ran out).
    bits_transferred:
        Total wire size of shipped elements (for §6.6): for Zerber+R
        ``elements_transferred * WIRE_ELEMENT_BITS``, the sealed bytes
        alone; a baseline with another element format books its own.
    satisfied:
        Whether the query held k readable matches, on every system that
        books a trace: a term with fewer than k matches the principal can
        read ends unsatisfied, however much of its list was shipped.
    """

    term: str
    k: int
    num_requests: int = 0
    elements_transferred: int = 0
    bits_transferred: int = 0
    satisfied: bool = False

    def record_response(self, response: FetchResponse) -> int:
        """Count one Zerber+R response; returns its element count, so
        whoever also keeps a session-level trace need not count again."""
        elements = len(response.elements)
        self.num_requests += 1
        self.elements_transferred += elements
        self.bits_transferred += elements * WIRE_ELEMENT_BITS
        return elements

    def bandwidth_overhead(self) -> float:
        """``TRes / k`` — this query's contribution to AvBO (Eq. 13)."""
        if self.k <= 0:
            raise ProtocolError("k must be positive")
        return self.elements_transferred / self.k

    def query_efficiency(self) -> float:
        """``k / TRes`` — QRatioeff (Eq. 14); 1.0 is ordinary-index parity."""
        if self.elements_transferred == 0:
            raise ProtocolError("no responses recorded")
        return self.k / self.elements_transferred


@dataclass
class BatchQueryTrace:
    """Cost accounting of one batched multi-term query session.

    ``num_rounds`` counts server round-trips (one per
    :class:`BatchFetchRequest`); ``num_subfetches`` counts the slices
    served across all rounds — what the same session would have cost in
    round-trips had every slice been its own call.  The difference is the
    latency win of batching; bytes shipped are identical either way.
    """

    terms: tuple[str, ...]
    k: int
    num_rounds: int = 0
    num_subfetches: int = 0
    elements_transferred: int = 0
    bits_transferred: int = 0

    def record_totals(self, subfetches: int, elements: int) -> None:
        """Book one round from totals the caller already holds.

        The session path: the per-term traces count every slice as it
        is absorbed (:meth:`QueryTrace.record_response`) and the round
        is booked here from their sums, so this trace equals the sum of
        the term traces by construction — also for a round that was cut
        short by a raise.
        """
        self.num_rounds += 1
        self.num_subfetches += subfetches
        self.elements_transferred += elements
        self.bits_transferred += elements * WIRE_ELEMENT_BITS

    @property
    def num_requests(self) -> int:
        """Server calls issued — the batched analogue of
        :attr:`QueryTrace.num_requests`."""
        return self.num_rounds
