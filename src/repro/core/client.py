"""The Zerber+R client: inserting documents and running top-k queries.

Insert path (paper §5): "To index a document, its owner extracts the
document's terms, builds their elements, encrypts them, calculates TRS
values, and sends encrypted posting elements to the server along with the
IDs of the merged posting list that the new element belongs to, the
document's group and the TRS value."  The document is the unit on every
leg of that path: :meth:`ZerberRClient.build_document` builds all of a
document's elements in one pass (one cipher, nonce-sequence and PRF
lookup per document, one vectorised RSTF evaluation, nonces drawn in
sorted-term order), the upload is one ``insert_many`` batch, and
:meth:`ZerberRClient.delete_document` presents the document's receipts
(:class:`~repro.core.protocol.Receipt`) as one ``delete_many`` batch — all
or nothing, under one failover retry.  A receipt carries the TRS the
client computed at index time so the server can bisect to the element;
the server stores that TRS in the clear already, so the receipt reveals
nothing new.

Query path (paper §5.2): fetch the head of the merged list, decrypt what
the user's group keys open, filter for the queried term, and follow up with
doubled response sizes until ``k`` matches are held or the list is
exhausted.  The client returns results ranked by the *decrypted* relevance
score — identical to TRS order for a single term because the RSTF is
monotonic (§4.2 property 3).

A query of any number of terms runs that per-term doubling protocol for
every term *in lockstep*: each round bundles the next slice of every
still-active term into one :class:`~repro.core.protocol.BatchFetchRequest`,
so a round costs one server round-trip instead of one per term.  The
per-term fetch sequence (offsets, counts, stop conditions) is identical to
running :meth:`ZerberRClient.query` term by term — batching changes
latency and request counts, never results or bytes.

The lockstep state machine is reified as :class:`ClientQuerySession`, and
it is the only one: :meth:`ZerberRClient.query` is a one-term session and
:meth:`ZerberRClient.query_multi_batched` a session of many, both run by
one driver loop (:meth:`ZerberRClient._drive`).  A session can also be
driven *externally*: a :class:`~repro.core.router.Coordinator` holds many
users' sessions and coalesces their pending slices into shared per-shard
server calls.  Every driver feeds the same step logic, so results are
identical by construction.

Performance model — absorbing a response is the read path's tallest
layer, and its steady state is a memo hit per element, so the step
spends a small constant per fetched element and nothing per group:

* one key-service call per delivery round: the principal's keyring,
  ``group -> (cipher, decoder)``, whose keys *are* the readable set.
  The client may hold it for that one round because nothing else runs
  inside a round; it may not hold it longer — a ring on the client or
  the session would outlive a revoke between rounds, and the key
  service is the only owner of ciphers, their memos and the document
  directories (``_cipher`` below serves the write path and caches
  nothing either);
* :func:`skim_matches` is one loop in element order — ring lookup,
  :meth:`~repro.crypto.cipher.StreamCipher.try_decrypt`, term filter,
  append — with no per-group buckets to build and no order to restore;
* each decoder in the ring is the merge plan's
  :meth:`~repro.index.merge.MergePlan.decoder` of one group's document
  directory, one stable object per (plan, group) (the cipher memo goes
  by decoder identity, and every client of a deployment shares the
  plan and the key service) that resolves ``PostingElement.from_bytes``
  at call time, so a wrapper installed on that classmethod (the e2e
  tracer's ``index.decode`` span) keeps seeing every miss-path decode.
  A miss decodes one fixed header: the term and the document are
  indexes into the plan's terms and the group's directory, not strings
  to convert;
* a term session keeps the matched ``(posting, element)`` pairs as they
  are; a :class:`RankedHit` is built only for the ≤ k hits a caller
  reads, and the multi-term aggregate sums straight from the postings.

Around the skim, each fact of a round is worked out once:

* a response is walked once for the traces — its term trace counts it
  and sums its bits as it is taken up
  (:meth:`~repro.core.protocol.QueryTrace.record_response`), and the
  session's :class:`~repro.core.protocol.BatchQueryTrace` is booked from
  those totals when the round ends, so it *is* the sum of the term
  traces;
* a :class:`ClientQuerySession` keeps the terms still fetching as a
  list: ``done`` is "the list is empty", ``pending_requests`` and
  ``deliver`` walk it, and ``deliver`` refreshes it on its way out;
* ``k`` is validated and the default policy built once per query, not
  once per term.

What :meth:`ClientQuerySession.deliver` guarantees when absorbing a
slice raises (an element that passes its MAC but decodes malformed): the
error propagates, the round is booked for exactly the slices the term
traces counted — the one that raised included, the ones after it not —
and the active list is refreshed, so a term that finished earlier in the
round is not asked for again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TypeVar

from repro.core.protocol import (
    BatchFetchRequest,
    BatchQueryTrace,
    FetchRequest,
    FetchResponse,
    QueryTrace,
    Receipt,
    ReceiptLike,
    ResponsePolicy,
)
from repro.core.rstf import RstfModel
from repro.core.cluster import ServerCluster
from repro.crypto.cipher import NonceSequence, StreamCipher
from repro.crypto.keys import GroupKeyService, Opener
from repro.errors import (
    ProtocolError,
    QuorumWriteUnavailableError,
    UnknownTermError,
)
from repro.obs.instruments import ClientInstruments, Telemetry
from repro.obs.trace import Span
from repro.index.merge import MergePlan
from repro.index.postings import EncryptedPostingElement, PostingElement
from repro.text.analysis import DocumentStats

_W = TypeVar("_W")

#: Slices one term may fetch before its session stops asking: a safety
#: valve against a runaway loop.  The doubling rule (§5.2) reaches any
#: list length long before it triggers.
MAX_REQUESTS = 64


@dataclass(frozen=True)
class RankedHit:
    """One decrypted query hit."""

    doc_id: str
    rscore: float
    group: str


_Match = tuple[PostingElement, EncryptedPostingElement]


def skim_matches(
    elements: Iterable[EncryptedPostingElement],
    term: str,
    ring: Mapping[str, Opener],
) -> list[_Match]:
    """Skim → decode → match over one fetched slice, in one pass.

    Per element: look its group up in *ring* (a keyring — the keys are
    the readable set), open it with that group's cipher and decoder
    (:meth:`~repro.crypto.cipher.StreamCipher.try_decrypt`, so it is
    verified and decoded at most once and a memo hit is the decoded
    :class:`PostingElement` itself) and keep it if it is a posting of
    *term*.  Elements of a group not in *ring* or that fail
    authentication are skipped, and so is an authentic element of
    another term — one the server moved here from its own list too.
    The decoder resolves the document number in the element's own
    group, so a number past that group's directory raises
    :class:`~repro.errors.ProtocolError` rather than name another
    group's document.

    Returns ``(posting, element)`` per match, in element order.
    """
    matches: list[_Match] = []
    opener_of = ring.get
    for element in elements:
        opener = opener_of(element.group)
        if opener is not None:
            cipher, decode = opener
            posting = cipher.try_decrypt(element.ciphertext, decode)
            if posting is not None and posting.term == term:
                matches.append((posting, element))
    return matches


def top_matches(matches: list[_Match], k: int) -> list[_Match]:
    """The *k* best of *matches* by decrypted score, ties by doc id.

    TRS order equals rscore order per term (monotonic RSTF), but the
    decrypted scores are the ground truth — sort defensively and trim.
    """
    matches.sort(key=lambda match: (-match[0].rscore, match[0].doc_id))
    return matches[:k]


def ranked_hits(matches: list[_Match], k: int) -> tuple[RankedHit, ...]:
    """:func:`top_matches` as the hits a caller reads."""
    return tuple(
        RankedHit(doc_id=posting.doc_id, rscore=posting.rscore, group=element.group)
        for posting, element in top_matches(matches, k)
    )


@dataclass(frozen=True)
class QueryResult:
    """Top-k hits plus the session's cost trace."""

    hits: tuple[RankedHit, ...]
    trace: QueryTrace

    def doc_ids(self) -> list[str]:
        return [hit.doc_id for hit in self.hits]


@dataclass(frozen=True)
class MultiQueryResult:
    """Batched multi-term result: aggregate ranking plus cost traces.

    ``traces`` holds one per-term :class:`QueryTrace` (slice-level
    accounting, comparable to sequential per-term queries);
    ``batch_trace`` holds the session-level round-trip accounting.
    """

    ranked: tuple[tuple[str, float], ...]
    traces: tuple[QueryTrace, ...]
    batch_trace: BatchQueryTrace

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.ranked]


class _TermSession:
    """Mutable state of one term's doubling protocol inside a
    :class:`ClientQuerySession`: where the term's next slice starts, how
    many were asked for, and the matches held so far."""

    __slots__ = (
        "term",
        "list_id",
        "k",
        "policy",
        "trace",
        "hits",
        "offset",
        "request_number",
        "done",
    )

    def __init__(
        self,
        term: str,
        list_id: int,
        k: int,
        policy: ResponsePolicy,
    ) -> None:
        self.term = term
        self.list_id = list_id
        self.k = k
        self.policy = policy
        self.trace = QueryTrace(term=term, k=k)
        self.hits: list[_Match] = []
        self.offset = 0
        self.request_number = 0
        self.done = False

    def next_request(
        self, principal: str, min_version: int | None, trace_id: int | None
    ) -> FetchRequest:
        return FetchRequest(
            principal,
            self.list_id,
            self.offset,
            self.policy.response_size(self.request_number),
            min_version,
            trace_id,
        )


class ClientQuerySession:
    """A multi-term query session as a resumable object.

    One instance is one user's in-flight query: it exposes the next round's
    fetch slices (:meth:`pending_requests`) and absorbs their responses
    (:meth:`deliver`), holding all per-term doubling state in between.
    :meth:`ZerberRClient.query` and :meth:`ZerberRClient.query_multi_batched`
    drive one session against the client's own cluster; a
    :class:`~repro.core.router.Coordinator` drives *many* sessions in
    lockstep, coalescing their slices into shared per-shard envelopes.
    Every driver feeds the identical step logic
    (:meth:`ZerberRClient._absorb_response`), so results cannot depend on
    who drives.
    """

    def __init__(
        self, client: "ZerberRClient", sessions: list[_TermSession], k: int
    ) -> None:
        self._client = client
        self._sessions = sessions
        # The terms still fetching, in term order: what the next round
        # asks for and what its responses align with.  Refreshed by
        # deliver() on its way out, whether the round landed or raised.
        self._active = list(sessions)
        self._k = k
        self.principal = client.principal
        self.batch_trace = BatchQueryTrace(
            terms=tuple(s.term for s in sessions), k=k
        )
        # The session root span outlives any call frame (a coordinator
        # advances it across many scheduling ticks), so it is the one
        # sanctioned begin/end trace pair; everything below it uses the
        # context-manager span API.  trace_id rides every FetchRequest.
        self._tracer = client._obs.tracer
        self.trace_id: int | None = None
        if client._obs.enabled:
            self.trace_id = self._tracer.begin_trace(
                "query",
                principal=self.principal,
                terms=len(sessions),
                k=k,
            )
        self.rounds = 0

    @property
    def backend(self) -> ServerCluster:
        """The cluster the owning client is bound to.

        A coordinator checks this at submit time: scheduling a session
        whose client talks to a *different* backend would silently answer
        it from the wrong index.
        """
        return self._client._server

    @property
    def done(self) -> bool:
        return not self._active

    def pending_requests(self) -> tuple[FetchRequest, ...]:
        """Next slice of every still-active term, in term order.

        Each request carries the owning client's per-list version floor
        (``min_version``), so a coordinator that coalesces this session's
        slices with other sessions' still enforces *this* session's
        read-your-writes/monotonic-reads guarantees (shared slices are
        served at the max of the sharing sessions' floors).
        """
        principal = self.principal
        floor_of = self._client._version_floors.get  # version_floor(), unwrapped
        trace_id = self.trace_id
        return tuple(
            [
                s.next_request(principal, floor_of(s.list_id), trace_id)
                for s in self._active
            ]
        )

    def deliver(self, responses: Sequence[FetchResponse]) -> None:
        """Absorb one round's responses (aligned with the pending order).

        If a slice raises while it is absorbed (a malformed element),
        the error propagates with the session left consistent: the
        round is booked for exactly the slices the term traces counted,
        and terms that finished before the raise are no longer pending.
        """
        active = self._active
        if not active:
            raise ProtocolError("session has no pending requests")
        if len(responses) != len(active):
            raise ProtocolError(
                f"expected {len(active)} responses, got {len(responses)}"
            )
        # One span covers the whole round; it is named for the decrypt
        # skim that dominates it.  A span per slice would cost frames per
        # slice against ``TELEMETRY_FRAME_BUDGET`` (tests/test_core_client),
        # and per-term counts are already on the ``crypto_skim_*`` counters.
        with self._tracer.span(
            "skim", trace=self.trace_id, slices=len(responses)
        ) as skim_span:
            try:
                self._client._absorb_round(
                    zip(active, responses), skim_span, self.batch_trace
                )
            finally:
                self._active = [s for s in active if not s.done]
        self.rounds += 1
        if not self._active:
            self._tracer.end_trace(self.trace_id)

    def result(self) -> MultiQueryResult:
        """Aggregate ranking once every term session has finished.

        Scores aggregate by summation *without* IDF (the confidentiality
        trade-off the paper accepts, §3.2).
        """
        if self._active:
            raise ProtocolError("query session still has active terms")
        self._tracer.end_trace(self.trace_id)  # no-op unless never delivered
        scores: dict[str, float] = {}
        for session in self._sessions:
            for posting, _ in top_matches(session.hits, session.k):
                doc_id = posting.doc_id
                scores[doc_id] = scores.get(doc_id, 0.0) + posting.rscore
        ranked = tuple(
            sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[: self._k]
        )
        return MultiQueryResult(
            ranked=ranked,
            traces=tuple(s.trace for s in self._sessions),
            batch_trace=self.batch_trace,
        )


class ZerberRClient:
    """A group member that inserts into and queries a Zerber+R server."""

    def __init__(
        self,
        principal: str,
        key_service: GroupKeyService,
        server: ServerCluster,
        rstf_model: RstfModel,
        merge_plan: MergePlan,
    ) -> None:
        self.principal = principal
        self._keys = key_service
        self._server = server
        self._rstf = rstf_model
        self._plan = merge_plan
        # Telemetry is the backend's: a cluster deployed with a Telemetry
        # instruments its clients too.  With none every instrument is a
        # no-op.
        self.telemetry: Telemetry | None = server.telemetry
        self._obs = ClientInstruments(self.telemetry)
        # Session-consistency tokens: list_id -> highest replication-log
        # version this client has written or read (the floor its future
        # reads of the list must reflect — read-your-writes + monotonic
        # reads).
        self._version_floors: dict[int, int] = {}

    # -- session-consistency tokens ----------------------------------------------

    def version_floor(self, list_id: int) -> int | None:
        """The version floor this client's reads of *list_id* must meet.

        ``None`` until the client first writes the list or sees a
        versioned response for it.  The floor is stamped into every
        :class:`~repro.core.protocol.FetchRequest` the client (or a
        session it opened) issues, and a replicated backend repairs and
        re-serves any answer below it.
        """
        return self._version_floors.get(list_id)

    def _note_version(self, list_id: int, version: int | None) -> None:
        """Raise the floor of one list (floors only ever go up)."""
        if version is not None and version > self._version_floors.get(list_id, 0):
            self._version_floors[list_id] = version

    def _note_written(self, list_ids: Iterable[int]) -> None:
        """Record a write's acknowledged versions (read-your-writes).

        The backend's post-write log head bounds the written op's
        version.
        """
        version_of = self._server.primary_version
        for list_id in dict.fromkeys(list_ids):
            self._note_version(list_id, version_of(list_id))

    # -- failover-aware write retry ------------------------------------------------

    def _failover_retry_budget(
        self, error: QuorumWriteUnavailableError
    ) -> int | None:
        """Ticks to park a refused write for, when an election can fix it.

        ``None`` means surface the error immediately: the backend runs no
        failover election (``failover_after`` unset), no
        live replica exists to elect, or the list's primary is still
        reachable — then the refusal is a genuine ack shortfall that an
        election cannot repair.  Otherwise the election fires within
        ``failover_after`` replication ticks of the primary becoming
        unreachable; one extra tick covers a timer that starts on the
        tick the write was refused.
        """
        failover_after = self._server.failover_after
        if failover_after is None or not error.live_replicas:
            return None
        primary = self._server.replicas_of(error.list_id)[0]
        if (
            primary not in error.down_replicas
            and primary not in error.paused_replicas
        ):
            return None
        return failover_after + 1

    def _write_with_failover_retry(self, op: Callable[[], _W]) -> _W:
        """Run a write op, parking through a pending failover election.

        A :class:`~repro.errors.QuorumWriteUnavailableError` is a clean
        no-op (nothing mutated, nothing logged), so retrying is safe.
        When the refusal names an unreachable primary and the backend
        runs failover elections, the write parks: replication ticks are
        driven until the election deposes the dead primary (bumping the
        epoch and promoting a live replica), then the op retries against
        the new primary.  If the budget elapses without the write going
        through — e.g. too few replicas live even after promotion — the
        last refusal surfaces unchanged.
        """
        try:
            return op()
        except QuorumWriteUnavailableError as error:
            budget = self._failover_retry_budget(error)
            if budget is None:
                raise
            last = error
            for _ in range(budget):
                self._server.replication_tick()
                try:
                    return op()
                except QuorumWriteUnavailableError as retry_error:
                    last = retry_error
            raise last

    # -- key plumbing -----------------------------------------------------------

    def _cipher(self, group: str) -> StreamCipher:
        # Never cached here: the key service owns the cipher and, with
        # it, the group's memo of decoded postings, and drops both on
        # revoke — a client-side copy would outlive the membership.
        return self._keys.cipher_for(self.principal, group)

    def _nonce_sequence(self, group: str) -> NonceSequence:
        # The key service owns THE sequence per (principal, group): two
        # clients for one principal (e.g. bound to different backends)
        # continue one counter stream instead of restarting it, so their
        # nonces stay unique and not merely unique up to equal plaintexts.
        return self._keys.nonce_sequence(self.principal, group)

    def _unseen_trs(self, group: str, doc_id: str) -> Callable[[str], float]:
        """The paper's rule for training-unseen terms: a random TRS.

        Realised as PRF(term || doc id) under the group key: deterministic
        (re-inserting the same document is idempotent and concurrent
        clients agree) yet unique per posting element, so an unseen
        term's TRS values are tie-free and uniform.  The input is the doc
        id string, not its directory number, so no TRS depends on the
        order documents were first written.  Order among an unseen
        term's elements is arbitrary — the accepted trade-off for terms
        "assumed to be rare" (§5.1.1).
        """
        prf = self._keys.unseen_term_prf(self.principal, group)
        return lambda term: prf.evaluate_unit(f"{term}\x00{doc_id}".encode())

    # -- inserting (paper §5) -----------------------------------------------------

    def build_document(
        self, doc: DocumentStats, group: str, terms: Iterable[str] | None = None
    ) -> list[tuple[int, EncryptedPostingElement]]:
        """Build the encrypted posting elements of *doc*, with their
        target list ids, in one pass.

        *terms* defaults to every term of the document, sorted — the
        order nonces are drawn in, so a document's ciphertexts do not
        depend on who builds it.  Every term is checked (present in the
        document, covered by the merge plan) before the document's
        number is minted and before a nonce is drawn; one plan lookup
        per term gives its list id and its term number; the document's
        number in the group directory, the group's cipher, nonce
        sequence and unseen-term PRF are looked up once, and all TRS
        values come from one
        :meth:`~repro.core.rstf.RstfModel.transform_many`.

        Per element it builds nothing it throws away: the document's
        :meth:`~repro.index.postings.PostingElement.encoder` encodes the
        plaintext straight from ``(tf, term number)`` (no
        :class:`PostingElement` to read ``rscore`` off — it is ``tf /
        length``, the same float), each nonce is bound to its plaintext,
        and :meth:`~repro.index.postings.EncryptedPostingElement.checked`
        builds the element with its TRS check inline.
        """
        terms = sorted(doc.counts) if terms is None else list(terms)
        locate = self._plan.locate
        tf_of = doc.counts.get
        length = doc.length
        list_ids: list[int] = []
        rscores: list[float] = []
        fields: list[tuple[int, int]] = []
        for term in terms:
            tf = tf_of(term, 0)
            if tf == 0:
                raise UnknownTermError(term)
            try:
                list_id, number = locate(term)
            except KeyError:
                raise UnknownTermError(term) from None
            fields.append((tf, number))
            list_ids.append(list_id)
            rscores.append(tf / length)
        encode = PostingElement.encoder(
            self._keys.document_number(self.principal, group, doc.doc_id), length
        )
        plaintexts = [encode(tf, number) for tf, number in fields]
        trs_values = self._rstf.transform_many(
            terms, rscores, unseen_trs=self._unseen_trs(group, doc.doc_id)
        )
        # Looked up per document, not bound once: a wrapper installed on
        # StreamCipher.encrypt (the e2e tracer's) sees every encryption.
        encrypt = self._cipher(group).encrypt
        next_nonce = self._nonce_sequence(group).next
        element = EncryptedPostingElement.checked
        return [
            (list_id, element(encrypt(plaintext, next_nonce(plaintext)), group, trs))
            for list_id, plaintext, trs in zip(list_ids, plaintexts, trs_values)
        ]

    def build_element(
        self, term: str, doc: DocumentStats, group: str
    ) -> tuple[int, EncryptedPostingElement]:
        """Build one element: a one-term :meth:`build_document`."""
        return self.build_document(doc, group, [term])[0]

    def index_document(self, doc: DocumentStats, group: str) -> int:
        """Encrypt and upload every term of *doc*; returns elements sent."""
        return len(self.index_document_with_receipts(doc, group))

    def index_document_with_receipts(
        self, doc: DocumentStats, group: str
    ) -> list[Receipt]:
        """Upload *doc* as one batch and return its deletion receipts.

        Each :class:`~repro.core.protocol.Receipt` is ``(list_id,
        ciphertext, trs)``; presenting them to :meth:`delete_document`
        removes the elements.  The server never learns which document
        the receipts belong to, and the TRS is one it already stores.
        """
        items = self.build_document(doc, group)
        self._write_with_failover_retry(
            lambda: self._server.insert_many(self.principal, items)
        )
        self._note_written(list_id for list_id, _ in items)
        return [
            Receipt(list_id, element.ciphertext, element.trs)
            for list_id, element in items
        ]

    def delete_document(self, receipts: Iterable[ReceiptLike]) -> int:
        """Remove a previously inserted document by its receipts.

        One batch under one failover retry, all or nothing: a refused
        batch (foreign element, unknown list, no quorum) deletes nothing.
        Returns the number of elements actually removed (receipts for
        already-removed elements are counted as misses, not errors —
        deletion is idempotent).
        """
        batch = list(receipts)
        outcome = self._write_with_failover_retry(
            lambda: self._server.delete_many(self.principal, batch)
        )
        touched = [receipt[0] for receipt, hit in zip(batch, outcome) if hit]
        self._note_written(touched)
        return len(touched)

    # -- querying (paper §5.2) ------------------------------------------------------

    def _start_sessions(
        self,
        terms: Iterable[str],
        k: int,
        policy: ResponsePolicy | None,
    ) -> list["_TermSession"]:
        """One term session per term of a query: ``k`` is validated and
        the default policy (``b = k``, §6.4) built once per query."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if policy is None:
            policy = ResponsePolicy(k)
        list_of = self._plan.list_of
        sessions = []
        for term in terms:
            try:
                list_id = list_of(term)
            except KeyError:
                raise UnknownTermError(term) from None
            sessions.append(_TermSession(term, list_id, k, policy))
        return sessions

    def _absorb_round(
        self,
        round_: Iterable[tuple["_TermSession", FetchResponse]],
        span: Span,
        batch_trace: BatchQueryTrace,
    ) -> None:
        """Absorb one round's ``(term session, response)`` pairs.

        Every response is walked once for the traces: its term trace
        counts it (and sums its bits) as it is taken up, and the round
        is booked into the session's *batch_trace* from those totals on
        the way out, so the batch trace equals the sum of the term
        traces after every round, raised or not.

        The one place the read path asks the key service anything: one
        keyring per round, so membership is re-validated against the
        live principal every round, and dropped on return — never kept
        on the client or the session, where it would outlive a revoke.
        The ``crypto_skim_*`` counters move once per round, by the
        difference of the ring's ``memo_hits`` around it; nothing else
        can touch those ciphers in between, so the totals stay exact —
        also when a malformed element raises mid-round: a slice is
        counted before it is absorbed and the difference is taken on
        the way out, so what was served before the raise is kept.
        """
        ring = self._keys.keyring(self.principal, self._plan)
        counting = self._obs.enabled
        hits_before = sum([c.memo_hits for c, _ in ring.values()]) if counting else 0
        slices = elements = bits = 0
        try:
            for session, response in round_:
                slices += 1
                elements += len(response.elements)
                bits += session.trace.record_response(response)
                self._absorb_response(session, response, ring)
        finally:
            batch_trace.record_totals(slices, elements, bits)
            if counting:
                memo_hits = sum([c.memo_hits for c, _ in ring.values()]) - hits_before
                if elements:
                    self._obs.skim_elements.inc(elements)
                if memo_hits:
                    self._obs.skim_memo_hits.inc(memo_hits)
                    span.annotate(memo_hits=memo_hits)

    def _absorb_response(
        self,
        session: "_TermSession",
        response: FetchResponse,
        ring: Mapping[str, Opener],
    ) -> None:
        """Feed one fetch response, already counted by the term trace,
        into a term session (shared step logic)."""
        # Monotonic reads: later fetches of this list — this session's
        # follow-ups or any future session — never go below this version.
        self._note_version(session.list_id, response.replica_version)
        elements = response.elements
        session.offset += len(elements)
        session.request_number += 1
        hits = session.hits
        hits += skim_matches(elements, session.term, ring)
        if len(hits) >= session.k and self._topk_complete(hits, session.k, elements):
            session.trace.satisfied = True
            session.done = True
        elif response.exhausted:
            session.trace.satisfied = len(hits) >= session.k
            session.done = True
        elif session.request_number >= MAX_REQUESTS:
            session.done = True

    def query(
        self, term: str, k: int, policy: ResponsePolicy | None = None
    ) -> QueryResult:
        """Single-term top-k with the doubling follow-up protocol.

        A one-term :class:`ClientQuerySession` run by the same driver as
        :meth:`query_multi_batched`: one ``batch_fetch`` of one slice per
        round, a ``query`` trace root and a ``skim`` span per round.
        ``policy`` defaults to the paper's recommendation ``b = k``
        (§6.4).  A term stops after :data:`MAX_REQUESTS` slices.
        """
        term_sessions = self._start_sessions([term], k, policy)
        self._drive(ClientQuerySession(self, term_sessions, k))
        (session,) = term_sessions
        return QueryResult(hits=ranked_hits(session.hits, k), trace=session.trace)

    @staticmethod
    def _topk_complete(
        hits: list[_Match],
        k: int,
        last_elements: Sequence[EncryptedPostingElement],
    ) -> bool:
        """Whether no unfetched element can still enter the top-k.

        The merged list is served in descending TRS order, so every
        unfetched element's TRS is <= the last fetched one.  If the k-th
        best matched TRS is at least the boundary, later elements cannot
        strictly beat the current top-k.

        TRS values are *not* tie-free: one term's equal rscores give
        equal TRS (on the bench index 7 171 of 60 330 elements share
        their TRS with a neighbour, in runs of up to 63).  So the
        guarantee is exact up to ties at the boundary: the result's
        scores are the true top-k scores, and every match that strictly
        beats the k-th is in it, but of the matches tied with the k-th
        it holds whichever the server served first — an arbitrary subset
        of the tie, not the ones with the smallest doc ids.
        """
        if not last_elements:
            return True
        boundary = last_elements[-1].trs
        if boundary is None:
            return True
        # A match's server-visible TRS; 0.0 where the element carries none.
        kth = sorted((element.trs or 0.0 for _, element in hits), reverse=True)[k - 1]
        return kth >= boundary

    def query_multi_batched(
        self, terms: Iterable[str], k: int, policy: ResponsePolicy | None = None
    ) -> MultiQueryResult:
        """Multi-term query over the batched fetch protocol.

        Runs every term's doubling protocol in lockstep: each round issues
        one :class:`BatchFetchRequest` carrying the next slice of every
        still-active term, so the session costs ``max_t rounds(t)``
        round-trips instead of ``Σ_t rounds(t)``.  Per-term offsets,
        counts and stop conditions are identical to :meth:`query`, so
        hits, scores and bytes shipped match the sequential path exactly.

        Scores aggregate by summation *without* IDF (the confidentiality
        trade-off the paper accepts, §3.2).
        """
        return self._drive(self.open_multi_session(terms, k, policy=policy))

    def _drive(self, session: ClientQuerySession) -> MultiQueryResult:
        """Run *session* to its end against the client's own backend — one
        :class:`BatchFetchRequest` per round — and return its result,
        which also closes its trace root when no round was ever fetched."""
        while not session.done:
            batch = BatchFetchRequest(session.pending_requests())
            session.deliver(self._server.batch_fetch(batch).responses)
        return session.result()

    def open_multi_session(
        self, terms: Iterable[str], k: int, policy: ResponsePolicy | None = None
    ) -> ClientQuerySession:
        """Open a multi-term query session without driving it.

        The caller (usually a :class:`~repro.core.router.Coordinator`)
        repeatedly reads :meth:`ClientQuerySession.pending_requests`,
        fetches them however it likes, and feeds the responses back via
        :meth:`ClientQuerySession.deliver`.
        """
        return ClientQuerySession(self, self._start_sessions(terms, k, policy), k)
