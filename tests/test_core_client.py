"""Unit tests for the Zerber+R client (insert + query protocol)."""

import contextlib
import gc
import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.client as client_module
from repro.attacks.query_observation import extract_sessions
from repro.baselines.zerber import ZerberElement
from repro.core.client import ClientQuerySession, RankedHit, ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.protocol import (
    BatchFetchRequest,
    BatchFetchResponse,
    FetchResponse,
    ResponsePolicy,
)
from repro.core.router import Coordinator
from repro.core.server import ZerberRServer
from repro.core.rstf import RstfModel, train_rstf
from repro.crypto.cipher import StreamCipher
from repro.crypto.keys import GroupKeyService
from repro.errors import ProtocolError, UnknownTermError
from repro.index.merge import MergePlan
from repro.index.postings import (
    WIRE_ELEMENT_BITS,
    EncryptedPostingElement,
    PostingElement,
)
from repro.obs import Telemetry
from repro.text.analysis import DocumentStats
from tests.conftest import posting_bytes


def _keys():
    svc = GroupKeyService(master_secret=b"s" * 32)
    svc.register("alice", {"g1"})
    svc.register("bob", {"g2"})
    svc.register("root", {"g1", "g2"})
    return svc


def _plan():
    return MergePlan(groups=(("apple", "pear"), ("plum",)), r=2.0)


def _model():
    return RstfModel(
        {
            "apple": train_rstf([0.1, 0.2, 0.3, 0.5], sigma=20.0),
            "pear": train_rstf([0.05, 0.15, 0.4], sigma=20.0),
            "plum": train_rstf([0.2, 0.6], sigma=20.0),
        }
    )


def _server(keys):
    """The paper's single index server: a one-server cluster."""
    return ServerCluster(keys, num_lists=2, num_servers=1)


@pytest.fixture()
def keys():
    return _keys()


@pytest.fixture()
def plan():
    return _plan()


@pytest.fixture()
def model():
    return _model()


@pytest.fixture()
def server(keys):
    return _server(keys)


def _client(principal, keys, server, model, plan):
    return ZerberRClient(
        principal=principal,
        key_service=keys,
        server=server,
        rstf_model=model,
        merge_plan=plan,
    )


@pytest.fixture()
def alice(keys, server, model, plan):
    return _client("alice", keys, server, model, plan)


@pytest.fixture()
def bob(keys, server, model, plan):
    return _client("bob", keys, server, model, plan)


@pytest.fixture()
def root(keys, server, model, plan):
    return _client("root", keys, server, model, plan)


def _doc(doc_id, counts):
    return DocumentStats.from_counts(doc_id, counts)


class TestInsert:
    def test_index_document_counts_elements(self, alice, server):
        doc = _doc("d1", {"apple": 2, "plum": 1})
        assert len(alice.index_document_with_receipts(doc, "g1")) == 2
        assert server.num_elements == 2

    def test_build_element_routes_to_merged_list(self, alice, plan):
        list_id, element = alice.build_element(
            "plum", _doc("d1", {"plum": 1}), "g1"
        )
        assert list_id == plan.list_of("plum")
        assert element.group == "g1"
        assert 0.0 <= element.trs <= 1.0

    def test_absent_term_rejected(self, alice):
        with pytest.raises(UnknownTermError):
            alice.build_element("apple", _doc("d1", {"plum": 1}), "g1")

    def test_term_outside_plan_rejected(self, alice):
        with pytest.raises(UnknownTermError):
            alice.build_element("mango", _doc("d1", {"mango": 1}), "g1")

    def test_a_document_keeps_its_number_and_a_refused_build_mints_none(
        self, alice, bob, keys, server
    ):
        """Numbers are per group, dense in first-write order and kept when
        a document is written again or deleted; a build refused for a
        term mints nothing."""
        receipts = alice.index_document_with_receipts(_doc("d1", {"apple": 2}), "g1")
        with pytest.raises(UnknownTermError):
            alice.build_document(_doc("d0", {"mango": 1}), "g1")
        alice.index_document_with_receipts(_doc("d2", {"plum": 1}), "g1")
        bob.index_document_with_receipts(_doc("d2", {"plum": 1}), "g2")
        assert alice.delete_document(receipts) == 1
        alice.index_document_with_receipts(_doc("d1", {"apple": 3}), "g1")
        assert keys._directories["g1"].names == ["d1", "d2"]
        assert keys._directories["g2"].names == ["d2"]

    def test_a_writer_outside_the_group_mints_nothing(self, alice, keys):
        from repro.errors import AccessDeniedError

        with pytest.raises(AccessDeniedError):
            alice.build_document(_doc("d1", {"apple": 1}), "g2")
        assert keys._directories["g2"].names == []

    def test_trs_monotone_in_score(self, alice):
        _, low = alice.build_element("apple", _doc("d1", {"apple": 1, "pear": 9}), "g1")
        _, high = alice.build_element("apple", _doc("d2", {"apple": 9, "pear": 1}), "g1")
        assert high.trs > low.trs

    def test_unseen_term_trs_deterministic_per_element(self, keys, server, model):
        plan = MergePlan(groups=(("apple", "pear"), ("plum", "mango")), r=2.0)
        client = _client("alice", keys, server, model, plan)
        doc = _doc("d1", {"mango": 1})
        _, a = client.build_element("mango", doc, "g1")
        _, b = client.build_element("mango", doc, "g1")
        # Re-inserting the same document is idempotent.
        assert a.trs == b.trs

    def test_unseen_term_trs_distinct_across_documents(self, keys, server, model):
        plan = MergePlan(groups=(("apple", "pear"), ("plum", "mango")), r=2.0)
        client = _client("alice", keys, server, model, plan)
        _, a = client.build_element("mango", _doc("d1", {"mango": 1}), "g1")
        _, b = client.build_element("mango", _doc("d2", {"mango": 2, "apple": 1}), "g1")
        # Per-element pseudo-randomness keeps the TRS stream tie-free.
        assert a.trs != b.trs

    def test_build_document_equals_the_build_element_loop(self, model):
        """Twin key services (same secret): the one-pass builder and the
        per-term loop produce the same uploads, byte for byte."""
        plan = MergePlan(groups=(("apple", "pear"), ("plum", "mango")), r=2.0)
        docs = [
            _doc("d1", {"apple": 3, "pear": 1, "plum": 2, "mango": 4}),
            _doc("d2", {"mango": 1}),
            _doc("d3", {"pear": 7, "apple": 1}),
        ]
        twins = []
        for _ in range(2):
            keys = GroupKeyService(master_secret=b"s" * 32)
            keys.register("alice", {"g1"})
            twins.append(_client("alice", keys, ServerCluster(keys, 2, 1), model, plan))
        batch, loop = twins
        for doc in docs:
            built = batch.build_document(doc, "g1")
            looped = [loop.build_element(t, doc, "g1") for t in sorted(doc.counts)]
            assert built == looped
            assert [e.trs.hex() for _, e in built] == [e.trs.hex() for _, e in looped]

    def test_build_document_checks_every_term_before_minting_a_number(
        self, keys, alice
    ):
        before = _doc("d0", {"apple": 1})
        first = alice.build_document(before, "g1")[0][1].ciphertext
        with pytest.raises(UnknownTermError):
            alice.build_document(_doc("d1", {"apple": 2, "mango": 1}), "g1")
        with pytest.raises(UnknownTermError):
            alice.build_document(_doc("d1", {"apple": 2}), "g1", ["apple", "pear"])
        # The refused builds minted no document number: a twin that never
        # saw them numbers, and so seals, the next document identically.
        twin_keys = GroupKeyService(master_secret=b"s" * 32)
        twin_keys.register("alice", {"g1"})
        twin = _client(
            "alice", twin_keys, ServerCluster(twin_keys, 2, 1), alice._rstf, alice._plan
        )
        assert twin.build_document(before, "g1")[0][1].ciphertext == first
        after = _doc("d2", {"pear": 2})
        assert alice.build_document(after, "g1") == twin.build_document(after, "g1")

    def test_receipts_carry_the_trs_and_index_document_counts_them(
        self, alice, server
    ):
        doc = _doc("d1", {"apple": 2, "plum": 1})
        receipts = alice.index_document_with_receipts(doc, "g1")
        stored = {
            e.ciphertext: (list_id, e.trs)
            for list_id in range(2)
            for e in server.server(0).export_list(list_id)
        }
        assert [stored[r.ciphertext] for r in receipts] == [
            (r.list_id, r.trs) for r in receipts
        ]
        doc = _doc("d2", {"apple": 1, "pear": 1})
        assert len(alice.index_document_with_receipts(doc, "g1")) == 2


class TestQuery:
    def _populate(self, alice, bob):
        # g1 documents: apple-heavy.
        alice.index_document_with_receipts(_doc("a1", {"apple": 8, "pear": 2}), "g1")
        alice.index_document_with_receipts(_doc("a2", {"apple": 1, "pear": 9}), "g1")
        # g2 documents.
        bob.index_document_with_receipts(_doc("b1", {"apple": 5, "plum": 5}), "g2")

    def test_topk_order_matches_rscore(self, alice, bob, root):
        self._populate(alice, bob)
        result = root.query("apple", k=3)
        assert result.doc_ids() == ["a1", "b1", "a2"]

    def test_access_control_limits_results(self, alice, bob):
        self._populate(alice, bob)
        result = alice.query("apple", k=3)
        assert result.doc_ids() == ["a1", "a2"]

    def test_trace_records_requests(self, alice, bob, root):
        self._populate(alice, bob)
        result = root.query("apple", k=1, policy=ResponsePolicy(initial_size=1))
        assert result.trace.num_requests >= 1
        assert result.trace.elements_transferred >= 1

    def test_follow_up_doubling(self, alice, bob, root):
        self._populate(alice, bob)
        # k=3 matches but initial size 1 forces follow-ups: sizes 1,2,4...
        result = root.query("apple", k=3, policy=ResponsePolicy(initial_size=1))
        assert result.trace.num_requests >= 2
        assert len(result.hits) == 3

    def test_unsatisfiable_query_exhausts_list(self, alice, bob, root):
        self._populate(alice, bob)
        result = root.query("plum", k=5)
        assert len(result.hits) == 1
        assert not result.trace.satisfied

    def test_default_policy_is_b_equals_k(self, alice, bob, root):
        self._populate(alice, bob)
        result = root.query("apple", k=2)
        # initial response size == k == 2
        assert result.trace.elements_transferred >= 2

    def test_unknown_term(self, root):
        with pytest.raises(UnknownTermError):
            root.query("mango", k=1)

    def test_invalid_k(self, root):
        with pytest.raises(ValueError):
            root.query("apple", k=0)

    def test_hits_carry_group_and_score(self, alice, bob, root):
        self._populate(alice, bob)
        hit = root.query("apple", k=1).hits[0]
        assert hit.group == "g1"
        assert hit.rscore == pytest.approx(0.8)


class TestRevocation:
    """The client holds no cipher of its own: the key service's per-
    (principal, group) cipher — and the memo of decoded postings inside
    it — is the only one, and it dies with the membership."""

    def test_revoked_group_is_not_skimmed_and_reenroll_starts_cold(
        self, alice, bob, root, keys
    ):
        TestQuery()._populate(alice, bob)
        assert root.query("apple", k=3).doc_ids() == ["a1", "b1", "a2"]
        stale = keys.cipher_for("root", "g2")
        assert stale._memo  # root's skim left decoded g2 postings behind

        keys.revoke("root", "g2")
        served = stale.memo_hits
        assert root.query("apple", k=3).doc_ids() == ["a1", "a2"]
        assert stale.memo_hits == served  # the old cipher was never asked

        keys.enroll("root", "g2")
        fresh = keys.cipher_for("root", "g2")
        assert fresh is not stale and not fresh._memo
        assert root.query("apple", k=3).doc_ids() == ["a1", "b1", "a2"]
        assert fresh._memo and stale.memo_hits == served
        assert root._cipher("g2") is fresh


class TestRevocationBetweenRounds:
    """Membership is re-validated against the live ``Principal.groups``
    at every delivery round — also for a session parked at a coordinator,
    and also when the change went around ``revoke()``."""

    @pytest.fixture()
    def parked(self, keys, model, plan):
        """root's session at a coordinator, one response in flight that
        was served while root was still a member of g2."""
        cluster = ServerCluster(keys, num_lists=2, num_servers=2)
        alice, bob, root = (
            _client(name, keys, cluster, model, plan) for name in ("alice", "bob", "root")
        )
        for i in range(1, 6):
            alice.index_document_with_receipts(_doc(f"a{i}", {"apple": i, "pear": 10 - i}), "g1")
            bob.index_document_with_receipts(_doc(f"b{i}", {"apple": i + 1, "plum": 9 - i}), "g2")
        assert {d[0] for d in root.query("apple", k=10).doc_ids()} == {"a", "b"}
        coordinator = Coordinator(cluster, round_latency=1)
        session = coordinator.submit(
            root.open_multi_session(["apple"], 4, policy=ResponsePolicy(initial_size=8))
        )
        coordinator.tick()
        assert session.rounds == 0 and not session.done  # dispatched, not delivered
        return cluster, coordinator, root, session

    @pytest.mark.parametrize("how", ["revoke", "discard"])
    def test_in_flight_elements_of_a_lost_group_are_never_opened(
        self, parked, keys, plan, how, monkeypatch
    ):
        cluster, coordinator, root, session = parked
        stale = keys.cipher_for("root", "g2")
        served, held = stale.memo_hits, len(stale._memo)
        assert held  # the warm-up query left decoded g2 postings behind
        if how == "revoke":
            keys.revoke("root", "g2")
        else:
            keys._principal("root").groups.discard("g2")  # no revoke() call
        delivered = []
        skim = client_module.skim_matches

        def recording(elements, *rest):
            delivered.extend(element.group for element in elements)
            return skim(elements, *rest)

        monkeypatch.setattr(client_module, "skim_matches", recording)
        coordinator.drain()
        assert "g2" in delivered  # the in-flight response did carry them
        ranked = session.result().ranked
        assert ranked and all(doc_id.startswith("a") for doc_id, _ in ranked)

        # A hand-built response still carrying g2's elements, delivered to
        # a session nobody else drives.
        list_id = plan.list_of("apple")
        stored = cluster.server(cluster.replicas_of(list_id)[0]).export_list(list_id)
        assert {e.group for e in stored} == {"g1", "g2"}
        late = root.open_multi_session(["apple"], 10)
        late.deliver([FetchResponse(tuple(stored), True, replica_version=0)])
        assert late.result().ranked == tuple(
            sorted(
                ((f"a{i}", i / 10) for i in range(1, 6)), key=lambda kv: (-kv[1], kv[0])
            )
        )
        assert (stale.memo_hits, len(stale._memo)) == (served, held)


def _public_calls(monkeypatch, cls):
    """Count calls of every public method of *cls*, by name."""
    calls = Counter()
    for name, attr in vars(cls).items():
        if name.startswith("_") or not callable(attr):
            continue

        def counting(*args, _name=name, _attr=attr, **kwargs):
            calls[_name] += 1
            return _attr(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    return calls


class TestReadPathWorkBound:
    """One key-service call per round, one probe per fetched element, no
    hit object until somebody reads a result — counted, not timed."""

    def _round(self, alice, bob, root, server):
        TestBatchedMultiTerm()._populate(alice, bob)
        session = root.open_multi_session(["apple", "pear", "plum"], k=2)
        requests = session.pending_requests()
        responses = server.batch_fetch(BatchFetchRequest(requests)).responses
        assert len(responses) == 3
        assert {e.group for r in responses for e in r.elements} == {"g1", "g2"}
        return session, responses

    def test_one_deliver_makes_one_key_service_call(
        self, alice, bob, root, server, monkeypatch
    ):
        session, responses = self._round(alice, bob, root, server)
        calls = _public_calls(monkeypatch, GroupKeyService)
        session.deliver(responses)
        assert calls == {"keyring": 1}

    def test_each_fetched_element_is_probed_exactly_once(
        self, alice, bob, root, server, monkeypatch
    ):
        session, responses = self._round(alice, bob, root, server)
        probed = Counter()
        kernel = StreamCipher.skim

        def counting(cipher, ciphertext, *rest):
            probed[ciphertext] += 1
            return kernel(cipher, ciphertext, *rest)

        monkeypatch.setattr(StreamCipher, "skim", counting)
        session.deliver(responses)
        assert probed == Counter(e.ciphertext for r in responses for e in r.elements)

    def test_no_hit_is_built_until_a_result_is_read(
        self, alice, bob, root, monkeypatch
    ):
        TestBatchedMultiTerm()._populate(alice, bob)
        built = []

        def counting(**fields):
            built.append(fields)
            return RankedHit(**fields)

        monkeypatch.setattr(client_module, "RankedHit", counting)
        multi = root.query_multi_batched(["apple", "pear", "plum"], k=2)
        assert multi.ranked and not built  # the aggregate sums the postings
        single = root.query("apple", k=2)
        assert len(built) == len(single.hits) == 2  # k hits, not one per match

    def test_nothing_on_the_client_side_keeps_a_cipher(self, alice, bob, root, keys):
        """The key service is the only owner: between calls no attribute
        of the client, the query session or a term session holds a
        cipher, a bound kernel or a keyring."""
        TestBatchedMultiTerm()._populate(alice, bob)
        session = root.open_multi_session(["apple", "plum"], k=2)
        while not session.done:
            session.deliver(
                root._server.batch_fetch(
                    BatchFetchRequest(session.pending_requests())
                ).responses
            )
        root.query("apple", k=2)

        def attributes(obj):
            names = list(getattr(obj, "__dict__", ()))
            for cls in type(obj).__mro__:
                names += getattr(cls, "__slots__", ())
            return [getattr(obj, name) for name in names]

        def keeps_a_cipher(value, depth=2):
            if isinstance(value, StreamCipher) or isinstance(
                getattr(value, "__self__", None), StreamCipher
            ):
                return True
            if depth and isinstance(value, dict):
                return any(keeps_a_cipher(v, depth - 1) for v in value.values())
            if depth and isinstance(value, (list, tuple, set, frozenset)):
                return any(keeps_a_cipher(v, depth - 1) for v in value)
            return False

        holders = [root, session, *session._sessions]
        assert all(
            not keeps_a_cipher(value) for obj in holders for value in attributes(obj)
        )
        assert keeps_a_cipher(keys._keyrings["root"][1])  # the check can see one


class TestTies:
    """``ranked_hits()`` / ``result()`` order ties exactly as the eager
    per-element ranking did: a stable sort on ``(-rscore, doc_id)`` over
    element order, so the same doc in two groups keeps list order."""

    def _populate(self, alice, bob):
        # d1 lives in both groups with one score; a2 / b2 / a3 tie across docs.
        alice.index_document_with_receipts(_doc("d1", {"apple": 4, "pear": 4}), "g1")
        bob.index_document_with_receipts(_doc("d1", {"apple": 4, "plum": 4}), "g2")
        alice.index_document_with_receipts(_doc("a2", {"apple": 2, "pear": 6}), "g1")
        bob.index_document_with_receipts(_doc("b2", {"apple": 2, "plum": 6}), "g2")
        alice.index_document_with_receipts(_doc("a3", {"apple": 1, "pear": 3}), "g1")
        alice.index_document_with_receipts(_doc("a4", {"apple": 7, "pear": 1}), "g1")

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 9])
    def test_query_ranks_ties_like_the_eager_reference(
        self, alice, bob, root, server, keys, plan, monkeypatch, k
    ):
        self._populate(alice, bob)
        fetched = []
        batch_fetch = server.batch_fetch

        def recording(batch):
            response = batch_fetch(batch)
            for served in response:
                fetched.extend(served.elements)
            return response

        monkeypatch.setattr(server, "batch_fetch", recording)
        result = root.query("apple", k=k, policy=ResponsePolicy(initial_size=1))

        eager = []  # one hit per readable matching element, in fetch order
        ring = keys.keyring("root", plan)
        for element in fetched:
            cipher, decode = ring[element.group]
            posting = decode(cipher.try_decrypt(element.ciphertext))
            if posting.term == "apple":
                eager.append(RankedHit(posting.doc_id, posting.rscore, element.group))
        eager.sort(key=lambda h: (-h.rscore, h.doc_id))
        assert result.hits == tuple(eager[:k])
        if k >= 3:
            d1 = [hit.group for hit in result.hits if hit.doc_id == "d1"]
            assert sorted(d1) == ["g1", "g2"]  # both copies, list order kept

    def test_multi_term_result_sums_the_same_tied_top_k(self, alice, bob, root):
        self._populate(alice, bob)
        for k in (1, 2, 3, 6):
            expected = {}
            for term in ("apple", "pear", "plum"):
                for hit in root.query(term, k=k).hits:
                    expected[hit.doc_id] = expected.get(hit.doc_id, 0.0) + hit.rscore
            ranked = root.query_multi_batched(["apple", "pear", "plum"], k=k).ranked
            assert ranked == tuple(
                sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            )


class TestStopInsideATie:
    """A term stops as soon as it holds k matches.  Equal rscores of one
    term give equal TRS, so the k-th and (k+1)-th matches can tie across
    the stop: the result then has the true top-k scores, but of the tied
    matches it holds the one the server served first — not the smallest
    doc id, which an eager ranking of the whole list would pick."""

    def test_the_tied_match_served_first_is_kept(self, alice, root, server):
        for doc_id, tf in (("top", 9), ("z-tied", 5), ("a-tied", 5), ("low", 1)):
            alice.index_document_with_receipts(_doc(doc_id, {"plum": tf, "pear": 10 - tf}), "g1")
        stored = server.server(0).export_list(1)
        assert stored[1].trs == stored[2].trs  # one term, equal rscores
        result = root.query("plum", k=2, policy=ResponsePolicy(initial_size=2))
        assert result.trace.num_requests == 1 and result.trace.satisfied
        assert [hit.rscore for hit in result.hits] == [0.9, 0.5]  # exact scores
        assert result.doc_ids() == ["top", "z-tied"]  # first served, not "a-tied"
        everything = root.query("plum", k=3, policy=ResponsePolicy(initial_size=4))
        assert everything.doc_ids() == ["top", "a-tied", "z-tied"]


# A document: which two terms it holds (list 0 merges apple and pear, so
# either shape interleaves matches and non-matches there), the first
# term's tf out of 5 — four values, so scores tie in runs — and its group.
DOCUMENTS = st.lists(
    st.tuples(
        st.sampled_from([("apple", "pear"), ("pear", "plum")]),
        st.integers(1, 4),
        st.sampled_from(["g1", "g2"]),
    ),
    min_size=1,
    max_size=24,
)


class TestStopRule:
    """On a list nobody writes to, a term's session ends at the first
    round that leaves it holding ≥ k matches, or at the round that
    exhausts the readable list — and the scores it returns are the eager
    top-k scores of the whole list."""

    @settings(max_examples=60, deadline=None)
    @given(
        documents=DOCUMENTS,
        term=st.sampled_from(["apple", "pear"]),
        reader=st.sampled_from(["alice", "root"]),
        k=st.integers(1, 8),
        b=st.integers(1, 4),
    )
    def test_a_term_stops_at_k_matches_held_or_at_exhaustion(
        self, documents, term, reader, k, b
    ):
        # Built per example: a hypothesis example may not share the
        # function-scoped fixtures.
        keys, plan, model = _keys(), _plan(), _model()
        cluster = _server(keys)
        writers = {
            group: _client(owner, keys, cluster, model, plan)
            for group, owner in (("g1", "alice"), ("g2", "bob"))
        }
        for i, ((first, second), tf, group) in enumerate(documents):
            doc = _doc(f"d{i}", {first: tf, second: 5 - tf})
            writers[group].index_document_with_receipts(doc, group)
        result = _client(reader, keys, cluster, model, plan).query(
            term, k, policy=ResponsePolicy(initial_size=b)
        )

        ring = keys.keyring(reader, plan)
        scores = []  # one per readable element, None for a non-match
        for element in cluster.server(0).export_list(plan.list_of(term)):
            if element.group in ring:
                cipher, decode = ring[element.group]
                posting = decode(cipher.try_decrypt(element.ciphertext))
                scores.append(posting.rscore if posting.term == term else None)
        offset = rounds = held = 0
        while True:
            count = b * 2**rounds
            held += sum(score is not None for score in scores[offset : offset + count])
            exhausted = offset + count >= len(scores)
            offset, rounds = min(offset + count, len(scores)), rounds + 1
            if held >= k or exhausted:
                break
        trace = result.trace
        assert (trace.num_requests, trace.elements_transferred) == (rounds, offset)
        assert trace.satisfied == (held >= k)
        eager = sorted((s for s in scores if s is not None), reverse=True)[:k]
        assert [hit.rscore for hit in result.hits] == eager


class TestMultiTerm:
    def test_aggregation(self, alice, bob, root):
        alice.index_document_with_receipts(_doc("a1", {"apple": 5, "pear": 5}), "g1")
        alice.index_document_with_receipts(_doc("a2", {"apple": 9, "pear": 1}), "g1")
        result = root.query_multi_batched(["apple", "pear"], k=2)
        ranked = result.ranked
        assert len(result.traces) == 2
        # a1 has balanced scores (0.5 + 0.5) beating a2 (0.9 + 0.1)? equal —
        # both sum to 1.0; tie-break by doc id puts a1 first.
        assert ranked[0][0] == "a1"
        assert ranked[0][1] == pytest.approx(1.0)


class TestBatchedMultiTerm:
    def _populate(self, alice, bob):
        alice.index_document_with_receipts(_doc("a1", {"apple": 5, "pear": 5}), "g1")
        alice.index_document_with_receipts(_doc("a2", {"apple": 9, "pear": 1}), "g1")
        alice.index_document_with_receipts(_doc("a3", {"apple": 2, "pear": 7, "plum": 1}), "g1")
        bob.index_document_with_receipts(_doc("b1", {"apple": 5, "plum": 5}), "g2")

    def test_batched_matches_sequential_per_term_queries(self, alice, bob, root):
        self._populate(alice, bob)
        terms = ["apple", "pear", "plum"]
        k = 3
        result = root.query_multi_batched(terms, k)
        expected_scores: dict[str, float] = {}
        for term, trace in zip(terms, result.traces):
            single = root.query(term, k)
            assert single.trace.num_requests == trace.num_requests, term
            assert single.trace.elements_transferred == trace.elements_transferred
            assert single.trace.satisfied == trace.satisfied
            for hit in single.hits:
                expected_scores[hit.doc_id] = (
                    expected_scores.get(hit.doc_id, 0.0) + hit.rscore
                )
        expected = sorted(
            expected_scores.items(), key=lambda kv: (-kv[1], kv[0])
        )[:k]
        assert list(result.ranked) == expected

    def test_lockstep_rounds_are_max_not_sum(self, alice, bob, root):
        self._populate(alice, bob)
        # b=1 forces several doubling rounds per term.
        policy = ResponsePolicy(initial_size=1)
        result = root.query_multi_batched(["apple", "pear"], k=3, policy=policy)
        per_term = [t.num_requests for t in result.traces]
        assert result.batch_trace.num_rounds == max(per_term)
        assert result.batch_trace.num_subfetches == sum(per_term)
        assert result.batch_trace.num_subfetches > result.batch_trace.num_rounds

    def test_fewer_server_calls_than_sequential(self, alice, bob, root, server):
        self._populate(alice, bob)
        server.server(0).clear_observations()
        result = root.query_multi_batched(["apple", "pear", "plum"], k=2)
        batch_ids = {obs.batch_id for obs in server.observations_at(0)}
        assert None not in batch_ids
        # One server call per round: distinct batch ids == num_rounds, and
        # strictly fewer than the slices served.
        assert len(batch_ids) == result.batch_trace.num_rounds
        assert len(batch_ids) < len(server.observations_at(0))

    def test_duplicate_terms_keep_sequential_semantics(self, alice, bob, root):
        self._populate(alice, bob)
        once = root.query_multi_batched(["apple"], k=2)
        twice = root.query_multi_batched(["apple", "apple"], k=2)
        assert len(twice.traces) == 2
        assert twice.ranked[0][1] == pytest.approx(2 * once.ranked[0][1])

    def test_query_ships_the_slices_of_a_one_term_batched_query(
        self, alice, bob, root, server
    ):
        self._populate(alice, bob)
        policy = ResponsePolicy(initial_size=1)

        def wire(run):
            server.server(0).clear_observations()
            run()
            return list(server.observations_at(0))

        single = wire(lambda: root.query("apple", k=3, policy=policy))
        batched = wire(lambda: root.query_multi_batched(["apple"], k=3, policy=policy))
        assert len(single) > 1
        shape = [(o.list_id, o.offset, o.count, o.returned) for o in single]
        assert shape == [(o.list_id, o.offset, o.count, o.returned) for o in batched]
        # One server call a round, each slice under its own batch id.
        assert len({o.batch_id for o in single}) == len(single)
        (session,) = extract_sessions(single)
        assert session.num_requests == len(single)

    def test_empty_term_list(self, root):
        result = root.query_multi_batched([], k=3)
        assert result.ranked == ()
        assert result.batch_trace.num_rounds == 0

    def test_unknown_term_rejected_before_any_fetch(self, root, server):
        server.server(0).clear_observations()
        with pytest.raises(UnknownTermError):
            root.query_multi_batched(["apple", "mango"], k=1)
        assert server.observations_at(0) == []


# -- the batch trace is the sum of the term traces, after every round ----------


def _assert_traces_agree(session, shipped=None):
    batch, terms = session.batch_trace, [s.trace for s in session._sessions]
    assert batch.num_subfetches == sum(t.num_requests for t in terms)
    assert batch.elements_transferred == sum(t.elements_transferred for t in terms)
    assert batch.bits_transferred == sum(t.bits_transferred for t in terms)
    assert batch.bits_transferred == batch.elements_transferred * WIRE_ELEMENT_BITS
    if shipped is not None:
        assert batch.elements_transferred == sum(len(r.elements) for r in shipped)


@contextlib.contextmanager
def _traces_checked_after_every_round():
    """Every ``deliver`` of every session — whoever drives it — is
    followed by the trace comparison, against what was shipped to it."""
    deliver = ClientQuerySession.deliver
    shipped = {}
    rounds = []

    def checked(session, responses):
        received = shipped.setdefault(id(session), (session, []))[1]
        received.extend(responses)
        deliver(session, responses)
        _assert_traces_agree(session, received)
        assert session.batch_trace.num_rounds == session.rounds
        rounds.append(session)

    ClientQuerySession.deliver = checked
    try:
        yield rounds
    finally:
        ClientQuerySession.deliver = deliver


class _ShippedLog:
    """A backend that remembers every response it handed to the client."""

    def __init__(self, backend):
        self._backend = backend
        self.shipped = []

    def batch_fetch(self, batch):
        response = self._backend.batch_fetch(batch)
        self.shipped.extend(response.responses)
        return response

    def __getattr__(self, name):
        return getattr(self._backend, name)


@pytest.fixture(scope="module")
def tiny_deployment(system):
    cluster, _ = system.deploy_cluster(num_servers=3, replication=2)
    pool = system.vocabulary.terms_by_frequency()[:40]
    return system, cluster, pool


JOBS = st.lists(
    st.tuples(
        st.lists(st.integers(0, 39), min_size=1, max_size=4),
        st.integers(1, 12),
        st.sampled_from([None, 1, 3]),
    ),
    min_size=1,
    max_size=4,
)


class TestTracesAgree:
    @settings(max_examples=40, deadline=None)
    @given(jobs=JOBS, round_latency=st.sampled_from([0, 1]))
    def test_after_every_round_under_every_driver(
        self, tiny_deployment, jobs, round_latency
    ):
        system, cluster, pool = tiny_deployment
        client = system.client_for("superuser", server=cluster)
        queries = [
            ([pool[i] for i in picks], k, b and ResponsePolicy(initial_size=b))
            for picks, k, b in jobs
        ]
        logged = _ShippedLog(cluster)
        single = ZerberRClient(
            "superuser", system.key_service, logged, system.rstf_model, system.merge_plan
        )
        with _traces_checked_after_every_round() as rounds:
            direct = [
                client.query_multi_batched(terms, k, policy=policy)
                for terms, k, policy in queries
            ]
            assert len(rounds) == sum(r.batch_trace.num_rounds for r in direct)
            coordinator = Coordinator(cluster, round_latency=round_latency)
            sessions = [
                coordinator.submit(client.open_multi_session(terms, k, policy=policy))
                for terms, k, policy in queries
            ]
            coordinator.drain()
            driven = [session.result() for session in sessions]
            # query(): a one-term session, run by the same driver, its
            # rounds checked like every other session's.
            for (terms, k, policy), multi in zip(queries, direct):
                del logged.shipped[:], rounds[:]
                trace = single.query(terms[0], k, policy=policy).trace
                assert trace == multi.traces[0]
                assert trace.num_requests == len(rounds) == len(logged.shipped)
                assert trace.elements_transferred == sum(
                    len(r.elements) for r in logged.shipped
                )
                assert trace.bits_transferred == (
                    trace.elements_transferred * WIRE_ELEMENT_BITS
                )
        assert [r.ranked for r in driven] == [r.ranked for r in direct]
        assert [r.batch_trace for r in driven] == [r.batch_trace for r in direct]

    def _poison(self, keys, server, list_id, group, owner):
        """An element that passes its IV check and decodes malformed — a
        header naming a term number past the plan — written through the
        owner's cipher, at the head of *list_id*."""
        header = posting_bytes(PostingElement("t", "d", 1, 2), 2**32 - 1, 0)
        bad = keys.cipher_for(owner, group).encrypt(header)
        server.insert(
            owner, list_id, EncryptedPostingElement(ciphertext=bad, group=group, trs=1.0)
        )

    def _first_round(self, root, server, terms, k=2):
        session = root.open_multi_session(terms, k=k)
        responses = server.batch_fetch(
            BatchFetchRequest(session.pending_requests())
        ).responses
        return session, responses

    def test_a_raise_on_the_first_slice_books_what_the_term_traces_counted(
        self, keys, alice, bob, root, server
    ):
        """The bug: the batch trace used to count the whole round before
        any of it was absorbed, so it ran ahead of the term traces."""
        TestBatchedMultiTerm()._populate(alice, bob)
        self._poison(keys, server, 0, "g1", "alice")  # apple's list
        session, responses = self._first_round(root, server, ["apple", "plum"])
        assert len(responses) == 2 and all(r.elements for r in responses)
        with pytest.raises(ProtocolError):
            session.deliver(responses)
        _assert_traces_agree(session, responses[:1])
        assert session.batch_trace.num_rounds == 1
        assert session.batch_trace.num_subfetches == 1
        assert [t.num_requests for t in (s.trace for s in session._sessions)] == [1, 0]
        assert not session.done

    def test_a_term_that_finished_before_the_raise_is_no_longer_pending(
        self, keys, alice, bob, root, server
    ):
        TestBatchedMultiTerm()._populate(alice, bob)
        self._poison(keys, server, 1, "g2", "bob")  # plum's list, the second slice
        session, responses = self._first_round(root, server, ["apple", "plum"], k=1)
        with pytest.raises(ProtocolError):
            session.deliver(responses)
        apple, plum = session._sessions
        assert apple.done and apple.trace.satisfied and not plum.done
        _assert_traces_agree(session, responses)
        assert [r.list_id for r in session.pending_requests()] == [plum.list_id]
        assert not session.done
        with pytest.raises(ProtocolError, match="expected 1 responses"):
            session.deliver(responses)


class TestTheClientReadsNoTrs:
    """The client reads ``ciphertext`` and ``group`` off a reply element
    (a :class:`~repro.core.protocol.SealedElement`) and nothing else: a
    cluster whose every reply element is rebuilt as a TRS-less
    ``ZerberElement`` gives every driver the very hits, rankings and
    traces the plain cluster gives."""

    @pytest.mark.parametrize("b", [None, 1])
    def test_trs_less_replies_change_no_hit_ranking_or_trace(
        self, tiny_deployment, monkeypatch, b
    ):
        system, cluster, pool = tiny_deployment
        client = system.client_for("superuser", server=cluster)
        policy = b and ResponsePolicy(initial_size=b)
        rng = random.Random(44)
        tape = [
            (rng.sample(pool, rng.randint(1, 3)), rng.choice([1, 3, 5, 10]))
            for _ in range(12)
        ]
        rebuilt = []
        drivers = [
            lambda: [client.query(terms[0], k, policy) for terms, k in tape],
            lambda: [client.query_multi_batched(terms, k, policy) for terms, k in tape],
            lambda: Coordinator(cluster).run_queries(
                [(client, terms, k) for terms, k in tape], policy
            ),
        ]

        def run():
            results, shipped = [], []
            for drive in drivers:
                results.append(drive())
                shipped.append(len(rebuilt))
            return results, shipped

        plain, _ = run()
        batch_fetch = cluster.batch_fetch

        def trs_less(batch):
            responses = []
            for reply in batch_fetch(batch):
                elements = tuple(
                    ZerberElement(e.ciphertext, e.group) for e in reply.elements
                )
                rebuilt.extend(elements)
                responses.append(
                    FetchResponse(elements, reply.exhausted, reply.replica_version)
                )
            return BatchFetchResponse(tuple(responses))

        monkeypatch.setattr(cluster, "batch_fetch", trs_less)
        twin, shipped = run()
        assert 0 < shipped[0] < shipped[1] < shipped[2]  # every driver read them
        assert not any(hasattr(element, "trs") for element in rebuilt)
        assert twin == plain


class TestQueryTelemetry:
    """``query()`` is a session like any other: one ``query`` root,
    closed, with one ``skim`` span per round — none left open."""

    @pytest.mark.parametrize("driver", ["query", "query_multi_batched"])
    def test_one_closed_root_with_a_skim_span_per_round(self, system, driver):
        telemetry = Telemetry()
        cluster, _ = system.deploy_cluster(num_servers=3, telemetry=telemetry)
        client = system.client_for("superuser", server=cluster)
        term, tracer = system.vocabulary.terms_by_frequency()[0], telemetry.tracer
        policy = ResponsePolicy(initial_size=1)
        if driver == "query":
            trace = client.query(term, 3, policy).trace
        else:
            (trace,) = client.query_multi_batched([term], 3, policy).traces
        assert trace.num_requests > 1
        assert tracer.active_trace_ids() == []
        (root,) = [t.root for t in tracer.traces() if t.root.name == "query"]
        assert root.end_tick is not None
        assert [span.name for span in root.children] == ["skim"] * trace.num_requests


# -- counted work bounds of the warm read path ---------------------------------


def _frames_entered(call):
    """Python frames entered while *call* runs (``call`` events only).

    The collector is off while it counts: a collection that happens to
    fall inside *call* runs ``gc.callbacks`` (hypothesis registers one)
    and weakref callbacks, whose frames are not *call*'s."""
    entered = 0

    def profile(frame, event, arg):
        nonlocal entered
        if event == "call":
            entered += 1

    enabled, previous = gc.isenabled(), sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)  # a census or coverage hook keeps running
        if enabled:
            gc.enable()
    return entered - 1  # the lambda itself


class TestWarmReadPathCounts:
    def test_a_round_on_one_server_travels_as_the_clients_own_batch(
        self, keys, alice, bob, model, plan, monkeypatch
    ):
        cluster = ServerCluster(keys, num_lists=2, num_servers=2)
        writer = _client("alice", keys, cluster, model, plan)
        writer.index_document_with_receipts(_doc("a1", {"apple": 5, "pear": 5}), "g1")
        reader = _client("root", keys, cluster, model, plan)
        reader.query_multi_batched(["apple", "pear"], k=1)  # warm
        seen = {ServerCluster: [], ZerberRServer: []}
        for cls in seen:
            original = cls.batch_fetch

            def recording(self, batch, *args, _cls=cls, _original=original):
                reply = _original(self, batch, *args)
                seen[_cls].append((batch, reply))
                return reply

            monkeypatch.setattr(cls, "batch_fetch", recording)
        result = reader.query_multi_batched(["apple", "pear"], k=1)
        rounds = result.batch_trace.num_rounds
        assert len(seen[ZerberRServer]) == len(seen[ServerCluster]) == rounds >= 1
        assert len(seen[ServerCluster][0][0]) == 2  # both terms, one server
        for (built, answer), (served, reply) in zip(
            seen[ServerCluster], seen[ZerberRServer]
        ):
            assert served is built
            # Fresh slices: the reply the server built, stamped, travels.
            assert answer is reply
            assert all(r.replica_version is not None for r in reply)
        # A round that really splits is re-bundled per touched server, and
        # each fresh slice's reply is still the one its server built.
        del seen[ServerCluster][:], seen[ZerberRServer][:]
        reader.query_multi_batched(["apple", "plum"], k=1)
        (split, answer), (first, first_reply), (second, second_reply) = (
            seen[ServerCluster][0],
            *seen[ZerberRServer][:2],
        )
        assert [r.list_id for r in split.requests] == [0, 1]
        assert first is not split and second is not split
        assert (first.requests, second.requests) == (
            split.requests[:1],
            split.requests[1:],
        )
        assert answer.responses[0] is first_reply.responses[0]
        assert answer.responses[1] is second_reply.responses[0]

    # One warm two-term query that takes one round of two five-element
    # slices, telemetry off.  The budget is the path's own count on
    # CPython 3.11, exact (3.12 inlines comprehensions and only reads
    # lower): 152 entered since a term stops on its match count alone
    # (156 while a TRS top-k check and its list comprehension ran once per
    # finished term; 168 while every reply was walked for its bits and
    # the check sorted a generator, under a budget of 176).
    FRAME_BUDGET = 152

    def test_frames_entered_by_one_warm_query_stay_under_budget(self, tiny_deployment):
        system, cluster, pool = tiny_deployment
        client = system.client_for("superuser", server=cluster)
        terms, k = self._one_round_query(client, pool)
        client.query_multi_batched(terms, k)  # warm: views, memos, keyring
        results = []
        frames = _frames_entered(
            lambda: results.append(client.query_multi_batched(terms, k))
        )
        trace = results[0].batch_trace
        assert (trace.num_rounds, trace.num_subfetches) == (1, 2)
        assert trace.elements_transferred == 10
        assert trace.bits_transferred == 10 * WIRE_ELEMENT_BITS
        assert frames <= self.FRAME_BUDGET, frames

    # The warm six-term query of the telemetry budget below, one round of
    # six slices on three servers, through Coordinator.run_queries with no
    # telemetry: its count on CPython 3.11, exact — 420 entered since
    # ``submit`` counts a session done at submit and ``drain`` stops when
    # none is parked (433 while every tick and flush pruned done sessions
    # and ``run_until_complete`` called a last idle ``tick``; 438 while it
    # read an event loop's ``now`` property; 450 with the TRS top-k check,
    # two frames per finished term; 486 while replies were walked for
    # their bits; 509 before the flush became one
    # ``ServerCluster.batch_fetch``, under a budget of 534).
    COORDINATOR_FRAME_BUDGET = 420

    def test_frames_entered_by_one_warm_coordinator_query_stay_under_budget(
        self, system
    ):
        cluster, coordinator = system.deploy_cluster(num_servers=3)
        client = system.client_for("superuser", server=cluster)
        terms, k = self._six_terms_on_three_servers(system, cluster), 5
        trace = coordinator.run_queries([(client, terms, k)])[0].batch_trace
        assert (trace.num_rounds, trace.num_subfetches) == (1, 6)
        assert trace.bits_transferred == (
            trace.elements_transferred * WIRE_ELEMENT_BITS
        )
        frames = _frames_entered(lambda: coordinator.run_queries([(client, terms, k)]))
        assert frames <= self.COORDINATOR_FRAME_BUDGET, frames

    # What telemetry adds to one warm six-term query that takes one round
    # of six slices on three servers: frames entered on a deployment with
    # a Telemetry, less those entered on a second deployment of the same
    # system with none — read counters, per-slice lag observations, the
    # trace root and its clock and, through the coordinator, the coalesce
    # span and its annotation.  The deployment with no telemetry enters exactly
    # what the same deployment entered with its telemetry switched off
    # live, so the budgets kept their values when that switch went.  An
    # absolute count, so a faster read path cannot move it and a clock
    # cannot blur it: 54 and 48 on CPython 3.11, re-measured when the
    # event loop went (the coordinator's was 70 with its envelope and
    # serve spans; 3.12 inlines list comprehensions
    # and can only read lower).  A change that puts more telemetry on the
    # read path raises these in the open; refresh them from the
    # ``(on, off)`` pair this test fails with.
    TELEMETRY_FRAME_BUDGET = {"coordinator": 54, "direct": 48}

    @pytest.mark.parametrize("path", sorted(TELEMETRY_FRAME_BUDGET))
    def test_frames_telemetry_adds_to_one_warm_query_stay_under_budget(
        self, system, path
    ):
        def frames(telemetry):
            cluster, coordinator = system.deploy_cluster(
                num_servers=3, telemetry=telemetry
            )
            client = system.client_for("superuser", server=cluster)
            terms, k = self._six_terms_on_three_servers(system, cluster), 5

            def run():
                if path == "coordinator":
                    return coordinator.run_queries([(client, terms, k)])[0]
                return client.query_multi_batched(terms, k)

            trace = run().batch_trace  # warm: views, memos, keyring
            assert (trace.num_rounds, trace.num_subfetches) == (1, 6)
            return _frames_entered(run)

        on, off = frames(Telemetry()), frames(None)
        assert on - off <= self.TELEMETRY_FRAME_BUDGET[path], (on, off)

    @staticmethod
    def _six_terms_on_three_servers(system, cluster):
        by_list = {}
        for term in system.vocabulary.terms_by_frequency():
            by_list.setdefault(system.merge_plan.list_of(term), term)
        terms = list(by_list.values())[:6]
        servers = {cluster.route(system.merge_plan.list_of(t)) for t in terms}
        assert len(servers) == cluster.num_servers == 3
        return terms

    @staticmethod
    def _one_round_query(client, pool):
        k = 5
        for first, second in itertools.combinations(pool, 2):
            trace = client.query_multi_batched([first, second], k).batch_trace
            if (trace.num_rounds, trace.num_subfetches) == (1, 2) and (
                trace.elements_transferred == 2 * k
            ):
                return [first, second], k
        raise AssertionError("tiny_corpus has no one-round two-term query at k=5")
