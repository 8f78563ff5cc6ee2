"""Unit tests for the Zerber (EDBT 2008) baseline."""

import numpy as np
import pytest

from repro.baselines.zerber import ZerberServer, ZerberSystem
from repro.crypto.keys import GroupKeyService
from repro.errors import AccessDeniedError, ProtocolError, UnknownTermError
from repro.index.postings import EncryptedPostingElement


@pytest.fixture(scope="module")
def zsystem(corpus):
    return ZerberSystem.build(corpus, r=4.0, seed=9)


class TestServer:
    def _keys(self):
        svc = GroupKeyService(master_secret=b"k" * 32)
        svc.register("u", {"g"})
        return svc

    def test_plaintext_score_rejected(self):
        server = ZerberServer(self._keys(), num_lists=1)
        with pytest.raises(ProtocolError):
            server.insert("u", 0, EncryptedPostingElement(b"c", "g", trs=0.5))

    def test_membership_enforced(self):
        server = ZerberServer(self._keys(), num_lists=1)
        with pytest.raises(AccessDeniedError):
            server.insert("u", 0, EncryptedPostingElement(b"c", "other"))

    def test_random_placement(self):
        keys = self._keys()
        server = ZerberServer(keys, num_lists=1, rng=np.random.default_rng(3))
        for _ in range(64):
            server.insert("u", 0, EncryptedPostingElement(b"c", "g"))
        # With random placement the list exists and has all elements; order
        # carries no TRS (nothing to assert on order — that's the point).
        assert server.num_elements == 64

    def test_download_filters_by_membership(self):
        keys = self._keys()
        keys.register("v", {"h"})
        keys.register("root", {"g", "h"})
        server = ZerberServer(keys, num_lists=1, rng=np.random.default_rng(4))
        server.insert("u", 0, EncryptedPostingElement(b"c1", "g"))
        server.insert("v", 0, EncryptedPostingElement(b"c2", "h"))
        assert len(server.download("u", 0)) == 1
        assert len(server.download("root", 0)) == 2


class TestSystem:
    def test_query_downloads_whole_readable_list(self, zsystem, corpus):
        term = zsystem.vocabulary.terms_by_frequency()[0]
        list_id = zsystem.merge_plan.list_of(term)
        result = zsystem.query(term, k=10)
        readable = zsystem.server.download("superuser", list_id)
        assert result.trace.elements_transferred == len(readable)
        assert result.trace.num_requests == 1

    def test_ranking_correct_despite_random_order(self, zsystem, corpus):
        from repro.index.inverted import OrdinaryInvertedIndex

        ordinary = OrdinaryInvertedIndex.from_documents(corpus.all_stats())
        term = zsystem.vocabulary.terms_by_frequency()[2]
        expected = [e.doc_id for e in ordinary.top_k(term, 5)]
        got = zsystem.query(term, k=5).doc_ids()
        # Scores may tie; compare the score sequences instead of ids.
        expected_scores = [e.rscore for e in ordinary.top_k(term, 5)]
        got_scores = [h.rscore for h in zsystem.query(term, k=5).hits]
        assert got_scores == pytest.approx(expected_scores)
        assert set(got) <= set(e.doc_id for e in ordinary.posting_list(term))

    def test_bandwidth_far_exceeds_k(self, zsystem):
        # The pathology Zerber+R fixes: TRes >> k for merged lists.
        term = zsystem.vocabulary.terms_by_frequency()[0]
        result = zsystem.query(term, k=10)
        assert result.trace.elements_transferred > 10

    def test_documents_are_numbered_per_group_and_every_element_is_42_bytes(
        self, zsystem, corpus
    ):
        """The indexer mints one number per document in its group's
        directory, in first-write order, so the plaintext is the fixed
        14-byte header whatever the doc id."""
        for group in corpus.groups():
            assert zsystem.key_service._directories[group].names == [
                doc.doc_id for doc in corpus.documents_in_group(group)
            ]
        assert {
            len(element.ciphertext)
            for list_id in range(zsystem.merge_plan.num_lists)
            for element in zsystem.server.download("superuser", list_id)
        } == {42}

    def test_unknown_term(self, zsystem):
        with pytest.raises(UnknownTermError):
            zsystem.query("no-such-term", k=1)

    def test_merge_plan_confidential(self, zsystem):
        probabilities = {
            t: zsystem.vocabulary.probability(t) for t in zsystem.vocabulary
        }
        zsystem.merge_plan.verify(probabilities)
