"""Unit tests for the Zerber (EDBT 2008) baseline."""

import numpy as np
import pytest

from repro.baselines.zerber import ZerberElement, ZerberServer, ZerberSystem
from repro.core.confidentiality import audit_merge_plan
from repro.crypto.keys import GroupKeyService
from repro.errors import AccessDeniedError, UnknownTermError
from repro.core.client import skim_matches
from repro.index.postings import SEALED_SIZE, EncryptedPostingElement
from tests.conftest import sealed


@pytest.fixture(scope="module")
def zsystem(corpus):
    return ZerberSystem.build(corpus, r=4.0, seed=9)


class TestServer:
    def _keys(self):
        svc = GroupKeyService(master_secret=b"k" * 32)
        svc.register("u", {"g"})
        return svc

    def test_an_element_carries_no_score(self):
        assert ZerberElement._fields == ("ciphertext", "group")

    def test_membership_enforced(self):
        server = ZerberServer(self._keys(), num_lists=1)
        with pytest.raises(AccessDeniedError):
            server.insert("u", 0, ZerberElement(sealed(b"c"), "other"))

    def test_random_placement(self):
        """Each insert lands at a uniformly drawn position of its list:
        insertion order does not survive, and the same seed places the
        same way."""

        def placed(seed):
            server = ZerberServer(
                self._keys(), num_lists=1, rng=np.random.default_rng(seed)
            )
            for i in range(64):
                server.insert("u", 0, ZerberElement(sealed(b"c%d" % i), "g"))
            return [e.ciphertext for e in server.download("u", 0)]

        inserted = [sealed(b"c%d" % i) for i in range(64)]
        order = placed(3)
        assert sorted(order) == sorted(inserted) and order != inserted
        assert placed(3) == order

    def test_download_filters_by_membership(self):
        keys = self._keys()
        keys.register("v", {"h"})
        keys.register("root", {"g", "h"})
        server = ZerberServer(keys, num_lists=1, rng=np.random.default_rng(4))
        server.insert("u", 0, ZerberElement(sealed(b"c1"), "g"))
        server.insert("v", 0, ZerberElement(sealed(b"c2"), "h"))
        assert len(server.download("u", 0)) == 1
        assert len(server.download("root", 0)) == 2


class TestSystem:
    def test_query_downloads_whole_readable_list(self, zsystem, corpus):
        term = zsystem.vocabulary.terms_by_frequency()[0]
        list_id = zsystem.merge_plan.list_of(term)
        result = zsystem.query(term, k=10)
        readable = zsystem.server.download("superuser", list_id)
        assert result.trace.elements_transferred == len(readable)
        assert result.trace.bits_transferred == len(readable) * 8 * SEALED_SIZE
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

    def test_documents_are_numbered_per_group_and_every_element_is_30_bytes(
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
        } == {SEALED_SIZE}

    def test_the_skim_reads_a_zerber_element_as_it_reads_a_zerber_r_one(
        self, zsystem
    ):
        """``skim_matches`` reads only ``ciphertext`` and ``group``, so one
        skim serves both systems' records."""
        term = zsystem.vocabulary.terms_by_frequency()[0]
        plan = zsystem.merge_plan
        list_id, number = plan.locate(term)
        elements = zsystem.server.download("superuser", list_id)
        ring = zsystem.key_service.keyring("superuser", plan)
        as_zerber_r = [
            EncryptedPostingElement(e.ciphertext, e.group, 0.5) for e in elements
        ]

        def skim(held):
            return skim_matches(held, term, number, plan.term_field, ring)

        zerber = [posting for posting, _ in skim(elements)]
        zerber_r = [posting for posting, _ in skim(as_zerber_r)]
        assert zerber == zerber_r and zerber

    def test_unknown_term(self, zsystem):
        with pytest.raises(UnknownTermError):
            zsystem.query("no-such-term", k=1)

    def test_merge_plan_confidential(self, zsystem):
        probabilities = {
            t: zsystem.vocabulary.probability(t) for t in zsystem.vocabulary
        }
        assert audit_merge_plan(zsystem.merge_plan, probabilities).is_confidential
