"""Tests for the deletion protocol (receipts, idempotency, ACL)."""

import pytest

from repro import SystemConfig, ZerberRSystem
from repro.core.protocol import Receipt
from repro.errors import AccessDeniedError
from repro.text.analysis import DocumentStats


@pytest.fixture()
def system(micro_corpus):
    # Function-scoped: deletion tests mutate the index.
    return ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=8))


def _new_doc(term_a="alpha-new", term_b="beta-new"):
    return DocumentStats.from_counts("fresh-doc", {term_a: 3, term_b: 1})


class TestDeletion:
    def test_insert_then_delete_roundtrip(self, system, micro_corpus):
        group = sorted(micro_corpus.groups())[0]
        client = system.client_for(f"owner:{group}")
        # Use existing corpus terms so the merge plan covers them.
        doc_id = micro_corpus.documents_in_group(group)[0].doc_id
        base = micro_corpus.stats(doc_id)
        terms = sorted(base.counts)[:2]
        doc = DocumentStats.from_counts("dup-doc", {t: 2 for t in terms})

        before = system.cluster.num_elements
        receipts = client.index_document_with_receipts(doc, group)
        assert system.cluster.num_elements == before + len(terms)

        removed = client.delete_document(receipts)
        assert removed == len(terms)
        assert system.cluster.num_elements == before

    def test_deleted_document_not_retrieved(self, system, micro_corpus):
        group = sorted(micro_corpus.groups())[0]
        client = system.client_for(f"owner:{group}")
        doc_id = micro_corpus.documents_in_group(group)[0].doc_id
        term = sorted(micro_corpus.stats(doc_id).counts)[0]
        doc = DocumentStats.from_counts("victim-doc", {term: 5})
        receipts = client.index_document_with_receipts(doc, group)

        df = system.vocabulary.document_frequency(term) + 1
        hits_before = client.query(term, k=df).doc_ids()
        assert "victim-doc" in hits_before

        client.delete_document(receipts)
        hits_after = client.query(term, k=df).doc_ids()
        assert "victim-doc" not in hits_after

    def test_deletion_idempotent(self, system, micro_corpus):
        group = sorted(micro_corpus.groups())[0]
        client = system.client_for(f"owner:{group}")
        doc_id = micro_corpus.documents_in_group(group)[0].doc_id
        term = sorted(micro_corpus.stats(doc_id).counts)[0]
        doc = DocumentStats.from_counts("once-doc", {term: 1})
        receipts = client.index_document_with_receipts(doc, group)
        assert client.delete_document(receipts) == 1
        assert client.delete_document(receipts) == 0

    def test_foreign_group_cannot_delete(self, system, micro_corpus):
        groups = sorted(micro_corpus.groups())
        assert len(groups) >= 2
        owner = system.client_for(f"owner:{groups[0]}")
        doc_id = micro_corpus.documents_in_group(groups[0])[0].doc_id
        term = sorted(micro_corpus.stats(doc_id).counts)[0]
        doc = DocumentStats.from_counts("guard-doc", {term: 1})
        receipts = owner.index_document_with_receipts(doc, groups[0])

        intruder = system.register_user("intruder", {groups[1]})
        with pytest.raises(AccessDeniedError):
            intruder.delete_document(receipts)

    def test_unknown_receipt_is_a_miss(self, system):
        client = system.client_for("superuser")
        assert client.delete_document([Receipt(0, b"no-such-ciphertext", 0.5)]) == 0

    def test_trs_order_maintained_after_deletion(self, system, micro_corpus):
        group = sorted(micro_corpus.groups())[0]
        client = system.client_for(f"owner:{group}")
        doc_id = micro_corpus.documents_in_group(group)[0].doc_id
        term = sorted(micro_corpus.stats(doc_id).counts)[0]
        doc = DocumentStats.from_counts("order-doc", {term: 4})
        receipts = client.index_document_with_receipts(doc, group)
        client.delete_document(receipts)
        list_id = system.merge_plan.list_of(term)
        trs = system.cluster.visible_trs_values(list_id)
        assert trs == sorted(trs, reverse=True)
