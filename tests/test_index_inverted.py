"""Unit tests for the ordinary inverted index baseline."""

import pytest

from repro.errors import UnknownTermError
from repro.index.inverted import OrdinaryInvertedIndex
from repro.text.analysis import DocumentStats


def _doc(doc_id, counts):
    return DocumentStats.from_counts(doc_id, counts)


@pytest.fixture()
def index():
    return OrdinaryInvertedIndex.from_documents(
        [
            _doc("d1", {"apple": 4, "pear": 1}),  # apple rscore 0.8
            _doc("d2", {"apple": 1, "pear": 4}),  # apple rscore 0.2
            _doc("d3", {"apple": 2, "plum": 2}),  # apple rscore 0.5
        ]
    )


class TestConstruction:
    def test_counts(self, index):
        assert index.num_documents == 3
        assert index.vocabulary.num_terms == 3
        assert index.num_posting_elements == 6

    def test_duplicate_doc_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_document(_doc("d1", {"x": 1}))

    def test_empty_doc_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_document(DocumentStats(doc_id="e", counts={}, length=0))

    def test_document_frequency(self, index):
        assert index.vocabulary.document_frequency("apple") == 3
        assert index.vocabulary.document_frequency("plum") == 1


class TestSingleTermTopK:
    def test_order_by_normalized_tf(self, index):
        top = index.top_k("apple", 3)
        assert [e.doc_id for e in top] == ["d1", "d3", "d2"]

    def test_k_truncates(self, index):
        assert len(index.top_k("apple", 2)) == 2

    def test_unknown_term_raises(self, index):
        with pytest.raises(UnknownTermError):
            index.top_k("zzz", 1)

    def test_posting_list_descending(self, index):
        scores = [element.rscore for element in index.posting_list("apple")]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == pytest.approx(0.8)


class TestMultiTermTopK:
    def test_idf_weighting_prefers_selective_terms(self, index):
        # 'plum' appears only in d3; despite equal normalized TF, idf boosts it.
        results = index.top_k_multi(["apple", "plum"], 3)
        assert results[0][0] == "d3"

    def test_unknown_terms_ignored(self, index):
        results = index.top_k_multi(["apple", "zzz"], 2)
        assert len(results) == 2

    def test_deterministic_tie_break(self, index):
        results = index.top_k_multi(["pear"], 3)
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_zero(self, index):
        assert index.top_k_multi(["apple"], 0) == []

    def test_negative_k_rejected(self, index):
        with pytest.raises(ValueError):
            index.top_k_multi(["apple"], -1)


class TestStorage:
    def test_score_slots_equal_elements(self, index):
        assert index.storage_score_slots() == index.num_posting_elements
