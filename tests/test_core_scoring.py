"""Unit tests for relevance scoring (Eq. 4)."""

import pytest

from repro.core.scoring import extract_term_scores
from repro.text.analysis import DocumentStats


def _doc(doc_id, counts):
    return DocumentStats.from_counts(doc_id, counts)


class TestExtraction:
    def test_extract_term_scores(self):
        scores = extract_term_scores(
            [_doc("d1", {"a": 1, "b": 3}), _doc("d2", {"a": 2})]
        )
        assert scores["a"] == [pytest.approx(0.25), pytest.approx(1.0)]
        assert scores["b"] == [pytest.approx(0.75)]

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            extract_term_scores([DocumentStats(doc_id="e", counts={}, length=0)])
