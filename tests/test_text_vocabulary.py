"""Unit tests for the corpus vocabulary (df and p_t)."""

import pytest

from repro.errors import UnknownTermError
from repro.text.analysis import DocumentStats
from repro.text.vocabulary import Vocabulary


def _doc(doc_id, counts):
    return DocumentStats.from_counts(doc_id, counts)


@pytest.fixture()
def vocab():
    return Vocabulary.from_documents(
        [
            _doc("d1", {"a": 2, "b": 1}),
            _doc("d2", {"a": 1, "c": 3}),
            _doc("d3", {"a": 1}),
        ]
    )


class TestVocabulary:
    def test_document_counting(self, vocab):
        assert vocab.num_documents == 3

    def test_distinct_terms(self, vocab):
        assert vocab.num_terms == 3

    def test_document_frequency(self, vocab):
        assert vocab.document_frequency("a") == 3
        assert vocab.document_frequency("b") == 1

    def test_document_frequency_unseen_is_zero(self, vocab):
        assert vocab.document_frequency("zzz") == 0

    def test_probability_is_normalized_df(self, vocab):
        assert vocab.probability("a") == pytest.approx(1.0)
        assert vocab.probability("b") == pytest.approx(1 / 3)

    def test_probability_unseen_raises(self, vocab):
        with pytest.raises(UnknownTermError):
            vocab.probability("zzz")

    def test_probability_on_empty_vocab_raises(self):
        with pytest.raises(UnknownTermError):
            Vocabulary().probability("a")

    def test_terms_by_frequency_descending(self, vocab):
        ordered = vocab.terms_by_frequency()
        assert ordered[0] == "a"
        assert set(ordered) == {"a", "b", "c"}

    def test_terms_by_frequency_tie_break_lexicographic(self, vocab):
        ordered = vocab.terms_by_frequency()
        assert ordered[1:] == ["b", "c"]  # both df=1

    def test_terms_by_frequency_ascending(self, vocab):
        ordered = vocab.terms_by_frequency(descending=False)
        assert ordered[-1] == "a"

    def test_incremental_add(self, vocab):
        vocab2 = Vocabulary()
        vocab2.add_document(_doc("x", {"q": 1}))
        assert vocab2.document_frequency("q") == 1
        assert vocab2.num_documents == 1

    def test_mapping_protocol(self, vocab):
        assert "a" in vocab
        assert "zzz" not in vocab
        assert set(iter(vocab)) == {"a", "b", "c"}
