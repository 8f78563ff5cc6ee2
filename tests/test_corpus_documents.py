"""Unit tests for the document/corpus model."""

import numpy as np
import pytest

from repro.corpus.documents import Corpus, Document


class TestDocument:
    def test_text_document_stats(self):
        doc = Document(doc_id="d1", text="alpha beta alpha")
        stats = doc.stats()
        assert stats.tf("alpha") == 2
        assert stats.length == 3

    def test_counts_document_stats(self):
        doc = Document(doc_id="d1", counts={"a": 2})
        assert doc.stats().length == 2

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            Document(doc_id="d1")
        with pytest.raises(ValueError):
            Document(doc_id="d1", text="x", counts={"x": 1})

    def test_default_group(self):
        assert Document(doc_id="d1", text="x").group == "public"


class TestCorpus:
    def _corpus(self):
        return Corpus(
            [
                Document(doc_id="a", group="g1", counts={"x": 1}),
                Document(doc_id="b", group="g1", counts={"y": 2}),
                Document(doc_id="c", group="g2", counts={"x": 3}),
            ]
        )

    def test_len_and_iteration(self):
        corpus = self._corpus()
        assert len(corpus) == 3
        assert [d.doc_id for d in corpus] == ["a", "b", "c"]

    def test_membership_is_a_type_error_not_false(self):
        with pytest.raises(TypeError):
            "a" in self._corpus()

    def test_duplicate_id_rejected(self):
        corpus = self._corpus()
        with pytest.raises(ValueError):
            corpus.add(Document(doc_id="a", counts={"z": 1}))

    def test_lookup(self):
        corpus = self._corpus()
        assert corpus.document("b").group == "g1"
        with pytest.raises(KeyError):
            corpus.document("zzz")

    def test_stats_cached(self):
        corpus = self._corpus()
        assert corpus.stats("a") is corpus.stats("a")

    def test_groups(self):
        assert self._corpus().groups() == {"g1", "g2"}

    def test_documents_in_group(self):
        corpus = self._corpus()
        assert [d.doc_id for d in corpus.documents_in_group("g1")] == ["a", "b"]

    def test_sample_size(self):
        corpus = self._corpus()
        sample = corpus.sample(0.67, np.random.default_rng(1))
        assert len(sample) == 2

    def test_sample_minimum_one(self):
        corpus = self._corpus()
        assert len(corpus.sample(0.01, np.random.default_rng(1))) == 1

    def test_sample_invalid_fraction(self):
        with pytest.raises(ValueError):
            self._corpus().sample(0.0, np.random.default_rng(1))

    def test_all_stats_order(self):
        corpus = self._corpus()
        assert [s.doc_id for s in corpus.all_stats()] == ["a", "b", "c"]
