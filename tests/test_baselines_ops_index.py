"""Unit tests for the order-preserving mapping baseline ([21])."""

import pytest

from repro.baselines.ops_index import OrderPreservingIndex
from repro.errors import UnknownTermError
from repro.stats.uniformness import uniformness_variance
from repro.text.analysis import DocumentStats


@pytest.fixture(scope="module")
def index(corpus):
    return OrderPreservingIndex.build(corpus)


def _mapped(index, term):
    """The (mapped score, doc id) list the server holds for *term*."""
    return index._lists[term]


class TestOrderPreservation:
    def test_topk_matches_ordinary(self, index, corpus, medium_term, ordinary_index):
        expected_scores = [
            e.rscore for e in ordinary_index.top_k(medium_term, 5)
        ]
        got_ids = [doc_id for _, doc_id in _mapped(index, medium_term)[:5]]
        got_scores = [
            corpus.stats(d).rscore(medium_term) for d in got_ids
        ]
        assert got_scores == pytest.approx(expected_scores)

    def test_mapped_scores_descending(self, index, medium_term):
        scores = [score for score, _ in _mapped(index, medium_term)]
        assert scores == sorted(scores, reverse=True)

    def test_mapped_scores_near_uniform(self, index, corpus, frequent_term):
        # The OPS property: per-term scores uniformised over (0, 1).
        scores = [score for score, _ in _mapped(index, frequent_term)]
        if len(scores) >= 20:
            assert uniformness_variance(scores) < 0.02


class TestLeakage:
    def test_df_fully_visible(self, index, corpus, medium_term):
        true_df = len(
            [d for d in corpus.doc_ids() if corpus.stats(d).tf(medium_term) > 0]
        )
        # The paper's critique: no merging, so df is exposed exactly.
        assert index.visible_document_frequency(medium_term) == true_df


class TestInserts:
    def test_in_range_insert_no_rebuild(self, corpus):
        index = OrderPreservingIndex.build(corpus)
        # Construct a doc whose scores sit strictly inside each term's range.
        term = None
        for candidate in index._support:
            support = index._support[candidate]
            if len(support) >= 3 and support[0] < support[len(support) // 2] < support[-1]:
                term = candidate
                break
        assert term is not None
        mid_score = index._support[term][len(index._support[term]) // 2]
        tf = 1
        length = max(int(round(1 / mid_score)), 2)
        doc = DocumentStats.from_counts("new-doc", {term: tf, "\0filler\0": length - tf})
        before = index.rebuilds
        index.insert(doc)
        # The known term needed no rebuild; the never-seen filler term did.
        assert index.rebuilds == before + 1

    def test_out_of_range_insert_rebuilds(self, corpus):
        index = OrderPreservingIndex.build(corpus)
        term = next(iter(index._support))
        doc = DocumentStats.from_counts("d-new", {term: 1})  # score 1.0, out of range
        before = index.rebuilds
        rebuilt = index.insert(doc)
        assert rebuilt >= 1
        assert index.rebuilds > before

    def test_insert_preserves_order(self, corpus, medium_term):
        index = OrderPreservingIndex.build(corpus)
        doc = DocumentStats.from_counts("d-ins", {medium_term: 1, "xfill": 3})
        index.insert(doc)
        scores = [score for score, _ in _mapped(index, medium_term)]
        assert scores == sorted(scores, reverse=True)
        assert "d-ins" in [doc_id for _, doc_id in _mapped(index, medium_term)]


class TestErrors:
    def test_unknown_term(self, index):
        with pytest.raises(UnknownTermError):
            index.visible_document_frequency("no-such-term")
