"""Tests for the synthetic query workload (Fig. 10 preconditions)."""

import pytest

from repro.corpus.querylog import Query, QueryLog, QueryLogConfig, QueryLogGenerator
from repro.text.vocabulary import Vocabulary


def _mean_terms_per_query(log):
    queries = list(log)
    return sum(len(query.terms) for query in queries) / len(queries)


def _head_share(log, fraction):
    """Share of the single-term workload the top *fraction* of terms carry."""
    freqs = sorted(log.term_frequencies().values(), reverse=True)
    return sum(freqs[: max(1, int(len(freqs) * fraction))]) / sum(freqs)


@pytest.fixture(scope="module")
def vocabulary(corpus):
    return Vocabulary.from_documents(corpus.all_stats())


@pytest.fixture(scope="module")
def log(vocabulary):
    config = QueryLogConfig(num_queries=3000, seed=3)
    return QueryLogGenerator(vocabulary, config).generate()


class TestQuery:
    def test_valid(self):
        assert Query(terms=("a", "b")).terms == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Query(terms=())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Query(terms=("a", "a"))


class TestQueryLog:
    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            QueryLog({Query(terms=("a",)): 0})

    def test_term_frequencies_flatten_multiterm(self):
        log = QueryLog({Query(terms=("a",)): 3, Query(terms=("a", "b")): 2})
        freqs = log.term_frequencies()
        assert freqs["a"] == 5
        assert freqs["b"] == 2

    def test_iteration_with_multiplicity(self):
        log = QueryLog({Query(terms=("a",)): 2})
        assert len(list(log)) == 2



class TestGenerator:
    def test_total_queries(self, log):
        assert len(list(log)) == 3000

    def test_mean_length_bounded(self, log):
        # Dedup of i.i.d. draws shortens queries; on the tiny test
        # vocabulary (a few hundred terms) head terms collide often, so
        # only sanity bounds hold here — the realistic-vocabulary check is
        # test_mean_length_near_target_realistic_vocabulary.
        assert 1.0 < _mean_terms_per_query(log) <= 2.4

    def test_mean_length_near_target_realistic_vocabulary(self):
        from repro.corpus.synthetic import studip_like

        corpus = studip_like(num_documents=200, vocabulary_size=4000, seed=19)
        vocabulary = Vocabulary.from_documents(corpus.all_stats())
        log = QueryLogGenerator(
            vocabulary, QueryLogConfig(num_queries=5000, seed=23)
        ).generate()
        assert _mean_terms_per_query(log) == pytest.approx(2.4, abs=0.3)

    def test_query_terms_come_from_vocabulary(self, log, vocabulary):
        assert set(log.term_frequencies()) <= set(iter(vocabulary))

    def test_head_dominates_workload(self, log):
        # The paper's Fig. 10 precondition: the most frequent few percent of
        # terms carry most of the workload.
        assert _head_share(log, 0.10) > 0.5

    def test_query_frequency_correlates_with_df(self, log, vocabulary):
        freqs = log.term_frequencies()
        queried = [t for t, c in freqs.items() if c > 0]
        # Spearman-lite: df of the top-queried decile vs. the bottom decile.
        ranked = sorted(queried, key=lambda t: -freqs[t])
        n = max(len(ranked) // 10, 1)
        top_df = sum(vocabulary.document_frequency(t) for t in ranked[:n]) / n
        bottom_df = sum(vocabulary.document_frequency(t) for t in ranked[-n:]) / n
        assert top_df > bottom_df

    def test_deterministic(self, vocabulary):
        config = QueryLogConfig(num_queries=200, seed=11)
        a = QueryLogGenerator(vocabulary, config).generate()
        b = QueryLogGenerator(vocabulary, config).generate()
        assert dict(a.items()) == dict(b.items())

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            QueryLogGenerator(Vocabulary())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QueryLogConfig(num_queries=0)
        with pytest.raises(ValueError):
            QueryLogConfig(mean_terms_per_query=0.5)
        with pytest.raises(ValueError):
            QueryLogConfig(demotion_factor=0.0)
