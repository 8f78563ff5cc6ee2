"""Unit tests for the μ-Serv probabilistic-index baseline."""

import pytest

from repro.baselines.mu_serv import MuServConfig, MuServIndex
from repro.errors import ConfigurationError, UnknownTermError


@pytest.fixture(scope="module")
def index(corpus):
    return MuServIndex.build(corpus, MuServConfig(false_positive_rate=1.0, seed=2))


class TestConfig:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            MuServConfig(false_positive_rate=-0.1)


class TestFalsePositives:
    def test_true_matches_always_included(self, index, corpus, medium_term):
        outcome = index.query(medium_term)
        assert set(outcome.true_matches) <= set(outcome.doc_ids)

    def test_visible_df_inflated(self, index, corpus, medium_term):
        true_df = len(
            [d for d in corpus.doc_ids() if corpus.stats(d).tf(medium_term) > 0]
        )
        assert len(index.visible_posting_set(medium_term)) >= true_df

    def test_precision_below_one_for_padded_terms(self, index, medium_term):
        outcome = index.query(medium_term)
        if len(outcome.doc_ids) > len(outcome.true_matches):
            assert outcome.precision < 1.0

    def test_zero_rate_is_exact(self, corpus, medium_term):
        exact = MuServIndex.build(corpus, MuServConfig(false_positive_rate=0.0))
        outcome = exact.query(medium_term)
        assert outcome.precision == pytest.approx(1.0)

    def test_higher_rate_lower_precision(self, corpus, medium_term):
        low = MuServIndex.build(corpus, MuServConfig(false_positive_rate=0.5, seed=1))
        high = MuServIndex.build(corpus, MuServConfig(false_positive_rate=3.0, seed=1))
        assert (
            high.query(medium_term).precision <= low.query(medium_term).precision
        )


class TestQuerying:
    def test_unknown_term(self, index):
        with pytest.raises(UnknownTermError):
            index.query("no-such-term")

    def test_no_ranking_cost_is_the_padded_set(self, index, medium_term):
        """No ranking: a query ships the whole padded set, whatever k."""
        outcome = index.query(medium_term)
        assert outcome.elements_transferred == len(index.visible_posting_set(medium_term))

    def test_transferred_matches_result_size(self, index, medium_term):
        outcome = index.query(medium_term)
        assert outcome.elements_transferred == len(outcome.doc_ids)
