"""Tests for the synthetic corpus generator — including the distributional
shape claims the Fig. 4/5 substitution rests on."""

import numpy as np
import pytest

from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    odp_like,
    studip_like,
    tiny_corpus,
)
from repro.stats.distributions import fit_power_law
from repro.text.vocabulary import Vocabulary


class TestConfigValidation:
    def test_defaults_valid(self):
        SyntheticCorpusConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_documents": 0},
            {"vocabulary_size": 1},
            {"num_groups": 0},
            {"num_groups": 10_000},
            {"topic_vocabulary_size": 0},
            {"topic_weight": 1.0},
            {"min_doc_length": 0},
            {"max_doc_length": 5},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        base = dict(num_documents=50, vocabulary_size=100, min_doc_length=10)
        base.update(overrides)
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(**base)


class TestGeneration:
    @pytest.fixture(scope="class")
    def corpus(self):
        return tiny_corpus(seed=8)

    def test_document_count(self, corpus):
        assert len(corpus) == 60

    def test_deterministic(self):
        a = tiny_corpus(seed=5)
        b = tiny_corpus(seed=5)
        assert a.stats(a.doc_ids()[0]).counts == b.stats(b.doc_ids()[0]).counts

    def test_seed_changes_output(self):
        a = tiny_corpus(seed=5)
        b = tiny_corpus(seed=6)
        assert any(
            a.stats(i).counts != b.stats(i).counts
            for i in a.doc_ids()
            if i in b.doc_ids()
        )

    def test_lengths_within_bounds(self, corpus):
        for doc_id in corpus.doc_ids():
            assert 10 <= corpus.stats(doc_id).length <= 400

    def test_groups_assigned(self, corpus):
        assert corpus.groups() <= {f"group-{i:03d}" for i in range(4)}

    def test_counts_positive(self, corpus):
        for doc_id in corpus.doc_ids():
            assert all(c > 0 for c in corpus.stats(doc_id).counts.values())


class TestDistributionalShape:
    """What the synthetic collections must share with the paper's private
    ones: a Zipfian df head, power-law raw TF, frequent vs. rare terms."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return studip_like(num_documents=400, vocabulary_size=4000, seed=21)

    @pytest.fixture(scope="class")
    def vocabulary(self, corpus):
        return Vocabulary.from_documents(corpus.all_stats())

    def test_df_head_is_zipf_like(self, vocabulary):
        dfs = sorted(
            (vocabulary.document_frequency(t) for t in vocabulary), reverse=True
        )
        ranks = np.arange(1, min(len(dfs), 200) + 1, dtype=float)
        fit = fit_power_law(ranks, np.array(dfs[:200], dtype=float))
        assert fit.slope < -0.1  # decreasing
        assert fit.r_squared > 0.7  # roughly linear in log-log

    def test_raw_tf_power_law_for_frequent_term(self, corpus, vocabulary):
        term = vocabulary.terms_by_frequency()[0]
        tfs = [
            corpus.stats(d).tf(term)
            for d in corpus.doc_ids()
            if corpus.stats(d).tf(term) > 0
        ]
        values, counts = np.unique(tfs, return_counts=True)
        assert len(values) >= 5
        fit = fit_power_law(values.astype(float), counts.astype(float))
        assert fit.slope < -0.3  # heavy-tailed, decreasing in log-log

    def test_frequent_vs_rare_df_separation(self, vocabulary):
        ordered = vocabulary.terms_by_frequency()
        frequent_df = vocabulary.document_frequency(ordered[0])
        rare_df = vocabulary.document_frequency(ordered[-1])
        assert frequent_df > 20 * max(rare_df, 1)


class TestPresets:
    def test_studip_like_shape(self):
        corpus = studip_like(num_documents=100, vocabulary_size=1000, num_groups=5)
        assert len(corpus) == 100
        assert corpus.name == "studip"

    def test_odp_like_shape(self):
        corpus = odp_like(num_documents=100, vocabulary_size=1000, num_groups=10)
        assert len(corpus) == 100
        assert corpus.name == "odp"

    def test_odp_docs_longer_on_average(self):
        studip = studip_like(num_documents=150, vocabulary_size=1500, num_groups=5)
        odp = odp_like(num_documents=150, vocabulary_size=1500, num_groups=5)
        mean_studip = np.mean([studip.stats(d).length for d in studip.doc_ids()])
        mean_odp = np.mean([odp.stats(d).length for d in odp.doc_ids()])
        assert mean_odp > mean_studip
