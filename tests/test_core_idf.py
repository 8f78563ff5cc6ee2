"""Tests for the bucketed-IDF extension (the paper's future work)."""


import numpy as np
import pytest

from repro.core.idf import BucketedIdf, aggregate_with_idf
from repro.errors import ConfigurationError, TrainingError
from repro.text.analysis import DocumentStats


def _docs():
    """A corpus where IDF matters: 'common' in every doc, 'rare' in one."""
    docs = []
    for i in range(20):
        counts = {"common": 2, f"filler{i}": 3}
        if i == 0:
            counts["rare"] = 2
        if i < 10:
            counts["mid"] = 1
        docs.append(DocumentStats.from_counts(f"d{i}", counts))
    return docs


class TestTraining:
    def test_buckets_ordered_by_selectivity(self):
        idf = BucketedIdf.train(_docs(), num_buckets=4)
        assert idf.bucket("common") < idf.bucket("rare")
        assert idf.bucket("common") <= idf.bucket("mid") <= idf.bucket("rare")

    def test_weights_increase_with_bucket(self):
        idf = BucketedIdf.train(_docs(), num_buckets=4)
        weights = [idf.weight("common"), idf.weight("mid"), idf.weight("rare")]
        assert weights == sorted(weights)

    def test_single_bucket_publishes_nothing(self):
        idf = BucketedIdf.train(_docs(), num_buckets=1)
        assert idf.bucket("common") == idf.bucket("rare") == 0

    def test_unseen_terms_get_top_bucket(self):
        idf = BucketedIdf.train(_docs(), num_buckets=4)
        assert idf.bucket("never-seen") == 3

    def test_noise_perturbs_but_stays_valid(self):
        rng = np.random.default_rng(5)
        idf = BucketedIdf.train(_docs(), num_buckets=4, noise_scale=2.0, rng=rng)
        for term in ("common", "mid", "rare"):
            assert 0 <= idf.bucket(term) < 4
            assert np.isfinite(idf.weight(term))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BucketedIdf.train(_docs(), num_buckets=0)
        with pytest.raises(ConfigurationError):
            BucketedIdf.train(_docs(), noise_scale=-1.0)
        with pytest.raises(TrainingError):
            BucketedIdf.train([], num_buckets=2)
        with pytest.raises(ConfigurationError):
            BucketedIdf(buckets={"t": 5}, weights={0: 1.0}, num_buckets=2)


class _Hit:
    def __init__(self, doc_id, rscore):
        self.doc_id = doc_id
        self.rscore = rscore


class TestAggregation:
    def test_plain_sum_without_idf(self):
        ranked = aggregate_with_idf(
            {"a": [_Hit("d1", 0.5)], "b": [_Hit("d1", 0.2), _Hit("d2", 0.6)]},
            idf=None,
        )
        assert ranked[0] == ("d1", pytest.approx(0.7))

    def test_idf_weighting_prefers_selective_terms(self):
        idf = BucketedIdf.train(_docs(), num_buckets=4)
        # d1 matches the selective term, d2 the common one, equal rscores.
        per_term = {
            "rare": [_Hit("d1", 0.4)],
            "common": [_Hit("d2", 0.4)],
        }
        with_idf = aggregate_with_idf(per_term, idf=idf)
        assert with_idf[0][0] == "d1"
        without = aggregate_with_idf(per_term, idf=None)
        assert without[0][1] == pytest.approx(without[1][1])  # tie without IDF

    def test_bucketed_tracks_exact_tfidf_ranking(self):
        # On the synthetic corpus, 4-bucket IDF must reproduce the exact
        # TFxIDF winner for a common+selective query.
        docs = _docs()
        idf = BucketedIdf.train(docs, num_buckets=4)
        per_term = {
            "mid": [_Hit("d0", 0.3), _Hit("d5", 0.3)],
            "rare": [_Hit("d0", 0.3)],
        }
        ranked = aggregate_with_idf(per_term, idf=idf)
        assert ranked[0][0] == "d0"
