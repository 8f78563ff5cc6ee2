"""Unit tests for RSTF construction and the published model (Eq. 5–8)."""

import numpy as np
import pytest

from repro.core.rstf import Rstf, RstfModel, RstfTrainer, TrainerConfig, train_rstf
from repro.corpus import studip_like, tiny_corpus
from repro.crypto.keys import GroupKeyService
from repro.errors import TrainingError
from repro.stats.uniformness import uniformness_variance
from repro.text.analysis import DocumentStats


class TestRstf:
    SCORES = [0.05, 0.1, 0.1, 0.2, 0.35, 0.5]

    def test_requires_training_scores(self):
        with pytest.raises(TrainingError):
            Rstf(mus=(), sigma=10.0)

    def test_requires_positive_sigma(self):
        with pytest.raises(TrainingError):
            Rstf(mus=(0.1,), sigma=0.0)

    def test_rejects_negative_scores(self):
        with pytest.raises(TrainingError):
            Rstf(mus=(-0.1,), sigma=1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(TrainingError):
            Rstf(mus=(0.1,), sigma=1.0, kind="spline")

    def test_from_scores_sorts(self):
        rstf = Rstf.from_scores([0.3, 0.1, 0.2], sigma=5.0)
        assert rstf.mus == (0.1, 0.2, 0.3)

    def test_output_in_unit_interval(self):
        rstf = train_rstf(self.SCORES, sigma=50.0)
        values = rstf.transform(np.linspace(0, 1, 50))
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)

    def test_strictly_monotonic(self):
        # Property 3 of §4.2: order preservation.
        rstf = train_rstf(self.SCORES, sigma=80.0)
        x = np.linspace(0.0, 0.8, 200)
        values = rstf.transform(x)
        assert np.all(np.diff(values) > 0)

    def test_erf_kind_also_monotonic(self):
        # Strict monotonicity holds until float64 saturation; test the
        # region around the training scores (non-decreasing everywhere).
        rstf = train_rstf(self.SCORES, sigma=80.0, kind="erf")
        x = np.linspace(0.0, 0.8, 100)
        values = rstf.transform(x)
        assert np.all(np.diff(values) >= 0)
        interior = x <= 0.55
        assert np.all(np.diff(values[interior]) > 0)

    def test_scalar_transform_returns_float(self):
        rstf = train_rstf(self.SCORES, sigma=50.0)
        assert isinstance(rstf.transform(0.2), float)

    def test_midpoint_at_half_for_single_score(self):
        rstf = train_rstf([0.3], sigma=40.0)
        assert rstf.transform(0.3) == pytest.approx(0.5)

    def test_uniformising_effect(self):
        # Transforming the training distribution itself through a fitted
        # RSTF must be much closer to uniform than the raw scores scaled
        # to [0,1].
        rng = np.random.default_rng(4)
        scores = rng.beta(2, 8, size=400)  # skewed like normalized TF
        rstf = train_rstf(scores, sigma=len(scores) / (scores.max() - scores.min()))
        raw_scaled = (scores - scores.min()) / (scores.max() - scores.min())
        transformed = rstf.transform(scores)
        assert uniformness_variance(transformed) < uniformness_variance(raw_scaled) / 5


class TestRstfModel:
    def _model(self):
        return RstfModel(
            {
                "seen": train_rstf([0.1, 0.2, 0.4], sigma=30.0),
            }
        )

    def test_get_known(self):
        assert self._model().get("seen") is not None

    def test_get_unknown_is_none(self):
        assert self._model().get("unseen") is None

    def test_contains(self):
        model = self._model()
        assert "seen" in model
        assert "unseen" not in model

    def test_transform_known_term(self):
        model = self._model()
        assert 0.0 < model.transform("seen", 0.2) < 1.0

    def test_transform_unseen_requires_callback(self):
        with pytest.raises(TrainingError):
            self._model().transform("unseen", 0.2)

    def test_transform_unseen_uses_callback(self):
        value = self._model().transform("unseen", 0.2, unseen_trs=lambda t: 0.77)
        assert value == 0.77

    def test_unseen_callback_range_validated(self):
        with pytest.raises(TrainingError):
            self._model().transform("unseen", 0.2, unseen_trs=lambda t: 1.5)


class TestTransformMany:
    """The batch refines the loop: ``transform_many`` is ``transform`` pair
    by pair, bit for bit — the benchmarks' plaintext model thresholds on
    the scalar value, so "close" is not enough."""

    @staticmethod
    def _pairs(doc):
        terms = sorted(doc.counts)
        return terms, [doc.tf(term) / doc.length for term in terms]

    @staticmethod
    def _prf():
        keys = GroupKeyService(master_secret=b"t" * 32)
        keys.register("u", {"g"})
        return keys.unseen_term_prf("u", "g")

    @pytest.mark.parametrize("kind", ["logistic", "erf"])
    @pytest.mark.parametrize(
        "make_corpus", [lambda: studip_like(60, 800), tiny_corpus]
    )
    def test_equals_the_scalar_loop_over_a_corpus(self, make_corpus, kind):
        docs = make_corpus().all_stats()
        # Trained on a third of the documents: the rest bring unseen terms.
        model = RstfTrainer(
            TrainerConfig(kind=kind, sigma_strategy="heuristic")
        ).train_from_documents(docs[::3])
        prf = self._prf()
        seen = unseen = 0
        for doc in docs:
            terms, scores = self._pairs(doc)

            def unseen_trs(term, doc_id=doc.doc_id):
                return prf.evaluate_unit(f"{term}\x00{doc_id}".encode())

            expected = [
                model.transform(term, score, unseen_trs)
                for term, score in zip(terms, scores)
            ]
            got = model.transform_many(terms, scores, unseen_trs)
            assert [value.hex() for value in got] == [
                value.hex() for value in expected
            ]
            assert all(type(value) is float for value in got)
            seen += sum(term in model for term in terms)
            unseen += sum(term not in model for term in terms)
        assert seen > 1000 and unseen > 100

    def test_one_term_and_empty_documents(self):
        model = RstfModel({"seen": train_rstf([0.1, 0.2, 0.4], sigma=30.0)})
        assert model.transform_many([], []) == []
        assert model.transform_many(["seen"], [0.3]) == [model.transform("seen", 0.3)]
        assert model.transform_many(["new"], [0.3], lambda term: 0.25) == [0.25]

    def test_unseen_terms_keep_the_scalar_checks(self):
        model = RstfModel({"seen": train_rstf([0.1, 0.2, 0.4], sigma=30.0)})
        with pytest.raises(TrainingError):
            model.transform_many(["seen", "new"], [0.2, 0.2])
        with pytest.raises(TrainingError):
            model.transform_many(["seen", "new"], [0.2, 0.2], lambda term: 1.5)
        with pytest.raises(ValueError):
            model.transform_many(["seen"], [0.2, 0.3])

    def test_cached_array_is_not_part_of_the_value(self):
        a = Rstf(mus=(0.1, 0.2), sigma=5.0)
        b = Rstf(mus=(0.1, 0.2), sigma=5.0)
        assert a == b and hash(a) == hash(b) and "mus_array" not in repr(a)
        assert a.mus_array.tolist() == [0.1, 0.2]


class TestTrainer:
    def _docs(self, rng, n=40):
        docs = []
        for i in range(n):
            total = int(rng.integers(20, 60))
            a = int(rng.integers(1, 10))
            b = int(rng.integers(1, 5))
            docs.append(
                DocumentStats.from_counts(
                    f"d{i}", {"alpha": a, "beta": b, "filler": max(total - a - b, 1)}
                )
            )
        return docs

    def test_trains_all_seen_terms(self):
        rng = np.random.default_rng(1)
        model = RstfTrainer(TrainerConfig(sigma_strategy="heuristic")).train_from_documents(
            self._docs(rng)
        )
        assert model.terms() == {"alpha", "beta", "filler"}

    def test_cv_strategy_runs(self):
        rng = np.random.default_rng(2)
        config = TrainerConfig(
            sigma_strategy="cv", sigma_grid=(5.0, 50.0, 500.0), seed=3
        )
        model = RstfTrainer(config).train_from_documents(self._docs(rng))
        assert model.num_terms == 3

    def test_fixed_strategy_uses_given_sigma(self):
        rng = np.random.default_rng(3)
        config = TrainerConfig(sigma_strategy="fixed", fixed_sigma=123.0)
        model = RstfTrainer(config).train_from_documents(self._docs(rng))
        assert model.get("alpha").sigma == 123.0

    def test_few_scores_fall_back_to_heuristic(self):
        config = TrainerConfig(sigma_strategy="cv", min_cv_scores=100)
        model = RstfTrainer(config).train_from_scores({"t": [0.1, 0.2, 0.3]})
        assert model.get("t") is not None

    def test_empty_training_rejected(self):
        with pytest.raises(TrainingError):
            RstfTrainer().train_from_scores({})

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainerConfig(sigma_strategy="magic")
        with pytest.raises(TrainingError):
            TrainerConfig(fixed_sigma=-1.0)
        with pytest.raises(TrainingError):
            TrainerConfig(min_cv_scores=2)

    def test_deterministic(self):
        scores = {"t": [0.1, 0.15, 0.2, 0.3, 0.35, 0.4, 0.5, 0.6]}
        config = TrainerConfig(sigma_strategy="cv", sigma_grid=(10.0, 100.0), seed=9)
        a = RstfTrainer(config).train_from_scores(scores)
        b = RstfTrainer(config).train_from_scores(scores)
        assert a.get("t").sigma == b.get("t").sigma
