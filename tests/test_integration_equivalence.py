"""Integration: Zerber+R retrieval equivalence with the ordinary index.

The paper's accuracy claim: because the RSTF is monotonic per term,
single-term top-k results from Zerber+R are *identical* to the ordinary
inverted index's (§4.2, §8).  Multi-term queries lose only the IDF factor
(§3.2's documented trade-off).
"""

import pytest

from repro.evalmetrics.retrieval import kendall_tau, overlap_at_k


def _score_sequence(hits):
    return [h.rscore for h in hits]


class TestSingleTermEquivalence:
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_topk_scores_identical_for_trained_terms(self, system, ordinary_index, k):
        # Compare the score sequences for a spread of *trained* terms
        # (terms unseen at training time get a random TRS — the paper's
        # rule — and carry no ordering guarantee; see test below).
        # Document-level ties may break differently, but scores match.
        terms = [
            t
            for t in ordinary_index.vocabulary.terms_by_frequency()
            if t in system.rstf_model
        ]
        probes = [terms[0], terms[len(terms) // 4], terms[len(terms) // 2]]
        for term in probes:
            expected = [e.rscore for e in ordinary_index.top_k(term, k)]
            got = _score_sequence(system.query(term, k=k).hits)
            assert got == pytest.approx(expected), term

    def test_unseen_term_complete_result_set(self, system, ordinary_index):
        # Unseen terms get per-element pseudo-random TRS: their relative
        # *order* is arbitrary (the paper's accepted trade-off for terms
        # "assumed to be rare"), but the returned *set* is complete and
        # exact once k covers the term's document frequency.
        unseen = [
            t
            for t in ordinary_index.vocabulary.terms_by_frequency()
            if t not in system.rstf_model
        ]
        assert unseen, "training fraction < 1 must leave some terms unseen"
        checked = 0
        for term in unseen:
            df = ordinary_index.vocabulary.document_frequency(term)
            expected = {e.doc_id for e in ordinary_index.top_k(term, df)}
            got = set(system.query(term, k=df).doc_ids())
            assert got == expected, term
            checked += 1
            if checked >= 5:
                break
        assert checked > 0

    def test_topk_docsets_identical_modulo_ties(self, system, ordinary_index):
        term = ordinary_index.vocabulary.terms_by_frequency()[10]
        k = 10
        expected = ordinary_index.top_k(term, k)
        got = system.query(term, k=k).doc_ids()
        # Build the tie-closure of the expected set: any doc whose score
        # equals the k-th score is admissible.
        full = ordinary_index.posting_list(term)
        if len(expected) < k or len(full) <= k:
            admissible = {e.doc_id for e in full}
        else:
            threshold = expected[-1].rscore
            admissible = {e.doc_id for e in full if e.rscore >= threshold - 1e-12}
        assert set(got) <= admissible

    def test_every_df1_term_found(self, system, ordinary_index, rare_term):
        result = system.query(rare_term, k=1)
        assert len(result.hits) == 1
        expected = ordinary_index.top_k(rare_term, 1)[0]
        assert result.hits[0].doc_id == expected.doc_id


class TestMultiTermAccuracy:
    def test_overlap_with_tfidf_reasonable(self, system, ordinary_index):
        # §3.2: dropping IDF "slightly decreases" multi-term accuracy.
        terms = ordinary_index.vocabulary.terms_by_frequency()
        query = [terms[3], terms[30]]
        expected = [d for d, _ in ordinary_index.top_k_multi(query, 10)]
        client = system.client_for("superuser")
        got = client.query_multi_batched(query, 10).ranked
        got_ids = [d for d, _ in got]
        assert overlap_at_k(got_ids, expected, 10) >= 0.3

    def test_single_term_multi_query_degenerates_to_query(self, system, medium_term):
        client = system.client_for("superuser")
        result = client.query_multi_batched([medium_term], 5)
        single = system.query(medium_term, k=5)
        assert [d for d, _ in result.ranked] == single.doc_ids()
        assert len(result.traces) == 1


class TestZerberComparison:
    def test_zerber_r_ships_less_than_zerber(self, corpus):
        """The headline improvement: server-side top-k cuts bandwidth."""
        from repro.baselines.zerber import ZerberSystem
        from repro import SystemConfig, ZerberRSystem

        zerber = ZerberSystem.build(corpus, r=4.0, seed=13)
        zerber_r = ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=13))
        terms = zerber_r.vocabulary.terms_by_frequency()[:10]
        total_zerber = 0
        total_zerber_r = 0
        for term in terms:
            total_zerber += zerber.query(term, 10).trace.elements_transferred
            total_zerber_r += zerber_r.query(term, 10).trace.elements_transferred
        assert total_zerber_r < total_zerber

    def test_same_results_both_systems(self, corpus):
        from repro.baselines.zerber import ZerberSystem
        from repro import SystemConfig, ZerberRSystem

        zerber = ZerberSystem.build(corpus, r=4.0, seed=13)
        zerber_r = ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=13))
        term = zerber_r.vocabulary.terms_by_frequency()[5]
        scores_a = [h.rscore for h in zerber.query(term, 5).hits]
        scores_b = [h.rscore for h in zerber_r.query(term, 5).hits]
        assert scores_a == pytest.approx(scores_b)


class TestRankCorrelation:
    def test_full_ranking_tau_is_one(self, system, ordinary_index):
        term = ordinary_index.vocabulary.terms_by_frequency()[5]
        df = ordinary_index.vocabulary.document_frequency(term)
        expected = [e.doc_id for e in ordinary_index.top_k(term, df)]
        got = system.query(term, k=df).doc_ids()
        # Scores tie across docs; tau over the common order of *scores*
        # cannot be computed directly on ids, so check score sequences and
        # subset identity instead, then tau on the distinct-score prefix.
        distinct_prefix = []
        seen = set()
        for e in ordinary_index.top_k(term, df):
            if e.rscore not in seen:
                seen.add(e.rscore)
                distinct_prefix.append(e.doc_id)
        if len(distinct_prefix) >= 2:
            assert kendall_tau(got, expected) >= 0.9
