"""Integration: the §6.2 security argument on a real (synthetic) deployment.

Runs the two threat-model attacks against an assembled system and checks
that the defences hold end-to-end: TRS values look uniform per list,
the score-distribution attack collapses, and BFM keeps follow-up counts
aligned within merged lists.
"""

from collections import Counter

import numpy as np
import pytest

from repro import SystemConfig, ZerberRSystem
from repro.attacks.background import BackgroundKnowledge
from repro.attacks.query_observation import QueryObservationAttack, extract_sessions
from repro.attacks.score_distribution import chance_attribution_level
from repro.core.client import ZerberRClient
from repro.core.protocol import ResponsePolicy
from repro.core.rstf import RstfModel
from repro.core.cluster import ServerCluster
from repro.crypto.cipher import NONCE_SIZE, TAG_SIZE
from repro.crypto.keys import GroupKeyService
from repro.index.merge import MergePlan
from repro.index.postings import HEADER_SIZE
from repro.stats.uniformness import ks_distance_to_uniform
from repro.text.analysis import DocumentStats


class TestServerVisibleState:
    def test_trs_near_uniform_per_populated_list(self, system):
        """Every reasonably large merged list's TRS sample must look uniform."""
        distances = []
        for list_id in range(system.merge_plan.num_lists):
            trs = system.cluster.visible_trs_values(list_id)
            if len(trs) >= 40:
                distances.append(ks_distance_to_uniform(trs))
        assert distances, "test corpus produced no large merged lists"
        # KS noise floor for n≈40-60 uniform samples is ~0.2; require the
        # median to sit at that floor rather than show structure.
        assert float(np.median(distances)) < 0.25

    def test_trs_sorted_descending_per_list(self, system):
        for list_id in range(min(system.merge_plan.num_lists, 50)):
            trs = system.cluster.visible_trs_values(list_id)
            assert trs == sorted(trs, reverse=True)

    def test_ciphertexts_unique(self, system):
        seen = set()
        for list_id in range(system.merge_plan.num_lists):
            for trs_element in system.cluster.server(0).export_list(list_id):
                assert trs_element.ciphertext not in seen
                seen.add(trs_element.ciphertext)


class TestQueryObservationDefence:
    def test_bfm_lists_leak_little(self, system):
        dfs = {t: system.vocabulary.document_frequency(t) for t in system.vocabulary}
        attack = QueryObservationAttack(dfs)
        policy = ResponsePolicy(initial_size=10)
        leaks = []
        for group in system.merge_plan.groups:
            if len(group) >= 2:
                leaks.append(attack.list_leakage(list(group), 10, policy))
        assert leaks
        # BFM keeps frequencies similar within lists; the doubling protocol
        # absorbs residual spread — most lists must leak at most 1 class.
        assert float(np.mean([l <= 1 for l in leaks])) > 0.8

    def test_greedy_merge_leaks_more(self, corpus):
        """Ablation: head+tail merging makes request counts informative."""
        bfm = ZerberRSystem.build(
            corpus, SystemConfig(r=3.0, merge_scheme="bfm", seed=2)
        )
        greedy = ZerberRSystem.build(
            corpus, SystemConfig(r=3.0, merge_scheme="greedy", seed=2)
        )
        policy = ResponsePolicy(initial_size=10)

        def max_leak(sys_):
            dfs = {t: sys_.vocabulary.document_frequency(t) for t in sys_.vocabulary}
            attack = QueryObservationAttack(dfs)
            return max(
                attack.list_leakage(list(g), 10, policy)
                for g in sys_.merge_plan.groups
                if len(g) >= 2
            )

        assert max_leak(greedy) > max_leak(bfm)

    def test_sessions_reconstructable_from_server_log(self, system, medium_term):
        server = system.cluster.server(0)
        server.clear_observations()
        system.query(medium_term, k=5)
        sessions = extract_sessions(server.observations)
        assert len(sessions) == 1
        assert sessions[0].list_id == system.merge_plan.list_of(medium_term)
        server.clear_observations()


class TestScoreDistributionDefence:
    def test_trs_values_carry_no_term_signal(self, system, corpus):
        """Group server-visible TRS by true term; all must look alike.

        The adversary's best feature was score range/shape per term —
        after the RSTF, per-term TRS samples are all ~Uniform[0,1], so the
        max KS distance between any term's TRS and uniform stays small.
        """
        from repro.core.scoring import extract_term_scores

        term_scores = extract_term_scores(corpus.all_stats())
        client = system.client_for("superuser")
        distances = []
        for term, scores in term_scores.items():
            if len(scores) < 40 or term not in system.rstf_model:
                continue
            trs = system.rstf_model.get(term).transform(np.asarray(scores))
            distances.append(ks_distance_to_uniform(trs))
        assert distances
        assert float(np.median(distances)) < 0.25

    def test_plain_scores_do_carry_signal(self, corpus):
        """Sanity: without the RSTF the same measurement finds structure."""
        from repro.core.scoring import extract_term_scores

        term_scores = extract_term_scores(corpus.all_stats())
        distances = []
        for term, scores in term_scores.items():
            if len(scores) < 40:
                continue
            arr = np.asarray(scores)
            scaled = (arr - arr.min()) / max(arr.max() - arr.min(), 1e-12)
            distances.append(ks_distance_to_uniform(scaled))
        assert distances
        assert float(np.median(distances)) > 0.3


class TestCiphertextLength:
    """What the untrusted server learns from an element's length.

    The cipher hides nothing about the body's length, so the server sees
    ``len(ciphertext)`` for every element it stores: ``12 (nonce) + 14
    (header: tf, doc_length, term number, doc number) + 16 (tag) == 42``,
    the same for every element.  When the plaintext spelled the doc id
    out, ``len(doc_id)`` linked one document's elements across lists;
    when it spelled the term out, ``len(term)`` split a merged list into
    length classes the server could attribute at better odds than Def. 2
    allows; the canonical-JSON layout before that also gave away the
    digit counts of tf and doc_length — the magnitude of the very score
    the TRS exists to hide.
    """

    LENGTH = 42

    # 1, 5, 12, 40 and 300 UTF-8 bytes.
    TERMS = ("a", "café", "twelve-bytes", "ü" * 20, "€" * 100)

    @staticmethod
    def _deployment(plan):
        keys = GroupKeyService(master_secret=b"l" * 32)
        keys.register("u", {"g"})
        cluster = ServerCluster(keys, num_lists=plan.num_lists, num_servers=1)
        client = ZerberRClient("u", keys, cluster, RstfModel({}), plan)
        return client, cluster.server(0), keys

    @pytest.mark.parametrize("doc_id", ["d", "doc-1", "akte-ß", "reports/2009/q3-ü.txt" * 4])
    def test_length_is_independent_of_document_term_tf_and_doc_length(self, doc_id):
        assert [len(t.encode()) for t in self.TERMS] == [1, 5, 12, 40, 300]
        assert NONCE_SIZE + HEADER_SIZE + TAG_SIZE == self.LENGTH
        plan = MergePlan(groups=(self.TERMS, ("filler",)), r=2.0)
        client, _, _ = self._deployment(plan)
        lengths = set()
        for term in self.TERMS:
            for tf in (1, 9, 10, 255, 256, 9_999, 65_535):
                for doc_length in (1, 99, 100, 65_535, 65_536, 999_999, 10**7):
                    if doc_length < tf:
                        continue
                    counts = {term: tf}
                    if doc_length > tf:
                        counts["filler"] = doc_length - tf
                    doc = DocumentStats.from_counts(doc_id, counts)
                    [(_, element)] = client.build_document(doc, "g", [term])
                    lengths.add(len(element.ciphertext))
        assert lengths == {self.LENGTH}

    def test_length_classes_attribute_at_chance(self):
        """The length-aware adversary: group one merged list's elements
        by ``len(ciphertext)`` and guess each class's most frequent term.
        Its terms differ in length and its documents' ids share one
        width, so any class structure left would come from the terms."""
        plan = MergePlan(groups=(self.TERMS[:4],), r=2.0)
        client, server, keys = self._deployment(plan)
        rng = np.random.default_rng(7)
        for i in range(60):
            # A head-heavy term mix, so that chance sits well below 1.
            counts = {
                term: int(rng.integers(1, 9))
                for term, share in zip(plan.terms, (0.9, 0.5, 0.3, 0.15))
                if rng.random() < share
            } or {plan.terms[0]: 1}
            client.index_document(DocumentStats.from_counts(f"doc-{i:03d}", counts), "g")
        cipher, decode = keys.keyring("u", plan)["g"]
        labelled = [
            (len(e.ciphertext), cipher.try_decrypt(e.ciphertext, decode).term)
            for e in server.export_list(0)
        ]
        classes: dict[int, Counter] = {}
        for length, term in labelled:
            classes.setdefault(length, Counter())[term] += 1
        accuracy = sum(max(c.values()) for c in classes.values()) / len(labelled)
        chance = chance_attribution_level(
            plan.terms, [(0.0, term) for _, term in labelled]
        )
        assert len({term for _, term in labelled}) == 4 and chance < 0.6
        assert accuracy == chance

    def test_an_element_moved_into_another_list_is_skipped(self):
        """The term number is global: an authentic element the server
        places into another list still names its own term, so a query
        for a term of that list fetches it and skips it."""
        plan = MergePlan(groups=(("apple", "pear"), ("plum", "fig")), r=2.0)
        client, server, _ = self._deployment(plan)
        client.index_document(DocumentStats.from_counts("moved", {"apple": 3}), "g")
        for doc_id in ("p1", "p2"):
            client.index_document(DocumentStats.from_counts(doc_id, {"plum": 1}), "g")
        [element] = server.export_list(0)
        server.insert_many([(1, element)])
        result = client.query("plum", k=10)
        assert result.trace.elements_transferred == 3  # the moved one came along
        assert sorted(result.doc_ids()) == ["p1", "p2"]
