"""Unit tests for merging schemes and Def. 2 enforcement."""

import numpy as np
import pytest

from repro.crypto.keys import DocumentDirectory
from repro.errors import (
    ConfidentialityViolationError,
    ConfigurationError,
    ProtocolError,
)
from repro.index.merge import (
    MergePlan,
    bfm_merge,
    greedy_pairing_merge,
    merged_list_confidentiality,
    random_merge,
)
from repro.index.postings import PostingElement


@pytest.fixture()
def probabilities():
    # Zipf-flavoured term probabilities over 20 terms.
    raw = {f"t{i:02d}": 1.0 / (i + 1) for i in range(20)}
    total_docs = 100
    return {t: max(1, int(p * total_docs)) / total_docs for t, p in raw.items()}


class TestMergePlan:
    def test_list_of_and_terms_of(self):
        plan = MergePlan(groups=(("a", "b"), ("c",)), r=2.0)
        assert plan.list_of("a") == 0
        assert plan.list_of("c") == 1
        assert plan.terms_of(0) == ("a", "b")

    def test_unknown_term(self):
        plan = MergePlan(groups=(("a",),), r=2.0)
        with pytest.raises(KeyError):
            plan.list_of("zzz")

    def test_unknown_list(self):
        plan = MergePlan(groups=(("a",),), r=2.0)
        with pytest.raises(ConfigurationError):
            plan.terms_of(5)

    def test_duplicate_term_rejected(self):
        with pytest.raises(ConfigurationError):
            MergePlan(groups=(("a",), ("a",)), r=2.0)

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            MergePlan(groups=((),), r=2.0)

    def test_verify_passes_for_valid_plan(self):
        plan = MergePlan(groups=(("a", "b"),), r=2.0)
        plan.verify({"a": 0.3, "b": 0.3})

    def test_verify_raises_for_violation(self):
        plan = MergePlan(groups=(("a", "b"),), r=2.0)
        with pytest.raises(ConfidentialityViolationError):
            plan.verify({"a": 0.1, "b": 0.1})

    def test_all_terms(self):
        plan = MergePlan(groups=(("a", "b"), ("c",)), r=2.0)
        assert plan.all_terms() == {"a", "b", "c"}

    def test_terms_are_numbered_globally_in_group_order(self):
        plan = MergePlan(groups=(("b", "a"), ("c",), ("e", "d")), r=2.0)
        assert plan.terms == ("b", "a", "c", "e", "d")
        assert [plan.locate(t) for t in plan.terms] == [
            (0, 0), (0, 1), (1, 2), (2, 3), (2, 4)
        ]
        with pytest.raises(KeyError):
            plan.locate("zzz")

    def test_one_stable_decoder_per_plan_and_directory(self):
        """A cipher memo serves the decoder that filled it, by identity:
        one decoder per (plan, group directory), resolving document
        numbers in that directory alone."""
        plan = MergePlan(groups=(("a", "b"), ("c",)), r=2.0)
        same = MergePlan(groups=(("a", "b"), ("c",)), r=2.0)
        mine, other = DocumentDirectory(["doc"]), DocumentDirectory(["x", "y"])
        assert plan.decoder(mine) is plan.decoder(mine)
        assert plan.decoder(mine) is not plan.decoder(other)
        assert same == plan  # the numbering is no part of a plan's value
        posting = PostingElement("c", "doc", 2, 5)
        data = posting.to_bytes(plan.locate("c")[1], 0)
        decoded = plan.decoder(mine)(data)
        assert decoded == posting and decoded.doc_id is mine.names[0]
        assert plan.decoder(other)(data).doc_id == "x"  # numbers are per group
        with pytest.raises(ProtocolError):
            plan.decoder(mine)(posting.to_bytes(len(plan.terms), 0))
        with pytest.raises(ProtocolError):
            plan.decoder(mine)(posting.to_bytes(0, 1))  # past the directory

    def test_a_directory_grows_under_its_decoder(self):
        """Directories are append-only and the decoder reads the live
        one: a number minted after the decoder was made resolves."""
        plan = MergePlan(groups=(("a",),), r=2.0)
        directory = DocumentDirectory()
        decode = plan.decoder(directory)
        number = directory.number("late")
        assert decode(PostingElement("a", "late", 1, 1).to_bytes(0, number)).doc_id == "late"

    def test_decoder_resolves_from_bytes_at_call_time(self, monkeypatch):
        plan = MergePlan(groups=(("a",),), r=2.0)
        decode = plan.decoder(DocumentDirectory(["d"]))
        seen = []
        original = PostingElement.__dict__["from_bytes"].__func__

        def traced(cls, data, terms, names):
            seen.append(data)
            return original(cls, data, terms, names)

        monkeypatch.setattr(PostingElement, "from_bytes", classmethod(traced))
        data = PostingElement("a", "d", 1, 1).to_bytes(0, 0)
        assert decode(data).term == "a" and seen == [data]


class TestEffectiveConfidentiality:
    def test_value(self):
        assert merged_list_confidentiality(
            ["a", "b"], {"a": 0.25, "b": 0.25}
        ) == pytest.approx(2.0)

    def test_zero_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            merged_list_confidentiality(["a"], {"a": 0.0})


class TestBfmMerge:
    def test_all_terms_covered(self, probabilities):
        plan = bfm_merge(probabilities, r=4.0)
        assert plan.all_terms() == set(probabilities)

    def test_def2_satisfied_everywhere(self, probabilities):
        plan = bfm_merge(probabilities, r=4.0)
        plan.verify(probabilities)

    def test_frequency_locality(self, probabilities):
        # BFM groups consecutive frequency ranks: within each group, the
        # df ratio between the most and least frequent term is bounded by
        # the ratio across the group's rank span — no head+tail mixing.
        plan = bfm_merge(probabilities, r=3.0)
        ordered = sorted(probabilities, key=lambda t: -probabilities[t])
        rank = {t: i for i, t in enumerate(ordered)}
        for group in plan.groups:
            ranks = sorted(rank[t] for t in group)
            assert ranks == list(range(ranks[0], ranks[-1] + 1))

    def test_deterministic(self, probabilities):
        assert bfm_merge(probabilities, 4.0) == bfm_merge(probabilities, 4.0)

    def test_larger_r_means_more_lists(self, probabilities):
        strict = bfm_merge(probabilities, r=2.0)
        loose = bfm_merge(probabilities, r=10.0)
        assert loose.num_lists >= strict.num_lists

    def test_invalid_r(self, probabilities):
        with pytest.raises(ConfigurationError):
            bfm_merge(probabilities, r=1.0)


class TestRandomMerge:
    def test_def2_satisfied(self, probabilities):
        plan = random_merge(probabilities, r=4.0, rng=np.random.default_rng(1))
        plan.verify(probabilities)

    def test_all_terms_covered(self, probabilities):
        plan = random_merge(probabilities, r=4.0, rng=np.random.default_rng(2))
        assert plan.all_terms() == set(probabilities)

    def test_different_seeds_differ(self, probabilities):
        a = random_merge(probabilities, 4.0, rng=np.random.default_rng(1))
        b = random_merge(probabilities, 4.0, rng=np.random.default_rng(2))
        assert a != b


class TestGreedyPairingMerge:
    def test_def2_satisfied(self, probabilities):
        plan = greedy_pairing_merge(probabilities, r=4.0)
        plan.verify(probabilities)

    def test_all_terms_covered(self, probabilities):
        plan = greedy_pairing_merge(probabilities, r=4.0)
        assert plan.all_terms() == set(probabilities)

    def test_mixes_head_with_tail(self, probabilities):
        plan = greedy_pairing_merge(probabilities, r=3.0)
        ordered = sorted(probabilities, key=lambda t: -probabilities[t])
        rank = {t: i for i, t in enumerate(ordered)}
        # At least one group must span head and tail ranks (the designed
        # anti-property vs. BFM).
        spans = [
            max(rank[t] for t in g) - min(rank[t] for t in g)
            for g in plan.groups
            if len(g) > 1
        ]
        assert spans and max(spans) > len(probabilities) // 2
