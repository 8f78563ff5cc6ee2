"""Failure injection: a malicious or faulty server must degrade safely.

The threat model lets the adversary *read* the server; a stronger (byzantine)
server could also corrupt or reorder data.  Zerber+R clients cannot always
detect missing results, but they must (a) never crash, (b) never return
forged elements (the MAC rejects them), and (c) never mis-rank what they do
return (scores come from authenticated plaintext, not server claims).
"""

from array import array

import numpy as np
import pytest

from repro import SystemConfig, ZerberRSystem
from repro.index.postings import EncryptedPostingElement
from tests.conftest import sealed


@pytest.fixture()
def system(micro_corpus):
    # Function-scoped: these tests mutate server state.
    return ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=15))


def _held(system, list_id):
    """The merged list the (tampering) server holds: the system's one."""
    return system.cluster.server(0)._lists[list_id]


def _some_term(system, min_df=3):
    for term in system.vocabulary.terms_by_frequency():
        if system.vocabulary.document_frequency(term) >= min_df:
            return term
    raise RuntimeError("no suitable term")


class TestTamperedCiphertexts:
    def test_corrupted_element_skipped_not_crashed(self, system):
        term = _some_term(system)
        list_id = system.merge_plan.list_of(term)
        merged = _held(system, list_id)
        # Flip a byte in the highest-TRS element's ciphertext.
        victim = merged.elements[0]
        corrupted = EncryptedPostingElement(
            ciphertext=bytes([victim.ciphertext[0] ^ 0xFF]) + victim.ciphertext[1:],
            group=victim.group,
            trs=victim.trs,
        )
        merged.elements[0] = corrupted
        merged.version += 1
        result = system.query(term, k=3)
        # No crash; corrupted element silently dropped; remaining hits are
        # genuine and correctly ordered.
        scores = [h.rscore for h in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_forged_element_rejected(self, system):
        term = _some_term(system)
        list_id = system.merge_plan.list_of(term)
        group = _held(system, list_id).elements[0].group
        forged = EncryptedPostingElement(
            ciphertext=sealed(b"forged-by-the-server"), group=group, trs=0.999
        )
        _held(system, list_id).add_sorted_by_trs(forged)
        result = system.query(term, k=3)
        # The forged top element fails authentication: it can waste
        # bandwidth but never appear as a hit.
        assert all(h.rscore > 0 for h in result.hits)
        assert len(result.hits) <= 3

    def test_relabelled_group_cannot_leak_across_groups(self, system, micro_corpus):
        # Server relabels a g0 element as g1 hoping a g1 member decrypts
        # it: the g1 key fails authentication, nothing leaks.
        groups = sorted(micro_corpus.groups())
        term = _some_term(system)
        list_id = system.merge_plan.list_of(term)
        merged = _held(system, list_id)
        victim_index = next(
            i for i, e in enumerate(merged.elements) if e.group == groups[0]
        )
        victim = merged.elements[victim_index]
        merged.elements[victim_index] = EncryptedPostingElement(
            ciphertext=victim.ciphertext, group=groups[1], trs=victim.trs
        )
        merged.version += 1
        reader = system.register_user("reader-g1", {groups[1]})
        result = reader.query(term, k=10)
        assert all(h.group == groups[1] for h in result.hits)


class TestMisorderedServer:
    def test_shuffled_list_still_returns_correctly_ranked_subset(self, system):
        """A server that violates TRS order can hide results but cannot
        corrupt the ranking of what the client receives."""
        term = _some_term(system, min_df=4)
        list_id = system.merge_plan.list_of(term)
        merged = _held(system, list_id)
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(merged.elements))
        merged.elements[:] = [merged.elements[i] for i in perm]
        merged._neg_trs_keys[:] = array("d", [-e.trs for e in merged.elements])
        merged.version += 1
        result = system.query(term, k=3)
        scores = [h.rscore for h in result.hits]
        assert scores == sorted(scores, reverse=True)
        # Every returned hit is genuine (decrypted + authenticated).
        truth = {
            d
            for d in system.corpus.doc_ids()
            if system.corpus.stats(d).tf(term) > 0
        }
        assert set(result.doc_ids()) <= truth


class TestWithholdingServer:
    def test_empty_list_returns_empty_not_error(self, system):
        term = _some_term(system)
        list_id = system.merge_plan.list_of(term)
        _held(system, list_id).elements.clear()
        del _held(system, list_id)._neg_trs_keys[:]
        _held(system, list_id).version += 1
        result = system.query(term, k=5)
        assert result.hits == ()
        assert not result.trace.satisfied
