"""Shared fixtures: small deterministic corpora and assembled systems.

Session-scoped where construction is expensive; tests must not mutate the
shared systems (tests that insert or otherwise mutate build their own).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import OrdinaryInvertedIndex, SystemConfig, ZerberRSystem
from repro.core.protocol import BatchFetchRequest, FetchRequest
from repro.corpus import tiny_corpus
from repro.corpus.synthetic import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.index.postings import SEALED_SIZE, PostingElement


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def corpus():
    """The standard small test corpus (60 docs, 4 groups)."""
    return tiny_corpus()


@pytest.fixture(scope="session")
def micro_corpus():
    """An even smaller corpus for expensive per-test construction."""
    config = SyntheticCorpusConfig(
        num_documents=25,
        vocabulary_size=150,
        num_groups=3,
        topic_vocabulary_size=30,
        doc_length_median=50.0,
        doc_length_sigma=0.4,
        min_doc_length=10,
        max_doc_length=200,
        seed=99,
        name="micro",
    )
    return SyntheticCorpusGenerator(config).generate()


@pytest.fixture(scope="session")
def ordinary_index(corpus):
    return OrdinaryInvertedIndex.from_documents(corpus.all_stats())


@pytest.fixture(scope="session")
def system(corpus):
    """A fully indexed Zerber+R system over the test corpus (read-only!)."""
    return ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=5))


@pytest.fixture(scope="session")
def frequent_term(ordinary_index):
    """A high-df term of the test corpus."""
    return ordinary_index.vocabulary.terms_by_frequency()[0]


@pytest.fixture(scope="session")
def medium_term(ordinary_index):
    """A mid-df term (df >= 5) of the test corpus."""
    terms = ordinary_index.vocabulary.terms_by_frequency()
    return terms[len(terms) // 4]


@pytest.fixture(scope="session")
def rare_term(ordinary_index):
    """A df==1 term of the test corpus."""
    vocab = ordinary_index.vocabulary
    for term in reversed(vocab.terms_by_frequency()):
        if vocab.document_frequency(term) == 1:
            return term
    raise RuntimeError("test corpus has no df==1 term")


@pytest.fixture()
def counted_encrypts(monkeypatch):
    """One entry per ``StreamCipher.encrypt`` call made while the test runs."""
    from repro.crypto.cipher import StreamCipher

    calls = []
    encrypt = StreamCipher.encrypt

    def counting(self, plaintext):
        calls.append(len(plaintext))
        return encrypt(self, plaintext)

    monkeypatch.setattr(StreamCipher, "encrypt", counting)
    return calls


def sealed(label: bytes) -> bytes:
    """A stand-in ciphertext: *label* padded to the one sealed-posting
    size, so an element built around it passes the format check (no key
    opens it).  Distinct labels give distinct ciphertexts."""
    if len(label) > SEALED_SIZE:
        raise ValueError(f"label longer than {SEALED_SIZE} bytes")
    return label.ljust(SEALED_SIZE, b".")


def posting_bytes(element: PostingElement, number: int, doc_number: int) -> bytes:
    """*element*'s encryption plaintext with term number *number* and
    document number *doc_number*, through the writer's one encoder."""
    return PostingElement.encoder(doc_number, element.doc_length)(element.tf, number)


def slices_batch(principal: str, slices) -> BatchFetchRequest:
    """One principal's batch of ``(list_id, offset, count)`` slices."""
    requests = (FetchRequest(principal, *slice_) for slice_ in slices)
    return BatchFetchRequest(tuple(requests))


def held_work(coordinator):
    """What a coordinator holds: parked sessions, agenda callables and
    ticks with a flush queued."""
    agenda = sum(map(len, coordinator._agenda.values()))
    return len(coordinator._sessions), agenda, set(coordinator._flush_scheduled)
