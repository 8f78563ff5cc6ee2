"""The paper's cost units as an exact tier-1 gate.

Requests, elements and bits transferred per top-k query are what the
paper prices a query in (Sec. 6.4-6.6, Figs. 11-13) and what the e2e
benchmark reports as ``requests_per_query`` / ``elements_per_query`` /
``bytes_per_query``.  They are pure functions of corpus, seeds and tape —
no clock, no machine — so a change that moves one must say so by
refreshing a constant here, not be noticed later in a bench table.

Beside them, the machine-independent half of ``setup_s``: what ``build`` +
``deploy_cluster`` do per element (encryptions, TRS sort keys), counted, so
that indexing a corpus twice or re-keying a list per batch shows up here
and not as a slower bench.

Refresh (after a change that is *meant* to move a unit, and says so in
CHANGES.md): ``PYTHONPATH=src python tests/test_paper_units.py`` prints
the three lines to paste over the constants below, and the wire bytes
per element they imply.
"""

import numpy as np
import pytest

from repro import SystemConfig, ZerberRSystem
from repro.corpus.synthetic import tiny_corpus
from repro.crypto.cipher import IV_SIZE
from repro.index.postings import HEADER_SIZE, STORED_ELEMENT_BITS, WIRE_ELEMENT_BITS

# 20 queries over tiny_corpus(seed=3), SystemConfig(r=4.0, seed=5), tape seed 11.
REQUESTS = 52
ELEMENTS = 693
BITS = 166320

NUM_QUERIES = 20
K = 5


def _tape(system):
    """1-3 distinct terms per query, flat over the vocabulary: rare terms
    share lists with frequent ones, so most queries need follow-up rounds."""
    rng = np.random.default_rng(11)
    vocabulary = system.vocabulary.terms_by_frequency()
    return [
        tuple(rng.choice(vocabulary, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(NUM_QUERIES)
    ]


def measure():
    system = ZerberRSystem.build(tiny_corpus(seed=3), SystemConfig(r=4.0, seed=5))
    client = system.client_for("superuser")
    requests = elements = bits = 0
    for terms in _tape(system):
        trace = client.query_multi_batched(terms, K).batch_trace
        requests += trace.num_requests
        elements += trace.elements_transferred
        bits += trace.bits_transferred
    return requests, elements, bits


def test_paper_units_are_exactly_the_recorded_ones():
    assert measure() == (REQUESTS, ELEMENTS, BITS)
    # Every element on the wire is IV + header, 30 bytes whatever its
    # document: the IV is the tag too, the doc id is a number in the
    # header, and the client stops on its match count, so no TRS travels.
    # The server stores the TRS beside the sealed bytes: 38 bytes.
    assert BITS == ELEMENTS * WIRE_ELEMENT_BITS
    assert WIRE_ELEMENT_BITS == 8 * (IV_SIZE + HEADER_SIZE) == 240
    assert STORED_ELEMENT_BITS == 8 * (IV_SIZE + HEADER_SIZE + 8) == 304


class _CountedTrs(float):
    """A TRS that counts, class-wide, how often ``-trs`` (its sort key) is taken."""

    taken = 0

    def __neg__(self):
        _CountedTrs.taken += 1
        return -float(self)


@pytest.mark.parametrize("replication", [1, 2])
def test_setup_work_is_once_per_element(monkeypatch, counted_encrypts, replication):
    """``build`` + ``deploy_cluster``: one encryption per element indexed,
    and exactly one sort key per element per list copy — the single
    server's, then each of the deployed cluster's ``replication`` copies,
    the primary's and every follower's taken in by the same one op at a
    time."""
    from repro.index.postings import EncryptedPostingElement

    checked = EncryptedPostingElement.checked
    monkeypatch.setattr(
        EncryptedPostingElement,
        "checked",
        lambda ciphertext, group, trs: checked(ciphertext, group, _CountedTrs(trs)),
    )
    monkeypatch.setattr(_CountedTrs, "taken", 0)
    corpus = tiny_corpus(seed=3)
    system = ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=5))
    cluster, _ = system.deploy_cluster(num_servers=3, replication=replication)
    elements = sum(len(corpus.stats(doc_id).counts) for doc_id in corpus.doc_ids())
    assert system.cluster.num_elements == cluster.num_elements == elements
    assert len(counted_encrypts) == elements
    assert _CountedTrs.taken == (1 + replication) * elements


if __name__ == "__main__":
    units = measure()
    for name, value in zip(("REQUESTS", "ELEMENTS", "BITS"), units):
        print(f"{name} = {value}")
    _, elements, bits = units
    print(f"# wire bytes per element: {bits / 8 / elements:g}")
