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

from repro import SystemConfig, ZerberRSystem
from repro.corpus.synthetic import tiny_corpus
from repro.crypto.cipher import NONCE_SIZE, TAG_SIZE
from repro.index.postings import HEADER_SIZE

# 20 queries over tiny_corpus(seed=3), SystemConfig(r=4.0, seed=5), tape seed 11.
REQUESTS = 52
ELEMENTS = 693
BITS = 277200

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
    # Every element on the wire is nonce + header + tag + one TRS double,
    # 50 bytes whatever its document: the doc id is a number in the header.
    assert BITS == ELEMENTS * 8 * (NONCE_SIZE + HEADER_SIZE + TAG_SIZE + 8) == ELEMENTS * 400


class _CountedTrs(float):
    """A TRS that counts, class-wide, how often ``-trs`` (its sort key) is taken."""

    taken = 0

    def __neg__(self):
        _CountedTrs.taken += 1
        return -float(self)


def test_setup_work_is_once_per_element(monkeypatch, counted_encrypts):
    """``build`` + ``deploy_cluster``: one encryption per element indexed,
    and at most one sort key per element per list copy bulk-loaded (the
    single server's and the cluster primary's; at ``replication=1`` there
    is no follower, whose copy arrives op by op through the log)."""
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
    cluster, _ = system.deploy_cluster(num_servers=3, replication=1)
    elements = sum(len(corpus.stats(doc_id).counts) for doc_id in corpus.doc_ids())
    assert system.cluster.num_elements == cluster.num_elements == elements
    assert len(counted_encrypts) == elements
    assert 0 < _CountedTrs.taken <= 2 * elements


if __name__ == "__main__":
    units = measure()
    for name, value in zip(("REQUESTS", "ELEMENTS", "BITS"), units):
        print(f"{name} = {value}")
    _, elements, bits = units
    print(f"# wire bytes per element: {bits / 8 / elements:g}")
