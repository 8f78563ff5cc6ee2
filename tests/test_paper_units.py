"""The paper's cost units as an exact tier-1 gate.

Requests, elements and bits transferred per top-k query are what the
paper prices a query in (Sec. 6.4-6.6, Figs. 11-13) and what the e2e
benchmark reports as ``requests_per_query`` / ``elements_per_query`` /
``bytes_per_query``.  They are pure functions of corpus, seeds and tape —
no clock, no machine — so a change that moves one must say so by
refreshing a constant here, not be noticed later in a bench table.

Refresh (after a change that is *meant* to move a unit, and says so in
CHANGES.md): ``PYTHONPATH=src python tests/test_paper_units.py`` prints
the three lines to paste over the constants below.
"""

import numpy as np

from repro import SystemConfig, ZerberRSystem
from repro.corpus.synthetic import tiny_corpus

# 20 queries over tiny_corpus(seed=3), SystemConfig(r=4.0, seed=5), tape seed 11.
REQUESTS = 52
ELEMENTS = 693
BITS = 376992

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
    # Every element on the wire is nonce + 7-byte header + term + doc id +
    # tag + one TRS double; "termNNNNNN" in "tiny-NNNNNN" makes that 68 bytes.
    assert BITS == ELEMENTS * 8 * (16 + 7 + 10 + 11 + 16 + 8)


if __name__ == "__main__":
    for name, value in zip(("REQUESTS", "ELEMENTS", "BITS"), measure()):
        print(f"{name} = {value}")
