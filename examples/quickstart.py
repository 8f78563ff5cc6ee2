"""Quickstart: build a confidential index, query it, inspect the costs.

Run:  python examples/quickstart.py
"""

from repro import OrdinaryInvertedIndex, SystemConfig, ZerberRSystem, studip_like


def main() -> None:
    # 1. A document collection partitioned into collaboration groups.
    #    (Synthetic StudIP-shaped data; swap in your own Corpus of
    #    Documents with text= or counts=.)
    corpus = studip_like(num_documents=300, vocabulary_size=3000, seed=1)
    print(f"corpus: {len(corpus)} documents in {len(corpus.groups())} groups")

    # 2. Build the Zerber+R system: trains and publishes the per-term
    #    RSTFs, derives the r-confidential BFM merge plan, stands up the
    #    key service and the untrusted index server, and lets each group
    #    owner encrypt + upload its posting elements.
    system = ZerberRSystem.build(corpus, SystemConfig(r=4.0))
    audit = system.audit()
    print(
        f"index: {system.cluster.num_elements} encrypted posting elements in "
        f"{system.merge_plan.num_lists} merged lists "
        f"(r={system.config.r}, max amplification {audit.max_amplification:.2f}, "
        f"confidential={audit.is_confidential})"
    )

    # 3. Run a single-term top-10 query as the superuser (member of all
    #    groups).  The server ranks by the public TRS values; the client
    #    decrypts, filters, and issues doubling follow-ups if needed.
    term = system.vocabulary.terms_by_frequency()[5]
    result = system.query(term, k=10)
    print(f"\ntop-10 for {term!r}:")
    for hit in result.hits:
        print(f"  {hit.doc_id}  rscore={hit.rscore:.4f}  group={hit.group}")
    trace = result.trace
    print(
        f"cost: {trace.num_requests} request(s), "
        f"{trace.elements_transferred} posting elements "
        f"({trace.bits_transferred / 8 / 1024:.2f} KB)"
    )

    # 4. Cross-check against an ordinary (unprotected) inverted index:
    #    single-term rankings are identical because the RSTF is monotonic.
    ordinary = OrdinaryInvertedIndex.from_documents(corpus.all_stats())
    expected = [e.doc_id for e in ordinary.top_k(term, 10)]
    match = [h.doc_id for h in result.hits] == expected
    print(f"\nmatches ordinary inverted index ranking: {match}")


if __name__ == "__main__":
    main()
