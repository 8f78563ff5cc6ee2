"""The unprotected baseline: ordinary inverted index with server-side top-k.

Wraps :class:`~repro.index.inverted.OrdinaryInvertedIndex` in the same
query-with-trace interface as :class:`~repro.core.client.ZerberRClient`, so
the Fig. 11–13 benchmarks can compare traces one-to-one.  An ordinary index
answers a top-k query with exactly ``k`` elements in one request — its
QRatioeff is 1 by construction (Eq. 14's numeraire).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.client import QueryResult, RankedHit
from repro.core.protocol import QueryTrace
from repro.corpus.documents import Corpus
from repro.index.inverted import OrdinaryInvertedIndex

# Wire size of a plaintext posting element: doc id hash + score, the same
# 64-bit encoding the paper assumes for Zerber+R elements in §6.6.
PLAINTEXT_ELEMENT_BITS = 64


class OrdinarySearchSystem:
    """Plaintext search engine facade with trace-compatible queries."""

    def __init__(self, index: OrdinaryInvertedIndex) -> None:
        self._index = index

    @classmethod
    def build(cls, corpus: Corpus) -> "OrdinarySearchSystem":
        return cls(OrdinaryInvertedIndex.from_documents(corpus.all_stats()))

    @property
    def index(self) -> OrdinaryInvertedIndex:
        return self._index

    def query(self, term: str, k: int) -> QueryResult:
        """Exact top-k; one request, exactly min(k, df) elements shipped."""
        if k < 1:
            raise ValueError("k must be >= 1")
        elements = self._index.top_k(term, k)
        hits = tuple(
            RankedHit(doc_id=e.doc_id, rscore=e.rscore, group="") for e in elements
        )
        trace = QueryTrace(
            term=term,
            k=k,
            num_requests=1,
            elements_transferred=len(elements),
            bits_transferred=len(elements) * PLAINTEXT_ELEMENT_BITS,
            satisfied=len(elements) >= k,
        )
        return QueryResult(hits=hits, trace=trace)

    def query_multi(self, terms: Iterable[str], k: int) -> list[tuple[str, float]]:
        """TFxIDF multi-term top-k (Eq. 3) — the accuracy reference."""
        return self._index.top_k_multi(terms, k)
