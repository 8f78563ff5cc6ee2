"""Order-preserving score mapping baseline (Swaminathan et al., StorageSS'07).

The related-work comparator of paper §7: relevance scores are passed
through an order-preserving transformation ("the idea of uniformly
distributing posting elements using an order preserving cryptographic
function was first discussed in [21]"), which supports server-side top-k —
but, per the paper's critique:

* "uniform distribution of posting elements alone does not hide the
  document frequency and thus allows an adversary to recover encrypted
  terms" — there is **no merging**, one visible posting list per
  (encrypted) term; and
* "the order preserving mapping function proposed in [21] currently does
  not support efficient index inserts and updates such that, at least in
  some cases, the posting list has to be completely rebuilt."

We model the mapping as the per-term empirical CDF frozen at build time
(rank -> (rank+0.5)/n): provably order-preserving and uniform over the
build-time scores.  An insert whose score falls outside the mapped support,
or that shifts ranks, invalidates the frozen mapping — counted as a rebuild
(the insert-cost metric the ablation reports).
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

from repro.corpus.documents import Corpus
from repro.errors import UnknownTermError
from repro.text.analysis import DocumentStats


class OrderPreservingIndex:
    """Per-term order-preserving score mapping; no merging, visible df."""

    def __init__(self) -> None:
        # term -> build-time sorted scores (the frozen mapping support)
        self._support: dict[str, list[float]] = {}
        # term -> [(mapped_score, doc_id)] sorted descending by mapped score
        self._lists: dict[str, list[tuple[float, str]]] = {}
        self.rebuilds = 0

    @classmethod
    def build(cls, corpus: Corpus) -> "OrderPreservingIndex":
        index = cls()
        index._load(corpus.all_stats())
        return index

    def _load(self, documents: Iterable[DocumentStats]) -> None:
        raw: dict[str, list[tuple[float, str]]] = {}
        for doc in documents:
            for term, tf in doc.counts.items():
                raw.setdefault(term, []).append((tf / doc.length, doc.doc_id))
        for term, pairs in raw.items():
            scores = sorted(score for score, _ in pairs)
            self._support[term] = scores
            mapped = [
                (self._map(term, score), doc_id) for score, doc_id in pairs
            ]
            mapped.sort(key=lambda p: (-p[0], p[1]))
            self._lists[term] = mapped

    def _map(self, term: str, score: float) -> float:
        """Empirical-CDF mapping: mid-rank of *score* in the frozen support."""
        support = self._support[term]
        left = bisect.bisect_left(support, score)
        right = bisect.bisect_right(support, score)
        mid_rank = (left + right) / 2.0
        return (mid_rank + 0.5) / (len(support) + 1)

    # -- adversary-visible surface -------------------------------------------

    def visible_document_frequency(self, term: str) -> int:
        """df is fully exposed: one posting list per term (the critique)."""
        lst = self._lists.get(term)
        if lst is None:
            raise UnknownTermError(term)
        return len(lst)

    # -- inserts (the inefficiency being modelled) ----------------------------------

    def insert(self, doc: DocumentStats) -> int:
        """Insert a document; returns how many term lists needed a rebuild.

        A new score inside the frozen support's range reuses the mapping
        (cheap); a score outside the support's range — or a first-ever
        score for an unseen term — forces re-freezing that term's mapping,
        i.e. a posting-list rebuild.
        """
        rebuilds_here = 0
        for term, tf in doc.counts.items():
            score = tf / doc.length
            support = self._support.get(term)
            if support is None or not support[0] <= score <= support[-1]:
                rebuilds_here += 1
                self._rebuild_term(term, score, doc.doc_id)
            else:
                mapped = self._map(term, score)
                lst = self._lists[term]
                # keep descending order
                keys = [-s for s, _ in lst]
                position = bisect.bisect_right(keys, -mapped)
                lst.insert(position, (mapped, doc.doc_id))
        self.rebuilds += rebuilds_here
        return rebuilds_here

    def _rebuild_term(self, term: str, score: float, doc_id: str) -> None:
        existing = [
            (self._unmap_placeholder(term, mapped), d)
            for mapped, d in self._lists.get(term, [])
        ]
        pairs = existing + [(score, doc_id)]
        scores = sorted(s for s, _ in pairs)
        self._support[term] = scores
        mapped = [(self._map(term, s), d) for s, d in pairs]
        mapped.sort(key=lambda p: (-p[0], p[1]))
        self._lists[term] = mapped

    def _unmap_placeholder(self, term: str, mapped: float) -> float:
        """Recover an approximate raw score from a frozen mapping.

        The real system would keep raw scores client-side; for the
        simulation, inverting the empirical CDF by nearest support point is
        exact for scores that were in the support when frozen.
        """
        support = self._support[term]
        index = min(
            range(len(support)),
            key=lambda i: abs((i + 0.5) / (len(support) + 1) - mapped),
        )
        return support[index]
