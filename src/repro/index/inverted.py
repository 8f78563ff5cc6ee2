"""Ordinary inverted index with server-side top-k (the efficiency yardstick).

This is the unprotected baseline of the paper: plaintext posting lists
sorted by relevance score, exact top-k by list pruning, TFxIDF (Eq. 3) for
multi-term queries.  Zerber+R's goal is to match this index's retrieval
behaviour (single-term queries are ranked identically) while leaking
nothing; the storage/bandwidth comparisons of §6.3–6.6 are against this
index.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

from repro.errors import UnknownTermError
from repro.index.postings import PostingElement, PostingList
from repro.text.analysis import DocumentStats
from repro.text.vocabulary import Vocabulary


class OrdinaryInvertedIndex:
    """Plaintext inverted index over :class:`DocumentStats`."""

    def __init__(self) -> None:
        self._lists: dict[str, PostingList] = {}
        self._vocabulary = Vocabulary()
        self._doc_lengths: dict[str, int] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_documents(cls, documents: Iterable[DocumentStats]) -> "OrdinaryInvertedIndex":
        index = cls()
        for doc in documents:
            index.add_document(doc)
        return index

    def add_document(self, doc: DocumentStats) -> None:
        """Index one document (ids must be unique)."""
        if doc.doc_id in self._doc_lengths:
            raise ValueError(f"document already indexed: {doc.doc_id!r}")
        if doc.length == 0:
            raise ValueError(f"document {doc.doc_id!r} is empty")
        self._doc_lengths[doc.doc_id] = doc.length
        self._vocabulary.add_document(doc)
        for term, tf in doc.counts.items():
            posting_list = self._lists.get(term)
            if posting_list is None:
                posting_list = PostingList(term)
                self._lists[term] = posting_list
            posting_list.add(
                PostingElement(
                    term=term, doc_id=doc.doc_id, tf=tf, doc_length=doc.length
                )
            )

    # -- statistics ----------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def num_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def num_posting_elements(self) -> int:
        return sum(len(lst) for lst in self._lists.values())

    def posting_list(self, term: str) -> PostingList:
        """The posting list of *term* (raises for unknown terms)."""
        posting_list = self._lists.get(term)
        if posting_list is None:
            raise UnknownTermError(term)
        return posting_list

    # -- retrieval -----------------------------------------------------------

    def top_k(self, term: str, k: int) -> list[PostingElement]:
        """Exact single-term top-k by sorted-list pruning (paper Fig. 1)."""
        return self.posting_list(term).top_k(k)

    def top_k_multi(self, terms: Iterable[str], k: int) -> list[tuple[str, float]]:
        """Multi-term top-k with TFxIDF score aggregation (paper Eq. 3).

        Unknown terms contribute nothing (standard engine behaviour).
        Returns ``(doc_id, score)`` pairs in descending score order, ties
        broken by document id for determinism.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        scores: dict[str, float] = {}
        n = self.num_documents
        for term in terms:
            posting_list = self._lists.get(term)
            if posting_list is None or n == 0:
                continue
            idf = math.log(n / len(posting_list)) if len(posting_list) else 0.0
            for element in posting_list:
                scores[element.doc_id] = scores.get(element.doc_id, 0.0) + (
                    element.rscore * idf
                )
        best = heapq.nsmallest(k, scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(doc_id, score) for doc_id, score in best]

    # -- storage accounting (for §6.3) ---------------------------------------

    def storage_score_slots(self) -> int:
        """Number of per-element score slots the index stores.

        The ordinary index stores exactly one relevance score per posting
        element; Zerber+R stores exactly one TRS per element.  §6.3's "no
        storage overhead" claim is the equality of these counts.
        """
        return self.num_posting_elements
