"""Corpus-level vocabulary with document frequencies and term probabilities.

Zerber's merging scheme (Def. 2) needs, for every term ``t``, the probability
``p_t`` of occurrence in the corpus, "represented by its normalized document
frequency".  This module accumulates document frequencies over a collection
and exposes ``p_t = df(t) / N``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from repro.errors import UnknownTermError
from repro.text.analysis import DocumentStats


class Vocabulary:
    """Document-frequency table over a document collection.

    The vocabulary is mutable (documents can be added incrementally, matching
    the paper's collaborative-insert setting) but exposes a read-only mapping
    interface for statistics.
    """

    def __init__(self) -> None:
        self._df: Counter[str] = Counter()
        self._num_documents = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_documents(cls, documents: Iterable[DocumentStats]) -> "Vocabulary":
        """Build a vocabulary from a collection of document statistics."""
        vocab = cls()
        for doc in documents:
            vocab.add_document(doc)
        return vocab

    def add_document(self, doc: DocumentStats) -> None:
        """Register one document's terms."""
        self._num_documents += 1
        for term in doc.counts:
            self._df[term] += 1

    # -- statistics --------------------------------------------------------

    @property
    def num_documents(self) -> int:
        """Number of documents registered (``N``)."""
        return self._num_documents

    @property
    def num_terms(self) -> int:
        """Number of distinct terms."""
        return len(self._df)

    def document_frequency(self, term: str) -> int:
        """``n_d(t)``: number of documents containing *term* (0 if unseen)."""
        return self._df.get(term, 0)

    def probability(self, term: str) -> float:
        """``p_t``: normalized document frequency ``df(t) / N``.

        Raises :class:`UnknownTermError` for terms never seen, because a
        silent 0 would let merging code build lists that can never satisfy
        Def. 2.
        """
        if self._num_documents == 0:
            raise UnknownTermError(term)
        df = self._df.get(term)
        if df is None:
            raise UnknownTermError(term)
        return df / self._num_documents

    def terms_by_frequency(self, descending: bool = True) -> list[str]:
        """All terms sorted by document frequency (ties broken by term)."""
        return [
            term
            for term, _ in sorted(
                self._df.items(),
                key=lambda item: (-item[1], item[0]) if descending else (item[1], item[0]),
            )
        ]

    # -- mapping protocol ----------------------------------------------------

    def __contains__(self, term: object) -> bool:
        return term in self._df

    def __iter__(self) -> Iterator[str]:
        return iter(self._df)
