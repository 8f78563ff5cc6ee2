"""Per-document term statistics: term counts and the Eq. 4 score.

The paper's relevance score for a single-term query (Eq. 4) is the
*normalized term frequency*::

    rscore(q, d) = TF_q / |d|

where ``TF_q`` is the number of occurrences of ``q`` in ``d`` and ``|d|`` is
the document length in terms.  Everything the RSTF is trained on and
everything the server ranks by derives from the values computed here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass


def term_frequencies(tokens: Iterable[str]) -> Counter[str]:
    """Count occurrences of every term in a token stream."""
    return Counter(tokens)


@dataclass(frozen=True)
class DocumentStats:
    """Immutable term statistics of a single document.

    Attributes
    ----------
    doc_id:
        Caller-chosen document identifier.
    counts:
        Term -> raw term frequency.
    length:
        Document length ``|d|`` in terms (the sum of all counts).
    """

    doc_id: str
    counts: Mapping[str, int]
    length: int

    @classmethod
    def from_tokens(cls, doc_id: str, tokens: Iterable[str]) -> "DocumentStats":
        """Build statistics from a token stream."""
        counts = term_frequencies(tokens)
        return cls(doc_id=doc_id, counts=dict(counts), length=sum(counts.values()))

    @classmethod
    def from_counts(cls, doc_id: str, counts: Mapping[str, int]) -> "DocumentStats":
        """Build statistics from precomputed term counts.

        Synthetic corpora produce counts directly (they never materialise
        token streams for speed); this constructor validates them.
        """
        for term, count in counts.items():
            if count <= 0:
                raise ValueError(f"count for term {term!r} must be positive")
        return cls(doc_id=doc_id, counts=dict(counts), length=sum(counts.values()))

    def tf(self, term: str) -> int:
        """Raw term frequency of *term* (0 if absent)."""
        return self.counts.get(term, 0)

    def rscore(self, term: str) -> float:
        """Relevance score of this document for a single-term query (Eq. 4)."""
        if self.length == 0:
            raise ValueError(f"document {self.doc_id!r} is empty")
        return self.counts.get(term, 0) / self.length
