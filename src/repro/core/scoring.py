"""Relevance score computation (paper §3.2, Eq. 3 and Eq. 4).

Zerber+R ranks single-term queries by normalized term frequency
``rscore(q, d) = TF_q / |d|`` (Eq. 4) — deliberately *without* IDF (Eq. 3),
which would leak collection statistics.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.text.analysis import DocumentStats


def extract_term_scores(
    documents: Iterable[DocumentStats],
) -> dict[str, list[float]]:
    """Per-term relevance scores over a document set (RSTF training input).

    Returns ``term -> [rscore(term, d) for every d containing term]``.
    This is the "relevance scores for each term-document pair" extraction
    of paper §5.1.1.
    """
    scores: dict[str, list[float]] = {}
    for doc in documents:
        if doc.length == 0:
            raise ValueError(f"document {doc.doc_id!r} is empty")
        for term, tf in doc.counts.items():
            scores.setdefault(term, []).append(tf / doc.length)
    return scores
