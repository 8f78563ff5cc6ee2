"""Plaintext reference model and the per-query correctness checks.

The harness keeps what the untrusted servers must never see — every
document's group and per-term relevance score — and judges sampled query
results against it, outside the timed regions:

(a) access control: every returned document belongs to a group the
    principal is enrolled in;
(b) shape: at most ``k`` distinct documents, scores descending;
(c) tie-tolerant top-k bound: per term, the k-th largest readable TRS is
    the threshold.  The doubling protocol returns every readable element
    strictly above it and an arbitrary subset of the ties at it, so a
    returned document's aggregate must lie between the sum of its scores
    on strictly-above-threshold terms and the sum on at-or-above ones.
    Training-unseen terms carry a random TRS (paper §5.1.1), so which of
    their elements are fetched is arbitrary: they count only in the upper
    bound.  A document whose lower bound beats the weakest returned score
    must itself be returned.

Thresholds compare TRS, not rscore: the RSTF is monotone but can
saturate, and the server orders by TRS.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.rstf import RstfModel
from repro.corpus.documents import Corpus
from repro.text.analysis import DocumentStats

# Aggregates are sums of a few floats in differing orders.
_EPS = 1e-9


class PlaintextModel:
    """term -> {doc_id: rscore} plus doc_id -> group, kept in step with writes."""

    def __init__(self, corpus: Corpus, rstf_model: RstfModel) -> None:
        self._rstf = rstf_model
        self.postings: dict[str, dict[str, float]] = {}
        self.doc_group: dict[str, str] = {}
        self._trs_cache: dict[tuple[str, float], float] = {}
        for doc in corpus:
            self.add(corpus.stats(doc.doc_id), doc.group)

    def add(self, stats: DocumentStats, group: str) -> None:
        self.doc_group[stats.doc_id] = group
        for term, tf in stats.counts.items():
            self.postings.setdefault(term, {})[stats.doc_id] = tf / stats.length

    def remove(self, stats: DocumentStats) -> None:
        del self.doc_group[stats.doc_id]
        for term in stats.counts:
            del self.postings[term][stats.doc_id]

    def readable_df(self, term: str, groups: Iterable[str]) -> int:
        """Documents containing *term* that a member of *groups* may read."""
        allowed = set(groups)
        return sum(
            1
            for doc_id in self.postings.get(term, ())
            if self.doc_group[doc_id] in allowed
        )

    def _trs(self, term: str, rscore: float) -> float:
        key = (term, rscore)
        trs = self._trs_cache.get(key)
        if trs is None:
            trs = self._rstf.transform(term, rscore)
            self._trs_cache[key] = trs
        return trs

    def check(
        self,
        memberships: frozenset[str],
        terms: Sequence[str],
        k: int,
        ranked: Sequence[tuple[str, float]],
    ) -> str | None:
        """The first violated check as a short reason, or ``None`` if all hold."""
        doc_ids = [doc_id for doc_id, _ in ranked]
        for doc_id in doc_ids:
            group = self.doc_group.get(doc_id)
            if group is None:
                return f"unknown document {doc_id!r}"
            if group not in memberships:
                return f"access control: {doc_id!r} is in unreadable group {group!r}"
        if len(ranked) > k:
            return f"shape: {len(ranked)} results for k={k}"
        if len(set(doc_ids)) != len(doc_ids):
            return "shape: duplicate document in ranking"
        scores = [score for _, score in ranked]
        if any(b > a for a, b in zip(scores, scores[1:])):
            return "shape: scores not descending"

        lower: dict[str, float] = {}
        upper: dict[str, float] = {}
        for term in terms:
            readable = {
                doc_id: rscore
                for doc_id, rscore in self.postings.get(term, {}).items()
                if self.doc_group[doc_id] in memberships
            }
            if term not in self._rstf:
                for doc_id, rscore in readable.items():
                    upper[doc_id] = upper.get(doc_id, 0.0) + rscore
                continue
            trs = {d: self._trs(term, r) for d, r in readable.items()}
            ordered = sorted(trs.values(), reverse=True)
            threshold = ordered[k - 1] if len(ordered) >= k else float("-inf")
            for doc_id, rscore in readable.items():
                if trs[doc_id] >= threshold:
                    upper[doc_id] = upper.get(doc_id, 0.0) + rscore
                    if trs[doc_id] > threshold:
                        lower[doc_id] = lower.get(doc_id, 0.0) + rscore
        for doc_id, score in ranked:
            low, high = lower.get(doc_id, 0.0), upper.get(doc_id, 0.0)
            if not low - _EPS <= score <= high + _EPS:
                return (
                    f"top-k bound: {doc_id!r} scored {score!r}, "
                    f"model allows [{low!r}, {high!r}]"
                )
        weakest = scores[-1] if len(ranked) == k else 0.0
        returned = set(doc_ids)
        for doc_id, low in lower.items():
            if doc_id not in returned and low > weakest + _EPS:
                return f"top-k bound: {doc_id!r} (score >= {low!r}) is missing"
        return None
