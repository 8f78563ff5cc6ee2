"""μ-Serv-style probabilistic index (Bawa, Bayardo, Agrawal — VLDB 2003).

The paper's description (§3, §7): a probabilistic index "suppresses
statistical data introducing a controlled amount of uncertainty by
including false positive elements in the index"; it "does not support
centralized ranking at all", so result quality suffers — the
precision/confidentiality trade-off Zerber's encryption+merging design
avoids.

We model the index as term -> set of document ids, where each term's
posting set is padded with false positives so that an adversary reading the
index cannot tell which documents truly contain the term.  A query returns
the whole (unranked) posting set; the client downloads every referenced
document to filter and rank — both costs are what the benchmarks measure.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.corpus.documents import Corpus
from repro.errors import ConfigurationError, UnknownTermError
from repro.text.analysis import DocumentStats


@dataclass(frozen=True)
class MuServConfig:
    """False-positive policy.

    ``false_positive_rate`` f adds ``ceil(f * df(t))`` decoy documents to
    each term's posting set (sampled uniformly from non-containing
    documents).  f = 1.0 doubles every posting set, halving attack
    precision at double the bandwidth.
    """

    false_positive_rate: float = 1.0
    seed: int = 17

    def __post_init__(self) -> None:
        if self.false_positive_rate < 0:
            raise ConfigurationError("false_positive_rate must be >= 0")


@dataclass(frozen=True)
class MuServQueryOutcome:
    """Unranked result set plus quality/cost accounting."""

    doc_ids: tuple[str, ...]
    true_matches: tuple[str, ...]
    elements_transferred: int

    @property
    def precision(self) -> float:
        """Fraction of returned ids that truly contain the term."""
        if not self.doc_ids:
            return 1.0
        true = set(self.true_matches)
        return sum(1 for d in self.doc_ids if d in true) / len(self.doc_ids)


class MuServIndex:
    """Probabilistic document index with false positives, no ranking."""

    def __init__(self, config: MuServConfig | None = None) -> None:
        self.config = config if config is not None else MuServConfig()
        self._postings: dict[str, set[str]] = {}
        self._truth: dict[str, set[str]] = {}
        self._doc_ids: list[str] = []

    @classmethod
    def build(cls, corpus: Corpus, config: MuServConfig | None = None) -> "MuServIndex":
        index = cls(config)
        index._load(corpus.all_stats())
        return index

    def _load(self, documents: Iterable[DocumentStats]) -> None:
        docs = list(documents)
        self._doc_ids = [d.doc_id for d in docs]
        rng = np.random.default_rng(self.config.seed)
        for doc in docs:
            for term in doc.counts:
                self._truth.setdefault(term, set()).add(doc.doc_id)
        for term, true_set in sorted(self._truth.items()):
            padded = set(true_set)
            n_false = int(np.ceil(self.config.false_positive_rate * len(true_set)))
            candidates = [d for d in self._doc_ids if d not in true_set]
            if candidates and n_false > 0:
                chosen = rng.choice(
                    len(candidates), size=min(n_false, len(candidates)), replace=False
                )
                padded.update(candidates[i] for i in chosen)
            self._postings[term] = padded

    # -- index surface (what an adversary reading the server sees) -----------

    def visible_posting_set(self, term: str) -> set[str]:
        """The padded posting set stored server-side."""
        postings = self._postings.get(term)
        if postings is None:
            raise UnknownTermError(term)
        return set(postings)

    # -- querying ---------------------------------------------------------------

    def query(self, term: str) -> MuServQueryOutcome:
        """Return the unranked padded posting set (no top-k possible)."""
        postings = self.visible_posting_set(term)
        true = self._truth.get(term, set())
        return MuServQueryOutcome(
            doc_ids=tuple(sorted(postings)),
            true_matches=tuple(sorted(true)),
            elements_transferred=len(postings),
        )
