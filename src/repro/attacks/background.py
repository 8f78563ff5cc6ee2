"""Adversary background knowledge B (paper §3.1).

r-confidentiality is defined *relative* to what the adversary already
knows: "an adversary's background knowledge of the document corpus or
general language statistics".  We model B as

* per-term occurrence priors ``p_t`` (normalized document frequency), and
* per-term reference score distributions (samples of normalized TF from a
  public or leaked reference corpus),

built from any document collection — typically a public corpus with the
same language statistics, or, worst case for the defender, the system's own
training set.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import UnknownTermError
from repro.text.analysis import DocumentStats
from repro.text.vocabulary import Vocabulary


class BackgroundKnowledge:
    """What Alice knows before looking at the index."""

    def __init__(
        self,
        priors: Mapping[str, float],
        score_samples: Mapping[str, list[float]],
    ) -> None:
        if not priors:
            raise ValueError("background priors are empty")
        self._priors = dict(priors)
        self._samples = {t: sorted(s) for t, s in score_samples.items() if s}

    @classmethod
    def from_documents(
        cls, documents: Iterable[DocumentStats]
    ) -> "BackgroundKnowledge":
        """Build B from a reference collection."""
        docs = list(documents)
        vocabulary = Vocabulary.from_documents(docs)
        priors = {t: vocabulary.probability(t) for t in vocabulary}
        samples: dict[str, list[float]] = {}
        for doc in docs:
            for term, tf in doc.counts.items():
                samples.setdefault(term, []).append(tf / doc.length)
        return cls(priors=priors, score_samples=samples)

    # -- accessors -----------------------------------------------------------

    def prior(self, term: str) -> float:
        """``P(t in d | B)`` — the Def. 1 denominator."""
        p = self._priors.get(term)
        if p is None:
            raise UnknownTermError(term)
        return p

    def has_samples(self, term: str) -> bool:
        return term in self._samples

    def score_samples(self, term: str) -> list[float]:
        """Reference relevance-score samples for *term* (sorted)."""
        samples = self._samples.get(term)
        if samples is None:
            raise UnknownTermError(term)
        return list(samples)

    def score_log_likelihood(self, term: str, scores) -> float:
        """Log-likelihood of observed *scores* under the term's reference
        density (Gaussian-sum KDE with spacing-matched bandwidth).

        This is the adversary's statistical engine: she compares observed
        server-visible score distributions against her reference densities.
        """
        from repro.core.sigma import heuristic_sigma
        from repro.stats.gaussian import gaussian_sum_pdf

        samples = np.asarray(self.score_samples(term), dtype=float)
        sigma = heuristic_sigma(samples)
        density = gaussian_sum_pdf(np.asarray(scores, dtype=float), samples, sigma)
        # Floor the density: a zero-likelihood reference would veto a term
        # on one outlier, which makes the attack look *weaker* than it is.
        return float(np.sum(np.log(np.maximum(density, 1e-12))))
