"""Bucketed IDF — the paper's future-work extension, implemented.

Paper §3.2: exact global IDF "leaks critical statistical data about
inaccessible documents", so Zerber+R drops it and accepts degraded
multi-term accuracy; "inclusion of collection-wide statistics such as IDF
is a topic for future work."

This module implements the natural middle ground: IDF **quantized into a
small number of public buckets**, computed once at index initialisation
from the same training sample as the RSTF, with optional noise on the
document frequencies before bucketing.  The defender controls leakage
directly — publishing the bucket of a term reveals at most
``log2(num_buckets)`` bits about its document frequency, versus the full
df that exact IDF exposes — while multi-term queries recover most of the
selectivity weighting that Eq. 3 provides.

The trade-off is measured in ``tests/test_core_idf.py`` and the
``bench_ext_idf_buckets.py`` ablation: accuracy against the TFxIDF
reference improves monotonically with bucket count, and so does leakage.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.text.analysis import DocumentStats
from repro.text.vocabulary import Vocabulary


class BucketedIdf:
    """Public coarse-grained IDF weights.

    Attributes
    ----------
    num_buckets:
        Quantisation resolution; leakage is bounded by ``log2`` of it.
    """

    def __init__(
        self,
        buckets: Mapping[str, int],
        weights: Mapping[int, float],
        num_buckets: int,
    ) -> None:
        if num_buckets < 1:
            raise ConfigurationError("num_buckets must be >= 1")
        for term, bucket in buckets.items():
            if not 0 <= bucket < num_buckets:
                raise ConfigurationError(
                    f"bucket of {term!r} out of range: {bucket}"
                )
        self._buckets = dict(buckets)
        self._weights = dict(weights)
        self.num_buckets = num_buckets

    # -- construction ----------------------------------------------------------

    @classmethod
    def train(
        cls,
        documents: Iterable[DocumentStats],
        num_buckets: int = 4,
        noise_scale: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> "BucketedIdf":
        """Quantise training-set IDF into *num_buckets* equal-width levels.

        ``noise_scale`` adds Laplace noise to each df before computing the
        IDF (a DP-flavoured knob; 0 disables it).  Bucket weights are the
        mean exact IDF of the bucket's terms — a representative the client
        multiplies scores by.
        """
        if num_buckets < 1:
            raise ConfigurationError("num_buckets must be >= 1")
        if noise_scale < 0:
            raise ConfigurationError("noise_scale must be >= 0")
        vocabulary = Vocabulary.from_documents(documents)
        if vocabulary.num_terms == 0:
            raise TrainingError("no terms in the IDF training sample")
        # A fixed default seed keeps repro.core replayable (determinism
        # contract); callers wanting varied noise pass their own rng.
        rng = rng if rng is not None else np.random.default_rng(0)
        n = vocabulary.num_documents

        idfs: dict[str, float] = {}
        for term in vocabulary:
            df = vocabulary.document_frequency(term)
            if noise_scale > 0:
                df = df + float(rng.laplace(0.0, noise_scale))
            df = min(max(df, 1.0), float(n))
            idfs[term] = math.log(n / df)

        low = min(idfs.values())
        high = max(idfs.values())
        span = max(high - low, 1e-12)
        buckets: dict[str, int] = {}
        members: dict[int, list[float]] = {}
        for term, idf in idfs.items():
            bucket = min(int((idf - low) / span * num_buckets), num_buckets - 1)
            buckets[term] = bucket
            members.setdefault(bucket, []).append(idf)
        weights = {
            bucket: float(np.mean(values)) for bucket, values in members.items()
        }
        # Empty buckets get the linear interpolant so weight() is total.
        for bucket in range(num_buckets):
            if bucket not in weights:
                weights[bucket] = low + (bucket + 0.5) / num_buckets * span
        return cls(buckets=buckets, weights=weights, num_buckets=num_buckets)

    # -- lookup -------------------------------------------------------------------

    def bucket(self, term: str) -> int:
        """The published bucket of *term*; unseen terms get the top bucket
        (training-unseen terms "are assumed to be rare", hence selective)."""
        return self._buckets.get(term, self.num_buckets - 1)

    def weight(self, term: str) -> float:
        """The representative IDF weight the client multiplies by."""
        return self._weights[self.bucket(term)]


def aggregate_with_idf(
    per_term_hits: Mapping[str, Iterable], idf: BucketedIdf | None
) -> list[tuple[str, float]]:
    """Combine single-term results into a multi-term ranking.

    *per_term_hits* maps each query term to its hits (objects with
    ``doc_id`` and ``rscore``).  With ``idf=None`` this is the paper's
    plain summation; with a :class:`BucketedIdf` each term's scores are
    weighted by its public bucket weight (the Eq. 3 shape, coarse IDF).
    """
    scores: dict[str, float] = {}
    for term, hits in per_term_hits.items():
        factor = idf.weight(term) if idf is not None else 1.0
        for hit in hits:
            scores[hit.doc_id] = scores.get(hit.doc_id, 0.0) + hit.rscore * factor
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
