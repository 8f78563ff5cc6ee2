"""Synthetic document collections with the paper's distributional shape.

The paper evaluates on two private collections (a StudIP LMS snapshot and an
ODP web crawl) that are not publicly archived.  Every experiment depends
only on distributional properties of those collections:

* Zipfian document frequencies (heavy head of frequent terms),
* power-law raw term-frequency distributions (Fig. 4),
* term-specific but non-power-law *normalized* TF distributions (Fig. 5),
* documents partitioned into collaboration groups (courses / topics).

We reproduce those with a topic-mixture language model: each group (course
or web topic) has its own Zipf-weighted sub-vocabulary layered over a global
Zipf background.  A document of group ``g`` draws its tokens from
``topic_weight * topic_g + (1 - topic_weight) * background``.  Topic terms
therefore concentrate their normalized TF around the topic weight (specific,
non-power-law) while background terms span the full power-law range —
exactly the Fig. 4 vs. Fig. 5 contrast.

Scale: defaults are CI-friendly (hundreds to a couple thousand documents).
Paper-scale collections (8.5k / 237k documents) are reachable by passing
larger parameters; nothing in the generator is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.documents import Corpus, Document
from repro.stats.distributions import zipf_probabilities


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Parameters of the topic-mixture generator.

    Attributes
    ----------
    num_documents / vocabulary_size / num_groups:
        Collection dimensions.
    background_exponent:
        Zipf exponent of the shared background distribution; ~1.0-1.2 gives
        realistic document-frequency heads.
    topic_vocabulary_size:
        Number of terms in each group's topical sub-vocabulary (sampled
        without replacement from the global vocabulary, skewed towards
        mid-frequency terms, where topical words live).
    topic_exponent:
        Zipf exponent within a topic sub-vocabulary.
    topic_weight:
        Probability that a token is drawn from the topic rather than the
        background distribution.
    doc_length_median / doc_length_sigma:
        Log-normal document length model (in tokens).
    min_doc_length / max_doc_length:
        Hard clips on sampled lengths.
    seed:
        Generator seed; the corpus is a deterministic function of the config.
    name:
        Corpus name (propagated to :class:`~repro.corpus.documents.Corpus`).
    """

    num_documents: int = 800
    vocabulary_size: int = 8000
    num_groups: int = 20
    background_exponent: float = 1.1
    topic_vocabulary_size: int = 400
    topic_exponent: float = 0.9
    topic_weight: float = 0.35
    doc_length_median: float = 220.0
    doc_length_sigma: float = 0.7
    min_doc_length: int = 20
    max_doc_length: int = 4000
    seed: int = 7
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.num_documents <= 0:
            raise ValueError("num_documents must be positive")
        if self.vocabulary_size <= 1:
            raise ValueError("vocabulary_size must be > 1")
        if not 1 <= self.num_groups <= self.num_documents:
            raise ValueError("num_groups must be in [1, num_documents]")
        if not 0 < self.topic_vocabulary_size <= self.vocabulary_size:
            raise ValueError("topic_vocabulary_size must be in [1, vocabulary_size]")
        if not 0.0 <= self.topic_weight < 1.0:
            raise ValueError("topic_weight must be in [0, 1)")
        if self.min_doc_length < 1 or self.max_doc_length < self.min_doc_length:
            raise ValueError("invalid document length bounds")


class SyntheticCorpusGenerator:
    """Generates a :class:`Corpus` from a :class:`SyntheticCorpusConfig`."""

    def __init__(self, config: SyntheticCorpusConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._terms = [f"term{i:06d}" for i in range(config.vocabulary_size)]
        self._background = zipf_probabilities(
            config.vocabulary_size, config.background_exponent
        )
        self._group_probs = self._build_group_mixtures()

    # -- internals ---------------------------------------------------------

    def _build_group_mixtures(self) -> list[np.ndarray]:
        """Per-group mixed token distributions (topic ⊕ background)."""
        cfg = self.config
        v = cfg.vocabulary_size
        # Topical words are mid-frequency: sample topic vocabularies with a
        # bias away from the extreme head (stopword-like) and the extreme
        # tail (hapax-like) of the background ranking.
        ranks = np.arange(v, dtype=float)
        mid = v / 4.0
        spread = v / 3.0
        bias = np.exp(-0.5 * ((ranks - mid) / spread) ** 2) + 1e-9
        bias /= bias.sum()
        topic_zipf = zipf_probabilities(cfg.topic_vocabulary_size, cfg.topic_exponent)
        mixtures: list[np.ndarray] = []
        for _ in range(cfg.num_groups):
            topic_terms = self._rng.choice(
                v, size=cfg.topic_vocabulary_size, replace=False, p=bias
            )
            topic = np.zeros(v)
            # Shuffle ranks within the topic so different topics emphasise
            # different words even when their vocabularies overlap.
            order = self._rng.permutation(cfg.topic_vocabulary_size)
            topic[topic_terms] = topic_zipf[order]
            mixed = cfg.topic_weight * topic + (1.0 - cfg.topic_weight) * self._background
            mixtures.append(mixed)
        return mixtures

    def _sample_length(self) -> int:
        cfg = self.config
        length = self._rng.lognormal(np.log(cfg.doc_length_median), cfg.doc_length_sigma)
        return int(np.clip(length, cfg.min_doc_length, cfg.max_doc_length))

    # -- public API ----------------------------------------------------------

    def generate(self) -> Corpus:
        """Materialise the corpus (deterministic for a given config)."""
        cfg = self.config
        corpus = Corpus(name=cfg.name)
        group_of_doc = self._rng.integers(0, cfg.num_groups, size=cfg.num_documents)
        for i in range(cfg.num_documents):
            group_idx = int(group_of_doc[i])
            probs = self._group_probs[group_idx]
            length = self._sample_length()
            counts_vec = self._rng.multinomial(length, probs)
            nonzero = np.nonzero(counts_vec)[0]
            counts = {self._terms[j]: int(counts_vec[j]) for j in nonzero}
            corpus.add(
                Document(
                    doc_id=f"{cfg.name}-{i:06d}",
                    group=f"group-{group_idx:03d}",
                    counts=counts,
                    metadata={"length": length},
                )
            )
        return corpus


def studip_like(
    num_documents: int = 800,
    vocabulary_size: int = 8000,
    num_groups: int = 33,
    seed: int = 7,
) -> Corpus:
    """A StudIP-shaped collection (course-partitioned LMS documents).

    The paper's snapshot: 8,500 documents, 570k distinct terms, 3,300
    courses.  Defaults are scaled ~10x down for test speed while preserving
    the docs-per-group ratio and length profile; pass paper-scale numbers to
    reproduce at full size.
    """
    config = SyntheticCorpusConfig(
        num_documents=num_documents,
        vocabulary_size=vocabulary_size,
        num_groups=num_groups,
        doc_length_median=220.0,
        doc_length_sigma=0.8,
        topic_weight=0.35,
        seed=seed,
        name="studip",
    )
    return SyntheticCorpusGenerator(config).generate()


def odp_like(
    num_documents: int = 1500,
    vocabulary_size: int = 12000,
    num_groups: int = 100,
    seed: int = 11,
) -> Corpus:
    """An ODP-crawl-shaped collection (100 web topics, longer documents).

    The paper's crawl: 237k documents, 987.7k distinct terms, 100 topics
    with one group per topic.  Defaults are scaled down for test speed.
    """
    config = SyntheticCorpusConfig(
        num_documents=num_documents,
        vocabulary_size=vocabulary_size,
        num_groups=num_groups,
        doc_length_median=380.0,
        doc_length_sigma=0.9,
        topic_weight=0.30,
        background_exponent=1.15,
        topic_vocabulary_size=500,
        seed=seed,
        name="odp",
    )
    return SyntheticCorpusGenerator(config).generate()


def tiny_corpus(seed: int = 3) -> Corpus:
    """A very small corpus for unit tests (fast, deterministic)."""
    config = SyntheticCorpusConfig(
        num_documents=60,
        vocabulary_size=400,
        num_groups=4,
        topic_vocabulary_size=60,
        doc_length_median=80.0,
        doc_length_sigma=0.5,
        min_doc_length=10,
        max_doc_length=400,
        seed=seed,
        name="tiny",
    )
    return SyntheticCorpusGenerator(config).generate()
