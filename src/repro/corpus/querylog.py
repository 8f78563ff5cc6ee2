"""Synthetic web-search query workload (paper §6.1.3, Fig. 10).

The paper uses a commercial web search engine log: 7M queries, 2.4 terms on
average, 135k distinct query terms, with the head of the frequency-ranked
terms dominating the cumulative top-k workload (Fig. 10).  Two facts drive
the Zerber+R experiments:

* query frequencies are heavily skewed (power law), and
* query frequency correlates with document frequency, with outliers —
  "some frequent terms are rarely queried (e.g., 'although')" [15].

The generator samples query-term weights as ``df(t)^alpha * lognormal
noise``, demotes a configurable fraction of head terms to model the
'although' effect, and draws query lengths as ``1 + Poisson(mean - 1)`` to
hit the 2.4 terms/query average.  Multi-term queries are executed by
Zerber+R as sequences of single-term queries (paper §3.2), so the log also
exposes the flattened single-term workload.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.text.vocabulary import Vocabulary


@dataclass(frozen=True)
class Query:
    """One keyword query (tuple of distinct terms, order irrelevant)."""

    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a query must contain at least one term")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("query terms must be distinct")


class QueryLog:
    """An aggregated query workload: query -> occurrence count."""

    def __init__(self, counts: dict[Query, int]) -> None:
        for query, count in counts.items():
            if count <= 0:
                raise ValueError(f"count for {query} must be positive")
        self._counts = dict(counts)

    def items(self) -> Iterator[tuple[Query, int]]:
        """(query, count) pairs in descending count order."""
        return iter(
            sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0].terms))
        )

    def __iter__(self) -> Iterator[Query]:
        """Iterate over query instances with multiplicity (workload replay)."""
        for query, count in self.items():
            for _ in range(count):
                yield query

    def term_frequencies(self) -> Counter[str]:
        """Single-term query frequencies ``q_j`` (paper Eq. 9).

        A multi-term query contributes one single-term query per term,
        because Zerber+R executes it as a sequence of single-term queries.
        """
        freqs: Counter[str] = Counter()
        for query, count in self._counts.items():
            for term in query.terms:
                freqs[term] += count
        return freqs


@dataclass(frozen=True)
class QueryLogConfig:
    """Parameters of the query-log generator.

    Attributes
    ----------
    num_queries:
        Number of query instances to draw.
    mean_terms_per_query:
        Target average query length (paper: 2.4); realised as
        ``1 + Poisson(mean - 1)``.
    popularity_exponent:
        Zipf exponent of query popularity over the (noisy) df ranking.
        Real web logs are strongly head-heavy; the default (1.35) is
        calibrated so that the *cost-weighted* cumulative workload curve
        (Eq. 9) saturates in the head as in the paper's Fig. 10 — rare
        terms cost a whole merged list per query, so the raw query
        frequency skew must over-compensate.
    rank_noise_sigma:
        Log-normal noise applied to df before ranking — decorrelates query
        rank from df rank without destroying the overall correlation.
    demoted_head_fraction:
        Fraction of the most document-frequent terms that are *demoted* —
        frequent in documents but rarely queried ('although').
    demotion_factor:
        Multiplicative weight penalty applied to demoted terms.
    max_query_terms:
        Upper clip on query length.
    seed:
        RNG seed.
    """

    num_queries: int = 20000
    mean_terms_per_query: float = 2.4
    popularity_exponent: float = 1.5
    rank_noise_sigma: float = 0.35
    demoted_head_fraction: float = 0.02
    demotion_factor: float = 1e-3
    max_query_terms: int = 6
    seed: int = 13

    def __post_init__(self) -> None:
        if self.num_queries <= 0:
            raise ValueError("num_queries must be positive")
        if self.mean_terms_per_query < 1.0:
            raise ValueError("mean_terms_per_query must be >= 1")
        if not 0.0 <= self.demoted_head_fraction < 1.0:
            raise ValueError("demoted_head_fraction must be in [0, 1)")
        if not 0.0 < self.demotion_factor <= 1.0:
            raise ValueError("demotion_factor must be in (0, 1]")
        if self.max_query_terms < 1:
            raise ValueError("max_query_terms must be >= 1")


class QueryLogGenerator:
    """Draws a :class:`QueryLog` against a corpus vocabulary."""

    def __init__(self, vocabulary: Vocabulary, config: QueryLogConfig | None = None):
        if vocabulary.num_terms == 0:
            raise ValueError("vocabulary is empty")
        self.vocabulary = vocabulary
        self.config = config if config is not None else QueryLogConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._terms, self._probs = self._term_distribution()

    def _term_distribution(self) -> tuple[list[str], np.ndarray]:
        from repro.stats.distributions import zipf_probabilities

        cfg = self.config
        terms = self.vocabulary.terms_by_frequency()
        dfs = np.array(
            [self.vocabulary.document_frequency(t) for t in terms], dtype=float
        )
        # Query popularity = Zipf over the noisy df ranking: the head-heavy
        # law real logs follow, correlated with df but not identical to it.
        noisy = dfs * self._rng.lognormal(0.0, cfg.rank_noise_sigma, size=len(terms))
        order = np.argsort(-noisy, kind="stable")
        weights = np.empty(len(terms))
        weights[order] = zipf_probabilities(len(terms), cfg.popularity_exponent)
        # Demote a slice of the df head: frequent terms that are rarely
        # queried, the "although" effect.
        n_head = int(len(terms) * cfg.demoted_head_fraction)
        if n_head > 0:
            demote = self._rng.random(n_head) < 0.5
            weights[:n_head][demote] *= cfg.demotion_factor
        total = weights.sum()
        if total <= 0:
            raise ValueError("degenerate term weights")
        return terms, weights / total

    def generate(self) -> QueryLog:
        """Draw the workload (deterministic for a given config+vocabulary).

        Terms within a query are drawn i.i.d. from the popularity
        distribution; duplicates are replaced by extra draws (bounded
        retries) so query lengths match the target, which keeps
        generation O(total query terms · log V) and lets benchmarks use
        paper-scale workloads.
        """
        cfg = self.config
        lengths = 1 + self._rng.poisson(cfg.mean_terms_per_query - 1.0, cfg.num_queries)
        lengths = np.minimum(lengths, cfg.max_query_terms)
        lengths = np.minimum(lengths, len(self._terms))
        total = int(lengths.sum())
        cumulative = np.cumsum(self._probs)
        cumulative[-1] = 1.0  # guard against rounding at the boundary
        draws = np.searchsorted(cumulative, self._rng.random(total), side="left")
        counts: Counter[Query] = Counter()
        cursor = 0
        max_retries = 8
        for length in lengths:
            length = int(length)
            idx = draws[cursor : cursor + length]
            cursor += length
            unique = {self._terms[i] for i in idx}
            retries = 0
            while len(unique) < length and retries < max_retries * length:
                extra = int(
                    np.searchsorted(cumulative, self._rng.random(), side="left")
                )
                unique.add(self._terms[extra])
                retries += 1
            counts[Query(terms=tuple(sorted(unique)))] += 1
        return QueryLog(dict(counts))
