"""Shared benchmark fixtures: the two collections, systems, and workloads.

Everything heavy is session-scoped and built once:

* ``studip`` / ``odp`` — the two synthetic collections, standing in for
  the paper's StudIP snapshot and ODP crawl, which are not public: every
  figure depends only on their distributional shape (Zipfian document
  frequencies, power-law raw TF, group partitioning), which
  :mod:`repro.corpus.synthetic` reproduces.
* assembled Zerber+R systems, ordinary indexes, and query logs per
  collection.

Benchmarks run the paper's measurement once per figure
(``benchmark.pedantic(..., rounds=1)``) and print the paper-shaped table;
assertions encode the qualitative shape of the paper's curve (a minimum,
a crossover, an ordering), not its absolute numbers, which depend on the
private collections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro import OrdinaryInvertedIndex, SystemConfig, ZerberRSystem
from repro.corpus import QueryLogConfig, QueryLogGenerator, odp_like, studip_like
from repro.core.protocol import ResponsePolicy
from repro.text.vocabulary import Vocabulary

# Collection sizes: large enough to show the paper's shapes, small enough
# to keep the whole benchmark suite in the minutes range.  Paper-scale runs
# (8.5k / 237k documents) are a parameter change: nothing in the generator
# is quadratic.
STUDIP_DOCS = 400
STUDIP_VOCAB = 5000
ODP_DOCS = 600
ODP_VOCAB = 6000
# ~50 query instances per vocabulary term, the ratio of the paper's log
# (7M queries / 135k distinct terms); head dominance in Fig. 10 needs it.
WORKLOAD_QUERIES = 30000


@dataclass(frozen=True)
class Collection:
    """One evaluation collection with its derived artifacts."""

    name: str
    corpus: object
    system: ZerberRSystem
    ordinary: OrdinaryInvertedIndex
    vocabulary: Vocabulary
    query_log: object

    def workload_terms(self, max_terms: int, rng_seed: int = 5) -> list[str]:
        """Query terms sampled from the log, weighted by frequency.

        Restricted to indexed terms (the log can contain any vocabulary
        term).  Sampling *with* replacement by frequency mirrors replaying
        the workload: frequent terms appear multiple times, which is what
        Eq. 13's averaging expects.
        """
        freqs = self.query_log.term_frequencies()
        terms = [t for t in freqs if t in self.vocabulary]
        weights = np.array([freqs[t] for t in terms], dtype=float)
        weights /= weights.sum()
        rng = np.random.default_rng(rng_seed)
        chosen = rng.choice(len(terms), size=max_terms, replace=True, p=weights)
        return [terms[i] for i in chosen]


def _build_collection(name: str) -> Collection:
    if name == "studip":
        corpus = studip_like(
            num_documents=STUDIP_DOCS, vocabulary_size=STUDIP_VOCAB, seed=7
        )
    else:
        corpus = odp_like(num_documents=ODP_DOCS, vocabulary_size=ODP_VOCAB, seed=11)
    system = ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=41))
    ordinary = OrdinaryInvertedIndex.from_documents(corpus.all_stats())
    vocabulary = ordinary.vocabulary
    query_log = QueryLogGenerator(
        vocabulary, QueryLogConfig(num_queries=WORKLOAD_QUERIES, seed=13)
    ).generate()
    return Collection(
        name=name,
        corpus=corpus,
        system=system,
        ordinary=ordinary,
        vocabulary=vocabulary,
        query_log=query_log,
    )


@pytest.fixture(scope="session")
def studip() -> Collection:
    return _build_collection("studip")


@pytest.fixture(scope="session")
def odp() -> Collection:
    return _build_collection("odp")


@pytest.fixture(scope="session")
def collections(studip, odp) -> list[Collection]:
    return [studip, odp]


def run_topk_workload(
    collection: Collection,
    terms: list[str],
    k: int,
    initial_size: int,
) -> list:
    """Execute single-term top-k queries and return their traces."""
    policy = ResponsePolicy(initial_size=initial_size)
    client = collection.system.client_for("superuser")
    traces = []
    for term in terms:
        result = client.query(term, k=k, policy=policy)
        traces.append(result.trace)
    return traces


# Workload size per (collection, k, b) configuration for Figs. 11-13.
WORKLOAD_SAMPLE_TERMS = 80

_trace_cache: dict[tuple[str, int, int], list] = {}


def cached_workload_traces(collection: Collection, k: int, initial_size: int) -> list:
    """Traces for a frequency-weighted workload sample, cached per config.

    Figs. 11, 12 and 13 aggregate the *same* query executions three ways;
    the cache ensures each configuration runs once per session.
    """
    key = (collection.name, k, initial_size)
    cached = _trace_cache.get(key)
    if cached is None:
        terms = collection.workload_terms(WORKLOAD_SAMPLE_TERMS)
        cached = run_topk_workload(collection, terms, k, initial_size)
        _trace_cache[key] = cached
    return cached


def print_series(title: str, header: list[str], rows: list[list]) -> None:
    """Print one paper-shaped table under a banner."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
