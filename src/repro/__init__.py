"""Zerber+R — top-k retrieval from a confidential inverted index.

Reproduction of Zerr et al., "Zerber+R: Top-k Retrieval from a Confidential
Index", EDBT 2009.  The public API re-exports the pieces a downstream user
needs: build a :class:`ZerberRSystem` over a :class:`Corpus`, query it
through clients, and evaluate confidentiality/efficiency with the attack
and metric modules.

Quickstart::

    from repro import ZerberRSystem, SystemConfig, studip_like

    corpus = studip_like(num_documents=200)
    system = ZerberRSystem.build(corpus, SystemConfig(r=4.0))
    result = system.query("term000010", k=10)
    print(result.doc_ids(), result.trace.num_requests)
"""

from repro.errors import (
    AccessDeniedError,
    BackpressureError,
    ConfigurationError,
    ProtocolError,
    QuorumUnavailableError,
    QuorumWriteUnavailableError,
    ReproError,
    TrainingError,
    UnavailableError,
    UnknownListError,
    UnknownTermError,
)
from repro.corpus import (
    Corpus,
    Document,
    Query,
    QueryLogConfig,
    QueryLogGenerator,
    odp_like,
    studip_like,
    tiny_corpus,
)
from repro.core import (
    BackpressureSignal,
    BatchFetchRequest,
    BatchFetchResponse,
    BatchQueryTrace,
    ClientQuerySession,
    Coordinator,
    CoordinatorStats,
    FailoverEvent,
    MultiQueryResult,
    QueryResult,
    QueryTrace,
    ReadConsistency,
    Receipt,
    ReplicationStats,
    ResponsePolicy,
    Rstf,
    RstfModel,
    RstfTrainer,
    SystemConfig,
    WriteConsistency,
    ZerberRClient,
    ZerberRSystem,
)
from repro.core.rstf import TrainerConfig
from repro.core.cluster import ServerCluster
from repro.core.idf import BucketedIdf, aggregate_with_idf
from repro.persist import load_cluster, save_cluster
from repro.index import (
    MergePlan,
    OrdinaryInvertedIndex,
    bfm_merge,
    greedy_pairing_merge,
)
from repro.text import Tokenizer, Vocabulary

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "UnknownTermError",
    "UnknownListError",
    "AccessDeniedError",
    "ProtocolError",
    "BackpressureError",
    "UnavailableError",
    "QuorumUnavailableError",
    "QuorumWriteUnavailableError",
    "TrainingError",
    # corpus
    "Corpus",
    "Document",
    "Query",
    "QueryLogConfig",
    "QueryLogGenerator",
    "studip_like",
    "odp_like",
    "tiny_corpus",
    # core
    "ZerberRSystem",
    "SystemConfig",
    "ZerberRClient",
    "QueryResult",
    "QueryTrace",
    "Receipt",
    "ResponsePolicy",
    "BatchFetchRequest",
    "BatchFetchResponse",
    "BatchQueryTrace",
    "BackpressureSignal",
    "ClientQuerySession",
    "Coordinator",
    "CoordinatorStats",
    "MultiQueryResult",
    "ReadConsistency",
    "WriteConsistency",
    "FailoverEvent",
    "ReplicationStats",
    "Rstf",
    "RstfModel",
    "RstfTrainer",
    "TrainerConfig",
    "ServerCluster",
    "BucketedIdf",
    "aggregate_with_idf",
    "save_cluster",
    "load_cluster",
    # index
    "MergePlan",
    "OrdinaryInvertedIndex",
    "bfm_merge",
    "greedy_pairing_merge",
    # text
    "Tokenizer",
    "Vocabulary",
]
