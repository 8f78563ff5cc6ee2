"""Zerber+R core: RSTF, σ selection, confidentiality, server/client/protocol."""

from repro.core.scoring import extract_term_scores
from repro.core.rstf import Rstf, RstfModel, RstfTrainer, train_rstf
from repro.core.sigma import (
    default_sigma_grid,
    heuristic_sigma,
    select_sigma,
    trs_variance_for_sigma,
)
from repro.core.confidentiality import (
    audit_merge_plan,
    ConfidentialityAudit,
)
from repro.core.protocol import (
    BackpressureSignal,
    BatchFetchRequest,
    BatchFetchResponse,
    BatchQueryTrace,
    FetchRequest,
    FetchResponse,
    QueryTrace,
    Receipt,
    ResponsePolicy,
)
from repro.core.ordstat import OrderStatList
from repro.core.views import ReadableViewIndex, ViewStats
from repro.core.client import (
    ClientQuerySession,
    MultiQueryResult,
    QueryResult,
    ZerberRClient,
)
from repro.core.cluster import round_robin_placement
from repro.core.replication import (
    FailoverEvent,
    ReadConsistency,
    ReplicationManager,
    ReplicationOp,
    ReplicationStats,
    WriteConsistency,
)
from repro.core.router import Coordinator, CoordinatorStats
from repro.core.system import ZerberRSystem, SystemConfig

__all__ = [
    "extract_term_scores",
    "Rstf",
    "RstfModel",
    "RstfTrainer",
    "train_rstf",
    "default_sigma_grid",
    "heuristic_sigma",
    "select_sigma",
    "trs_variance_for_sigma",
    "audit_merge_plan",
    "ConfidentialityAudit",
    "BackpressureSignal",
    "BatchFetchRequest",
    "BatchFetchResponse",
    "BatchQueryTrace",
    "FetchRequest",
    "FetchResponse",
    "QueryTrace",
    "Receipt",
    "ResponsePolicy",
    "OrderStatList",
    "ReadableViewIndex",
    "ViewStats",
    "ClientQuerySession",
    "ZerberRClient",
    "MultiQueryResult",
    "QueryResult",
    "round_robin_placement",
    "FailoverEvent",
    "ReadConsistency",
    "ReplicationManager",
    "ReplicationOp",
    "ReplicationStats",
    "WriteConsistency",
    "Coordinator",
    "CoordinatorStats",
    "ZerberRSystem",
    "SystemConfig",
]
