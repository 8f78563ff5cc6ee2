"""Evaluation metrics: bandwidth (Eq. 12-14), workload (Eq. 9-11),
retrieval quality, storage accounting, and the §6.6 network model."""

from repro.evalmetrics.bandwidth import (
    average_bandwidth_overhead,
    average_num_requests,
    efficiency_curve,
)
from repro.evalmetrics.workload import (
    cumulative_workload_curve,
    expected_first_position,
    expected_retrieval_count,
    workload_cost,
)
from repro.evalmetrics.retrieval import (
    kendall_tau,
    overlap_at_k,
)
from repro.evalmetrics.storage import StorageReport, compare_storage
from repro.evalmetrics.netmodel import NetworkModel, COMPETITOR_RESPONSE_KB

__all__ = [
    "average_bandwidth_overhead",
    "average_num_requests",
    "efficiency_curve",
    "cumulative_workload_curve",
    "expected_first_position",
    "expected_retrieval_count",
    "workload_cost",
    "kendall_tau",
    "overlap_at_k",
    "StorageReport",
    "compare_storage",
    "NetworkModel",
    "COMPETITOR_RESPONSE_KB",
]
