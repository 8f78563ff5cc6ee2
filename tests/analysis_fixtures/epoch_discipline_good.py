"""Good: the routed batch pins the epoch it was routed under.

Linted as ``repro.core.router``.
"""

from typing import Any

from repro.core.protocol import BatchFetchRequest, FetchRequest


def route(cluster: Any, requests: tuple[FetchRequest, ...]) -> BatchFetchRequest:
    return BatchFetchRequest(requests, epoch=cluster.placement_epoch)


def replicas(cluster: Any, list_id: int) -> list[int]:
    return cluster.replicas_of(list_id)
