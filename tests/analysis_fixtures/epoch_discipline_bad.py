"""Bad: routed batches without their epoch, and a direct placement read.

Linted as ``repro.core.router`` — the one layer that routes a batch
before it is served.
"""

from typing import Any

from repro.core.protocol import BatchFetchRequest, FetchRequest


def route_without_epoch(requests: tuple[FetchRequest, ...]) -> BatchFetchRequest:
    return BatchFetchRequest(requests)


def route_with_none(requests: tuple[FetchRequest, ...]) -> BatchFetchRequest:
    return BatchFetchRequest(requests, epoch=None)


def peek_placement(cluster: Any, list_id: int) -> Any:
    return cluster._placement[list_id]
