"""Good: the placement is read through the cluster's public accessor.

Linted as ``repro.core.router``.
"""

from typing import Any


def replicas(cluster: Any, list_id: int) -> list[int]:
    return cluster.replicas_of(list_id)
