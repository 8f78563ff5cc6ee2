"""Bad: a direct read of a cluster's private placement table.

Linted as ``repro.core.router`` — any layer but the cluster and persist
ones that own the table.
"""

from typing import Any


def peek_placement(cluster: Any, list_id: int) -> Any:
    return cluster._placement[list_id]
