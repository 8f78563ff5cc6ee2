"""Good: the ops a log recorded go to a replica in one call, as the
replication manager and the cluster hand them over."""

from collections.abc import Sequence

from repro.core.replication import ReplicationLog
from repro.core.server import ZerberRServer


def deliver(
    servers: Sequence[ZerberRServer],
    log: ReplicationLog,
    server_index: int,
    upto_seq: int,
) -> int:
    ops = log.advance(server_index, upto_seq)
    servers[server_index].apply_replicated_ops([(log.list_id, ops)])
    return len(ops)
