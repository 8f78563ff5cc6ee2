"""Bad: a layer outside the write pipeline applies ops to one replica."""

from repro.core.cluster import ServerCluster
from repro.core.replication import ReplicationOp
from repro.index.postings import EncryptedPostingElement


def patch_primary(
    cluster: ServerCluster, list_id: int, element: EncryptedPostingElement
) -> None:
    primary = cluster.server(cluster.replicas_of(list_id)[0])
    # The primary changes; the log, and so every follower, never hears of it.
    primary.apply_replicated_ops([(list_id, [ReplicationOp(1, "insert", element)])])
