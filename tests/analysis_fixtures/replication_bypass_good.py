"""Good: writes go through the cluster; reads use public accessors."""

from repro.core.cluster import ServerCluster


def one_server(keys, num_lists: int) -> ServerCluster:
    return ServerCluster(keys, num_lists=num_lists, num_servers=1)


def insert_via_cluster(cluster, principal: str, list_id: int, element) -> None:
    cluster.insert(principal, list_id, element)


def groups_of(server, list_id: int) -> set[str]:
    return set(server.visible_group_tags(list_id))
