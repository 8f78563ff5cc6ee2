"""Bad: mutating a merged list / reaching server state outside the log."""

from repro.core.server import ZerberRServer


def sneak_insert(server, list_id: int, element) -> None:
    merged = server._lists[list_id]  # private state of a foreign object
    merged.add_sorted_by_trs(element)  # replicas never see this write


def sneak_delete(merged, position: int):
    return merged.pop_at(position)


def sneak_ops(server, list_id: int, ops) -> None:
    server.apply_replicated_ops([(list_id, ops)])  # ops no log recorded


def bare_shard(keys, num_lists: int):
    return ZerberRServer(keys, num_lists=num_lists)  # a server with no log
