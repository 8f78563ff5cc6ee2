"""Bad: mutating a merged list / reaching server state outside the log."""


def sneak_insert(server, list_id: int, element) -> None:
    merged = server._lists[list_id]  # private state of a foreign object
    merged.add_sorted_by_trs(element)  # replicas never see this write


def sneak_delete(merged, position: int):
    return merged.pop_at(position)


def sneak_bulk_load(merged, elements) -> None:
    merged.bulk_load_sorted_by_trs(elements)  # a whole batch no replica sees
