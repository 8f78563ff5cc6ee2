"""Good: a match over ReadConsistency handles every member, or has a wildcard."""

from repro.core.replication import ReadConsistency


def pick_replica(consistency, primary, replicas):
    match consistency:
        case ReadConsistency.ONE:
            return replicas[0]
        case ReadConsistency.PRIMARY | ReadConsistency.QUORUM:
            return primary


def pick_with_wildcard(consistency, primary, replicas):
    match consistency:
        case ReadConsistency.ONE:
            return replicas[0]
        case _:
            return primary
