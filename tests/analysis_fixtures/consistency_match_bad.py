"""Bad: a match over ReadConsistency misses QUORUM and has no wildcard."""

from repro.core.replication import ReadConsistency


def pick_replica(consistency, primary, replicas):
    match consistency:
        case ReadConsistency.ONE:
            return replicas[0]
        case ReadConsistency.PRIMARY:
            return primary
