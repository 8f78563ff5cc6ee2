"""Static list→server placement for the cluster.

The paper puts every merged list on "a centralized set of largely
untrusted index servers" (§3.1) and never moves one.  The cluster's
layout is :func:`round_robin_placement`: list ``i`` is primaried on
server ``i % N`` with replicas on the next ``f - 1`` servers.  The
cluster owns the placement table and a monotonically increasing
*placement epoch*; a list's replica *set* is fixed at construction and
only its order changes, when a failover election promotes a follower.
A read goes to the first eligible replica in that order (see
:meth:`~repro.core.cluster.ServerCluster.route`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigurationError

Placement = list[tuple[int, ...]]
"""One replica tuple (primary first) per list id."""


def validate_placement(
    placement: Sequence[Sequence[int]],
    num_lists: int,
    num_servers: int,
    replication: int,
) -> Placement:
    """Check a placement table's shape and server indices; normalise it."""
    if len(placement) != num_lists:
        raise ConfigurationError(
            f"placement covers {len(placement)} lists, expected {num_lists}"
        )
    normalised: Placement = []
    for list_id, replicas in enumerate(placement):
        replicas = tuple(replicas)
        if len(replicas) != replication:
            raise ConfigurationError(
                f"list {list_id} has {len(replicas)} replicas, "
                f"expected {replication}"
            )
        if len(set(replicas)) != len(replicas):
            raise ConfigurationError(f"list {list_id} repeats a replica server")
        if not all(0 <= s < num_servers for s in replicas):
            raise ConfigurationError(f"list {list_id} names an unknown server")
        normalised.append(replicas)
    return normalised


def round_robin_placement(
    num_lists: int, num_servers: int, replication: int
) -> Placement:
    """Primary ``list_id % N``, replicas on the next ``replication - 1``."""
    return [
        tuple((list_id + i) % num_servers for i in range(replication))
        for list_id in range(num_lists)
    ]
