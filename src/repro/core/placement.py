"""Static list→server placement and replica read selection for the cluster.

The paper puts every merged list on "a centralized set of largely
untrusted index servers" (§3.1) and never moves one.  The cluster's
layout is :func:`round_robin_placement`: list ``i`` is primaried on
server ``i % N`` with replicas on the next ``f - 1`` servers.  The
cluster owns the placement table and a monotonically increasing
*placement epoch*; a list's replica *set* is fixed at construction and
only its order changes, when a failover election promotes a follower.

A :class:`ReadSelector` picks which eligible replica serves a read:
:class:`PrimaryReads` (the default) always the first, while
:class:`RotatingReads` spreads a list's reads over the eligible replicas
the cluster computes per consistency level.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
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


class ReadSelector(ABC):
    """Which of a list's live replicas serves a read.

    The seed cluster always served from the first live replica, piling
    every list's whole read load onto its primary while trailing
    replicas idled.  A selector picks among the *eligible* replicas the
    cluster computed for the requested consistency level (all live
    replicas for ``ONE``; the caught-up live replicas for ``PRIMARY``),
    so balancing never weakens consistency.  Selectors must be
    deterministic: same call sequence, same choices — benchmarks and the
    byte-identity tests rely on replay.
    """

    name = "abstract"

    @abstractmethod
    def select(self, list_id: int, candidates: Sequence[int]) -> int:
        """Pick one server from *candidates* (non-empty, placement order)."""


class PrimaryReads(ReadSelector):
    """The seed behaviour: always the first eligible replica."""

    name = "primary"

    def select(self, list_id: int, candidates: Sequence[int]) -> int:
        return candidates[0]


class RotatingReads(ReadSelector):
    """Deterministic per-list round-robin over the eligible replicas.

    Each list keeps its own rotation cursor, starting at 0, so
    consecutive reads of a hot list spread over its replicas while the
    sequence stays exactly reproducible.
    """

    name = "rotate"

    def __init__(self) -> None:
        self._cursors: dict[int, int] = {}

    def select(self, list_id: int, candidates: Sequence[int]) -> int:
        cursor = self._cursors.get(list_id, 0)
        self._cursors[list_id] = cursor + 1
        return candidates[cursor % len(candidates)]


_READ_SELECTORS = {
    PrimaryReads.name: PrimaryReads,
    RotatingReads.name: RotatingReads,
}


def coerce_read_selector(value: "ReadSelector | str | None") -> ReadSelector:
    """Resolve a selector instance or name (``None`` = seed behaviour)."""
    if value is None:
        return PrimaryReads()
    if isinstance(value, ReadSelector):
        return value
    try:
        selector_cls = _READ_SELECTORS[str(value)]
    except KeyError:
        raise ConfigurationError(
            f"unknown read strategy {value!r}; "
            f"expected one of {sorted(_READ_SELECTORS)}"
        ) from None
    return selector_cls()


def round_robin_placement(
    num_lists: int, num_servers: int, replication: int
) -> Placement:
    """Primary ``list_id % N``, replicas on the next ``replication - 1``."""
    return [
        tuple((list_id + i) % num_servers for i in range(replication))
        for list_id in range(num_lists)
    ]
