"""Pluggable list→server placement policies for the sharded cluster.

:class:`~repro.core.cluster.ServerCluster` used to hard-code round-robin
placement (``list_id % num_servers``) inside ``replicas_of``.  That is
fine while all merged lists are equally hot, but the paper's query
workload (Fig. 10) is heavily skewed: a few head-term lists absorb most
fetches, and wherever ``mod`` happens to put them becomes the cluster's
bottleneck.  This module extracts placement into a strategy object so the
cluster can be built with:

* :class:`RoundRobinPlacement` — the seed behaviour, byte-for-byte: list
  ``i`` is primaried on server ``i % N`` with replicas on the next
  ``f - 1`` servers.  Never proposes moves.
* :class:`HeatWeightedPlacement` — observes per-list fetch counters (the
  servers' measured "heat") and greedily repacks hot lists onto the
  lightest-loaded servers, so two head-term lists no longer share a shard
  just because their ids are congruent mod N.

The cluster owns the authoritative placement table and a monotonically
increasing *placement epoch*, and calls :meth:`PlacementPolicy.propose`
with the measured heat when asked to rebalance.  Policies carry no
placement state of their own; the heat-weighted policy may carry *decay*
state (an exponentially-weighted view of the cumulative counters) so a
briefly-hot list stops pinning placement once its traffic fades.  Only
*primary* read load is balanced: under the default
:class:`PrimaryReads` selector a list's entire heat lands on its
primary, while :class:`RotatingReads` spreads it over the eligible
replicas the cluster computes per consistency level.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

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


def max_over_mean(loads: Sequence[float]) -> float:
    """Max/mean of per-server loads; 1.0 for an idle (all-zero) cluster."""
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 1.0
    return max(loads) / mean


def load_balance_ratio(
    heat: Mapping[int, int],
    placement: Sequence[Sequence[int]],
    num_servers: int,
) -> float:
    """Max/mean per-server *primary* read load under a placement.

    1.0 is a perfectly balanced cluster; the further above 1, the worse
    the hottest shard fares relative to the average.  Returns 1.0 for a
    cold cluster (no heat anywhere).
    """
    loads = [0.0] * num_servers
    for list_id, replicas in enumerate(placement):
        loads[replicas[0]] += heat.get(list_id, 0)
    return max_over_mean(loads)


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


class PlacementPolicy(ABC):
    """Strategy deciding which servers hold (and serve) each merged list."""

    name = "abstract"

    @abstractmethod
    def initial_placement(
        self, num_lists: int, num_servers: int, replication: int
    ) -> Placement:
        """The placement table for a freshly built (heat-less) cluster."""

    def propose(
        self,
        heat: Mapping[int, int],
        current: Sequence[tuple[int, ...]],
        num_servers: int,
        replication: int,
        alive: Sequence[bool] | None = None,
    ) -> dict[int, tuple[int, ...]]:
        """Heat-driven moves as ``{list_id: new_replicas}``.

        The default is the empty proposal (static placement).  A policy
        must only return entries that *differ* from ``current`` and must
        only target servers marked live in *alive* (``None`` means all
        live); the cluster migrates each one and bumps the placement
        epoch once.
        """
        return {}


class RoundRobinPlacement(PlacementPolicy):
    """The seed's static placement: primary ``list_id % N``, no rebalancing."""

    name = "round-robin"

    def initial_placement(
        self, num_lists: int, num_servers: int, replication: int
    ) -> Placement:
        return [
            tuple((list_id + i) % num_servers for i in range(replication))
            for list_id in range(num_lists)
        ]


class HeatWeightedPlacement(PlacementPolicy):
    """Greedy repacking of hot lists onto the lightest-loaded servers.

    Starts out round-robin (no heat has been observed yet).  On
    :meth:`propose`, lists with observed heat are sorted hottest-first
    and each is assigned to the currently lightest-loaded server (ties by
    server index, so proposals are deterministic); its remaining replicas
    go to the next lightest-loaded distinct servers.  Cold lists
    (zero observed fetches) keep their current placement — moving them
    costs a migration and buys nothing.

    ``heat_half_life`` adds exponential decay on top of the cluster's
    *cumulative* fetch counters: each :meth:`propose` call is one decay
    tick, new fetches since the previous call arrive at full weight, and
    older traffic halves every ``heat_half_life`` ticks.  A list that was
    hot for one burst therefore stops dominating placement after a few
    rebalance cycles instead of pinning its server forever; once its
    decayed heat falls below half a fetch it counts as cold again.
    ``None`` (the default) disables decay — cumulative counters are used
    as-is, the pre-decay behaviour.

    Greedy longest-processing-time packing is within 4/3 of the optimal
    makespan, which is far better than what ``mod`` does to a Zipf
    workload where hot lists happen to collide.
    """

    name = "heat-weighted"

    _COLD_THRESHOLD = 0.5  # decayed heat below half a fetch counts as cold

    def __init__(self, heat_half_life: float | None = None) -> None:
        if heat_half_life is not None and heat_half_life <= 0:
            raise ConfigurationError("heat_half_life must be positive")
        self.heat_half_life = heat_half_life
        # Decay state: EWMA of fetch activity plus the last cumulative
        # counter seen per list (to turn cumulative heat into deltas).
        self._decayed: dict[int, float] = {}
        self._last_seen: dict[int, int] = {}

    def initial_placement(
        self, num_lists: int, num_servers: int, replication: int
    ) -> Placement:
        return RoundRobinPlacement().initial_placement(
            num_lists, num_servers, replication
        )

    def _next_tick(self, heat: Mapping[int, int]) -> dict[int, float]:
        """One decay step applied to the current state, without committing.

        The previous effective heat decays by ``0.5 ** (1 / half_life)``
        and the fetches since the last committed tick arrive at full
        weight; entries below ``_COLD_THRESHOLD`` are dropped.
        """
        factor = 0.5 ** (1.0 / self.heat_half_life)  # type: ignore[operator]
        updated: dict[int, float] = {}
        for list_id in self._decayed.keys() | heat.keys():
            delta = heat.get(list_id, 0) - self._last_seen.get(list_id, 0)
            value = self._decayed.get(list_id, 0.0) * factor + delta
            if value >= self._COLD_THRESHOLD:
                updated[list_id] = value
        return updated

    def effective_heat(self, heat: Mapping[int, int]) -> dict[int, float]:
        """The heat the next :meth:`propose` would rank by — pure preview.

        Observing heat must not advance the decay clock (only
        :meth:`propose` — one call per rebalance cycle — ticks it), so
        this can be called freely by operators, benchmarks and tests.
        """
        if self.heat_half_life is None:
            return {list_id: float(count) for list_id, count in heat.items()}
        return self._next_tick(heat)

    def _tick(self, heat: Mapping[int, int]) -> dict[int, float]:
        """Advance the decay clock by one rebalance cycle."""
        if self.heat_half_life is None:
            return {list_id: float(count) for list_id, count in heat.items()}
        self._decayed = self._next_tick(heat)
        for list_id, cumulative in heat.items():
            if cumulative:
                self._last_seen[list_id] = cumulative
        return dict(self._decayed)

    def propose(
        self,
        heat: Mapping[int, int],
        current: Sequence[tuple[int, ...]],
        num_servers: int,
        replication: int,
        alive: Sequence[bool] | None = None,
    ) -> dict[int, tuple[int, ...]]:
        live = [
            s for s in range(num_servers) if alive is None or alive[s]
        ]
        if len(live) < replication:
            # Not enough live servers to host a full replica set — moving
            # anything now would strand data; wait for recovery.
            return {}
        effective = self._tick(heat)
        hot = sorted(
            (
                list_id
                for list_id in range(len(current))
                if effective.get(list_id, 0.0) > 0
            ),
            key=lambda list_id: (-effective[list_id], list_id),
        )
        loads = {s: 0.0 for s in live}
        proposal: dict[int, tuple[int, ...]] = {}
        for list_id in hot:
            order = sorted(live, key=lambda s: (loads[s], s))
            replicas = tuple(order[:replication])
            loads[replicas[0]] += effective[list_id]
            if replicas != tuple(current[list_id]):
                proposal[list_id] = replicas
        return proposal
