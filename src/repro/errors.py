"""Exception hierarchy for the Zerber+R reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  The sub-hierarchy mirrors the package
layout: indexing, cryptography/access control, protocol, and configuration
errors are distinguishable because they typically call for different
handling (a :class:`AccessDeniedError` is an authorization outcome, not a
bug).
A read fails only on what it can act on — a list with no live replica,
a missed quorum, a shed submit; a failover election is never one of
them, since a batch is routed and served inside one call.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An invalid parameter or parameter combination was supplied."""


class IndexError_(ReproError):
    """Base class for indexing errors.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class UnknownTermError(IndexError_):
    """A term was looked up that no posting list contains."""

    def __init__(self, term: str) -> None:
        super().__init__(f"term not present in the index: {term!r}")
        self.term = term


class UnknownListError(IndexError_):
    """A merged posting list id was requested that does not exist."""

    def __init__(self, list_id: int) -> None:
        super().__init__(f"merged posting list does not exist: {list_id}")
        self.list_id = list_id


class CryptoError(ReproError):
    """Base class for encryption/decryption failures."""


class AccessDeniedError(CryptoError):
    """The principal lacks the group membership needed for an operation."""

    def __init__(self, principal: str, group: str) -> None:
        super().__init__(f"principal {principal!r} is not a member of group {group!r}")
        self.principal = principal
        self.group = group


class ProtocolError(ReproError):
    """A malformed or out-of-order client/server protocol interaction."""


class UnavailableError(ProtocolError):
    """Every replica of a merged posting list is down.

    Carries the list id so routing layers (cluster, coordinator) can say
    *which* list became unreachable; subclasses :class:`ProtocolError` so
    callers treating replica exhaustion as a protocol failure keep working.
    """

    def __init__(self, list_id: int, num_replicas: int) -> None:
        super().__init__(
            f"all {num_replicas} replica(s) of list {list_id} are down"
        )
        self.list_id = list_id
        self.num_replicas = num_replicas


def _replica_roster(
    live_replicas: tuple[int, ...],
    down_replicas: tuple[int, ...],
    paused_replicas: tuple[int, ...],
) -> str:
    """``live: [..]; down: [..]; paused: [..]`` — the fault-triage roster."""
    parts = [f"live: {list(live_replicas)}", f"down: {list(down_replicas)}"]
    if paused_replicas:
        parts.append(f"paused: {list(paused_replicas)}")
    return "; ".join(parts)


class QuorumUnavailableError(UnavailableError):
    """A quorum read could not consult a majority of a list's replicas.

    Unlike the base :class:`UnavailableError` (no replica live at all),
    *some* replicas may be up — just fewer than the ``needed`` majority,
    so a version-max-across-majority read cannot be answered honestly.
    The message and attributes name the exact replica roster — which
    servers were live, down and paused — so a fault can be triaged from
    the error alone.
    """

    #: The message's first clause; the roster follows it in parentheses.
    _shortfall = (
        "quorum read of list {list_id} needs {needed} of "
        "{num_replicas} replicas live, only {live} up"
    )

    def __init__(
        self,
        list_id: int,
        num_replicas: int,
        needed: int,
        live_replicas: tuple[int, ...],
        down_replicas: tuple[int, ...] = (),
        paused_replicas: tuple[int, ...] = (),
    ) -> None:
        shortfall = self._shortfall.format(
            list_id=list_id,
            needed=needed,
            num_replicas=num_replicas,
            live=len(live_replicas),
        )
        roster = _replica_roster(live_replicas, down_replicas, paused_replicas)
        ProtocolError.__init__(self, f"{shortfall} ({roster})")
        self.list_id = list_id
        self.num_replicas = num_replicas
        self.needed = needed
        self.live_replicas = live_replicas
        self.down_replicas = down_replicas
        self.paused_replicas = paused_replicas


class QuorumWriteUnavailableError(QuorumUnavailableError):
    """A QUORUM/ALL write could not reach its required ack count.

    Raised *before* the primary is mutated or anything is logged, so a
    refused write is a clean no-op: not acknowledged, nothing to lose.
    ``needed`` is the required ack count (W); acks come from the primary
    plus followers reachable by the replication log (live and unpaused).
    """

    _shortfall = (
        "write to list {list_id} needs {needed} ack(s) from "
        "{num_replicas} replicas, only {live} reachable"
    )


class BackpressureError(ProtocolError):
    """A coordinator shed a session at admission (admission queue full).

    Raised by :meth:`~repro.core.router.Coordinator.submit` when real
    backpressure is configured (``max_queue_depth``) and admitting the
    session would exceed the bound.  The shed happens *before* admission, so nothing was
    acknowledged and nothing is lost — the caller owns the retry.
    ``signal`` is the :class:`~repro.core.protocol.BackpressureSignal` a
    fronting RPC layer would ship back to the client.
    """

    def __init__(self, signal: object) -> None:
        super().__init__(
            "session shed at admission (queue: "
            f"depth {getattr(signal, 'queue_depth', '?')} at limit "
            f"{getattr(signal, 'limit', '?')})"
        )
        self.signal = signal


class TrainingError(ReproError):
    """RSTF training failed (e.g. empty training set for a term)."""
