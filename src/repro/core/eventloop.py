"""Deterministic virtual-time event loop for the coordinator/cluster seam.

The coordinator used to run globally synchronous lockstep ticks: every
session advanced one round per :meth:`~repro.core.router.Coordinator.tick`,
and replication delivery was chained to that same scheduling clock.  This
module provides the substrate that decouples them — an event scheduler
over *virtual time* (integer ticks, the same unit as the replication
clock) with deterministic total ordering:

* Heap entries are plain ``(tick, band, seq, fn, period)`` tuples: due
  tick first, then the band — 0 for a one-shot :meth:`EventLoop.call_at`
  event, 1 for an :meth:`EventLoop.every` task, so a tick's session work
  runs before its background tasks — then submission order.  A task
  keeps the ``seq`` it was registered with, so the tasks due at one tick
  fire in registration order.  ``seq`` is unique, so the comparison
  never reaches ``fn``.  Two runs that schedule the same events
  observe the same firing order — there is no wall clock, no thread, and
  no OS entropy anywhere in the loop, so it is clean under the
  ``determinism`` zlint rule and usable from ``repro.core``.
* Periodic tasks (:meth:`EventLoop.every`) are daemons: they never keep
  the loop alive — :meth:`EventLoop.run_until_quiet` drains until no
  one-shot events remain.  A task's entry carries its ``period`` (an
  event's is 0) and :meth:`EventLoop.advance` re-pushes it after it
  fires.  There is no self-rescheduling closure: one would refer to
  itself through the heap, and that cycle would pin its callable — a
  coordinator's ``cluster.replication_tick``, hence the whole dropped
  deployment — until the cycle collector ran.
* ``advance(n)`` is the lockstep-compat primitive: it fires everything
  due strictly before ``now + n`` (including events scheduled *during*
  processing at the current tick) and then moves ``now`` forward — one
  legacy coordinator tick is exactly ``advance(1)``.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import ConfigurationError, ProtocolError

_EVENT = 0  # band of a one-shot call_at event
_TASK = 1  # band of an every() task: after the tick's events

_Entry = tuple[int, int, int, Callable[[], object], int]


class EventLoop:
    """Virtual-time scheduler with deterministic total event order."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: list[_Entry] = []
        self._pending_events = 0

    @property
    def now(self) -> int:
        """Current virtual tick (the same unit as the replication clock)."""
        return self._now

    # -- scheduling --------------------------------------------------------------

    def call_at(self, tick: int, fn: Callable[[], object]) -> None:
        """Schedule ``fn`` at virtual ``tick`` (clamped to ``now`` if past)."""
        heapq.heappush(self._heap, (max(tick, self._now), _EVENT, self._seq, fn, 0))
        self._seq += 1
        self._pending_events += 1

    def every(self, period: int, fn: Callable[[], object]) -> None:
        """Register a periodic task firing every ``period`` ticks.

        The first firing lands at ``now + period - 1``: the *end* of the
        ``period``-th tick from now, so a period-1 delivery daemon fires
        once at the end of every tick — the legacy "one scheduling tick
        is one replication tick" cadence.
        """
        if period < 1:
            raise ConfigurationError("period must be >= 1")
        entry = (self._now + period - 1, _TASK, self._seq, fn, period)
        heapq.heappush(self._heap, entry)
        self._seq += 1

    # -- execution ---------------------------------------------------------------

    def advance(self, ticks: int = 1) -> int:
        """Fire everything due before ``now + ticks``; returns events fired.

        Events scheduled *during* processing are fired in the same call
        when they fall inside the window, so one ``advance(1)`` drains
        the current tick to quiescence — the lockstep-compat contract.
        """
        if ticks < 1:
            raise ConfigurationError("ticks must be >= 1")
        target = self._now + ticks
        fired = 0
        heap = self._heap
        while heap and heap[0][0] < target:
            tick, band, seq, fn, period = heapq.heappop(heap)
            if tick > self._now:
                self._now = tick
            if band == _EVENT:
                self._pending_events -= 1
            fired += 1
            fn()
            if period:
                heapq.heappush(heap, (self._now + period, _TASK, seq, fn, period))
        self._now = target
        return fired

    def run_until_quiet(self, max_ticks: int = 100_000) -> int:
        """Advance tick by tick until no one-shot events remain.

        Periodic tasks fire as virtual time passes but never block
        quiescence.  Returns the number of ticks advanced; raises
        :class:`~repro.errors.ProtocolError` if the loop fails to drain
        within ``max_ticks`` (an event kept rescheduling).
        """
        start = self._now
        while self._pending_events:
            if self._now - start >= max_ticks:
                raise ProtocolError(
                    f"event loop did not quiesce within {max_ticks} ticks "
                    f"({self._pending_events} event(s) pending)"
                )
            self.advance(1)
        return self._now - start
