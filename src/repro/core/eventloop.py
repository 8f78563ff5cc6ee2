"""Deterministic virtual-time event loop for the coordinator/cluster seam.

The coordinator used to run globally synchronous lockstep ticks: every
session advanced one round per :meth:`~repro.core.router.Coordinator.tick`,
and replication delivery was chained to that same scheduling clock.  This
module provides the substrate that decouples them — an event scheduler
over *virtual time* (integer ticks, the same unit as the replication
clock) with deterministic total ordering:

* Events are ``(tick, priority, seq)``-ordered: due tick first, then an
  explicit priority band (foreground work before background daemons at
  the same tick), then FIFO submission order.  Two runs that schedule
  the same events observe the same firing order — there is no wall
  clock, no thread, and no OS entropy anywhere in the loop, so it is
  clean under the ``determinism`` zlint rule and usable from
  ``repro.core``.
* Periodic *background tasks* (:meth:`EventLoop.every`) reschedule
  themselves; they are ``daemon`` by default, meaning they never keep
  the loop alive — :meth:`EventLoop.run_until_quiet` drains until no
  *foreground* events remain.
* ``advance(n)`` is the lockstep-compat primitive: it fires everything
  due strictly before ``now + n`` (including events scheduled *during*
  processing at the current tick) and then moves ``now`` forward — one
  legacy coordinator tick is exactly ``advance(1)``.

A seeded :class:`random.Random` rides on the loop for consumers that
need jitter (e.g. open-loop arrival generators); the loop itself never
draws from it.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable

from repro.errors import ConfigurationError, ProtocolError

#: Priority bands.  Foreground session work (arrivals, flushes, skim
#: deliveries) runs first at a tick; replication delivery daemons run
#: after all foreground work of the tick (matching the legacy ordering
#: "envelopes first, then the replication tick"); the maintenance band
#: runs last (probes use it to observe a tick's settled state).
FOREGROUND = 0
BACKGROUND = 10
MAINTENANCE = 20


class EventHandle:
    """One scheduled callback; orderable by ``(tick, priority, seq)``."""

    __slots__ = ("tick", "priority", "seq", "name", "daemon", "fn", "cancelled")

    def __init__(
        self,
        tick: int,
        priority: int,
        seq: int,
        name: str,
        daemon: bool,
        fn: Callable[[], object],
    ) -> None:
        self.tick = tick
        self.priority = priority
        self.seq = seq
        self.name = name
        self.daemon = daemon
        self.fn = fn
        self.cancelled = False

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.tick, self.priority, self.seq) < (
            other.tick,
            other.priority,
            other.seq,
        )


class PeriodicTask:
    """A self-rescheduling background task registered via :meth:`EventLoop.every`."""

    __slots__ = ("name", "period", "priority", "daemon", "fires", "cancelled", "_fn")

    def __init__(
        self,
        name: str,
        period: int,
        priority: int,
        daemon: bool,
        fn: Callable[[], object],
    ) -> None:
        self.name = name
        self.period = period
        self.priority = priority
        self.daemon = daemon
        self.fires = 0
        self.cancelled = False
        self._fn = fn

    def cancel(self) -> None:
        """Stop future firings (the already-queued one becomes a no-op)."""
        self.cancelled = True


class EventLoop:
    """Virtual-time scheduler with deterministic total event order."""

    def __init__(self, *, seed: int = 0, start_tick: int = 0) -> None:
        if start_tick < 0:
            raise ConfigurationError("start_tick must be >= 0")
        self._now = start_tick
        self._seq = 0
        self._heap: list[EventHandle] = []
        self._pending_foreground = 0
        self._fired = 0
        self._tasks: list[PeriodicTask] = []
        #: Seeded RNG for loop consumers (arrival jitter etc.); the loop
        #: itself is RNG-free.
        self.rng = random.Random(seed)

    @property
    def now(self) -> int:
        """Current virtual tick (the same unit as the replication clock)."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._fired

    def pending(self) -> int:
        """Foreground events still queued (daemon tasks do not count)."""
        return self._pending_foreground

    def tasks(self) -> list[PeriodicTask]:
        """Registered periodic tasks, in registration order."""
        return [task for task in self._tasks if not task.cancelled]

    # -- scheduling --------------------------------------------------------------

    def call_at(
        self,
        tick: int,
        fn: Callable[[], object],
        *,
        name: str = "event",
        priority: int = FOREGROUND,
        daemon: bool = False,
    ) -> EventHandle:
        """Schedule ``fn`` at virtual ``tick`` (clamped to ``now`` if past)."""
        handle = EventHandle(
            max(tick, self._now), priority, self._seq, name, daemon, fn
        )
        self._seq += 1
        heapq.heappush(self._heap, handle)
        if not daemon:
            self._pending_foreground += 1
        return handle

    def call_later(
        self,
        delay: int,
        fn: Callable[[], object],
        *,
        name: str = "event",
        priority: int = FOREGROUND,
        daemon: bool = False,
    ) -> EventHandle:
        if delay < 0:
            raise ConfigurationError("delay must be >= 0")
        return self.call_at(
            self._now + delay, fn, name=name, priority=priority, daemon=daemon
        )

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (firing a cancelled handle is a no-op)."""
        if not handle.cancelled:
            handle.cancelled = True
            if not handle.daemon:
                self._pending_foreground -= 1

    def every(
        self,
        period: int,
        fn: Callable[[], object],
        *,
        name: str,
        priority: int = BACKGROUND,
        first_at: int | None = None,
        daemon: bool = True,
    ) -> PeriodicTask:
        """Register a periodic task firing every ``period`` ticks.

        The first firing lands at ``first_at`` (default ``now + period - 1``:
        the *end* of the ``period``-th tick from now, so a period-1
        delivery daemon fires once at the end of every tick — the legacy
        "one scheduling tick is one replication tick" cadence).  Daemon
        tasks never keep :meth:`run_until_quiet` running.
        """
        if period < 1:
            raise ConfigurationError("period must be >= 1")
        task = PeriodicTask(name, period, priority, daemon, fn)
        self._tasks.append(task)
        due = first_at if first_at is not None else self._now + period - 1
        self._schedule_task(task, due)
        return task

    def _schedule_task(self, task: PeriodicTask, due: int) -> None:
        def fire() -> None:
            if task.cancelled:
                return
            task.fires += 1
            task._fn()
            if not task.cancelled:
                self._schedule_task(task, self._now + task.period)

        self.call_at(
            due, fire, name=task.name, priority=task.priority, daemon=task.daemon
        )

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
        while heap and heap[0].tick < target:
            handle = heapq.heappop(heap)
            if handle.cancelled:
                continue
            if handle.tick > self._now:
                self._now = handle.tick
            if not handle.daemon:
                self._pending_foreground -= 1
            fired += 1
            self._fired += 1
            handle.fn()
        self._now = target
        return fired

    def run_until_quiet(self, max_ticks: int = 100_000) -> int:
        """Advance tick by tick until no foreground events remain.

        Daemon tasks fire as virtual time passes but never block
        quiescence.  Returns the number of ticks advanced; raises
        :class:`~repro.errors.ProtocolError` if the loop fails to drain
        within ``max_ticks`` (a foreground event kept rescheduling).
        """
        start = self._now
        while self._pending_foreground:
            if self._now - start >= max_ticks:
                raise ProtocolError(
                    f"event loop did not quiesce within {max_ticks} ticks "
                    f"({self._pending_foreground} foreground event(s) pending)"
                )
            self.advance(1)
        return self._now - start
