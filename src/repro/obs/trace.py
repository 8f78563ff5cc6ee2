"""Tick-stamped request tracing: span trees in a bounded ring buffer.

A *trace* is one logical request — a client query session — rooted at a
span opened with :meth:`Tracer.begin_trace` (the only non-context-
manager entry point, because a session root outlives any single call
frame: it stays open across coordinator scheduling ticks).  Every other
span MUST be opened with the :meth:`Tracer.span` context manager, which
guarantees balance: a span closes when its ``with`` block exits, even
on exception.  The ``obs-discipline`` zlint rule enforces the
context-manager-only discipline statically in ``repro.core``.

Parenting follows the synchronous call structure: an open ``span``
nests under the innermost span on the tracer's stack; with an empty
stack it attaches to the root of the trace named by ``trace=`` (the
issuing session's ``trace_id``); with neither it
becomes its own single-root trace, so direct-path read-repair spans are
still recorded.

Timestamps are scheduling ticks from the injected ``clock`` — never
wall time (determinism contract).  Finished traces land in a
``deque(maxlen=capacity)`` ring; leaked roots are force-closed when the
active table would exceed the same bound, so memory is O(capacity).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from types import TracebackType


class Span:
    """One tick-stamped node of a trace tree.

    A span returned by :meth:`Tracer.span` is its *own* context manager:
    ``__enter__`` stamps the start tick and links it into the tree,
    ``__exit__`` stamps the end tick.  Folding the scope into the node
    (instead of a separate ``@contextmanager`` or scope object) matters
    because span entry/exit sits on the coordinator/skim hot path — the
    generator machinery alone enters extra frames per span against the
    ``TELEMETRY_FRAME_BUDGET`` of ``tests/test_core_client.py``, and a
    scope object is one more allocation per span.  Roots created by
    :meth:`Tracer.begin_trace` never use the context-manager half.
    """

    __slots__ = (
        "name",
        "start_tick",
        "end_tick",
        "attributes",
        "children",
        "_tracer",
        "_trace_ctx",
        "_owner",
    )

    _tracer: "Tracer"
    _trace_ctx: int | None
    _owner: "Trace | None"

    def __init__(self, name: str, start_tick: int, **attributes: object) -> None:
        self.name = name
        self.start_tick = start_tick
        self.end_tick: int | None = None
        self.attributes: dict[str, object] = dict(attributes)
        self.children: list[Span] = []
        self._trace_ctx = None
        self._owner = None

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.start_tick = tracer._clock()
        stack = tracer._stack
        if stack:
            stack[-1].children.append(self)
        elif self._trace_ctx is not None and self._trace_ctx in tracer._active:
            tracer._active[self._trace_ctx].root.children.append(self)
        else:
            # No enclosing span and no live trace context: record the
            # span as its own root so direct-path activity stays visible.
            self._owner = Trace(tracer._next_id, self)
            tracer._next_id += 1
        stack.append(self)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        tracer = self._tracer
        tracer._stack.pop()
        self.end_tick = tracer._clock()
        if self._owner is not None:
            tracer._finished.append(self._owner)
            self._owner = None  # break the span <-> owning-trace cycle
        # Unlink the tracer: a closed span kept in the finished ring must
        # not form a cycle back through the tracer, or every recorded
        # trace becomes cyclic garbage the collector has to chase (wall
        # time a frame count does not see, but every query pays).
        del self._tracer

    @property
    def closed(self) -> bool:
        return self.end_tick is not None

    @property
    def duration_ticks(self) -> int:
        if self.end_tick is None:
            return 0
        return self.end_tick - self.start_tick

    def annotate(self, **attributes: object) -> None:
        self.attributes.update(attributes)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "attributes": {k: self.attributes[k] for k in sorted(self.attributes)},
            "children": [child.to_dict() for child in self.children],
        }


class Trace:
    """A finished or in-flight span tree with its wire-threaded id."""

    __slots__ = ("trace_id", "root")

    def __init__(self, trace_id: int, root: Span) -> None:
        self.trace_id = trace_id
        self.root = root

    def spans(self) -> list[Span]:
        return list(self.root.walk())

    def to_dict(self) -> dict[str, object]:
        return {"trace_id": self.trace_id, "root": self.root.to_dict()}


class _NullSpan(Span):
    """Shared no-op span: entering costs one attribute read, no allocs."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def annotate(self, **attributes: object) -> None:
        pass


class Tracer:
    """Span factory with a shared nesting stack and a bounded ring."""

    def __init__(self, clock: Callable[[], int], *, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self._clock = clock
        self._capacity = capacity
        self._next_id = 1
        # Plain dict: insertion order IS open order (ids only grow), and
        # next(iter(...)) finds the oldest root for capacity force-close.
        self._active: dict[int, Trace] = {}
        self._stack: list[Span] = []
        self._finished: deque[Trace] = deque(maxlen=capacity)

    def begin_trace(self, name: str, **attributes: object) -> int:
        """Open a session-lifetime root span; returns the trace id.

        The root does NOT join the nesting stack (it outlives call
        frames); child spans reach it via ``span(..., trace=id)``.
        """
        if len(self._active) >= self._capacity:
            oldest_id = next(iter(self._active))
            self.end_trace(oldest_id)  # force-close the leaked root
        trace_id = self._next_id
        self._next_id += 1
        root = Span(name, self._clock(), **attributes)
        self._active[trace_id] = Trace(trace_id, root)
        return trace_id

    def end_trace(self, trace_id: int | None) -> None:
        """Close a root opened by :meth:`begin_trace` and ring-buffer it."""
        if trace_id is None:
            return
        trace = self._active.pop(trace_id, None)
        if trace is None:
            return
        if trace.root.end_tick is None:
            trace.root.end_tick = self._clock()
        self._finished.append(trace)

    def span(
        self, name: str, *, trace: int | None = None, **attributes: object
    ) -> Span:
        """Open a child span; ALWAYS use as a context manager.

        Built via ``__new__`` rather than ``Span(...)``: the ``**kwargs``
        dict is fresh and can be owned outright, and skipping the
        ``__init__`` frame + dict copy is measurable at hot-path span
        rates.  ``start_tick`` is stamped in ``__enter__``.
        """
        node = Span.__new__(Span)
        node.name = name
        node.end_tick = None
        node.attributes = attributes
        node.children = []
        node._tracer = self
        node._trace_ctx = trace
        node._owner = None
        return node

    def active_trace_ids(self) -> list[int]:
        return list(self._active)

    def open_spans(self) -> int:
        return len(self._stack)

    def traces(self) -> list[Trace]:
        """Finished traces, oldest first (bounded by ``capacity``)."""
        return list(self._finished)

    def last_trace(self) -> Trace | None:
        return self._finished[-1] if self._finished else None


class NullTracer(Tracer):
    """No-op tracer handed to instrumented code when telemetry is off."""

    def __init__(self) -> None:
        super().__init__(lambda: 0, capacity=1)
        self._null_span = _NullSpan("null", 0)
        self._null_span._tracer = self

    def end_trace(self, trace_id: int | None) -> None:
        pass

    def span(
        self, name: str, *, trace: int | None = None, **attributes: object
    ) -> Span:
        return self._null_span


NULL_TRACER = NullTracer()
