"""Span tracing from the benchmark's own files (the traced pass only).

``install`` monkeypatches thin wrappers around the public functions at
each layer boundary and ``remove`` restores the originals; ``src/`` is
untouched and ``repro.obs`` telemetry stays off.  Every span records its
name (``<layer>.<what>``), start, end, the span that caused it and the op
id shared by one query or write.  Spans stay in memory and are written
out only when the pass has ended.

A span's *self* time is its duration minus the time its child spans
cover.  The program is single-threaded, so children never overlap and the
self times of one op's spans sum exactly to its root's duration — which
is what lets the per-layer numbers account for the end-to-end ones.

Spans *inside* the program (router vs. event loop, view build vs. group
filter) are a later issue: this module only wraps what is callable from
outside.
"""

from __future__ import annotations

import importlib
import json
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

# (span name, module, class or None for a module-level function, attribute).
# Layer = the part of the span name before the first dot = the module the
# time is charged to.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("client.query", "repro.core.client", "ZerberRClient", "query_multi_batched"),
    ("client.query", "repro.core.client", "ZerberRClient", "query"),
    ("client.session", "repro.core.client", "ZerberRClient", "open_multi_session"),
    ("client.session", "repro.core.client", "ClientQuerySession", "pending_requests"),
    ("client.session", "repro.core.client", "ClientQuerySession", "deliver"),
    ("client.session", "repro.core.client", "ClientQuerySession", "result"),
    ("client.write", "repro.core.client", "ZerberRClient", "index_document_with_receipts"),
    ("client.write", "repro.core.client", "ZerberRClient", "delete_document"),
    ("client.build_element", "repro.core.client", "ZerberRClient", "build_element"),
    ("index.decode", "repro.index.postings", "PostingElement", "from_bytes"),
    ("index.list_mutate", "repro.index.postings", "MergedPostingList", "add_sorted_by_trs"),
    ("index.list_mutate", "repro.index.postings", "MergedPostingList", "find_by_ciphertext"),
    ("index.list_mutate", "repro.index.postings", "MergedPostingList", "pop_at"),
    ("crypto.skim", "repro.crypto.cipher", "StreamCipher", "try_decrypt_many"),
    ("crypto.encrypt", "repro.crypto.cipher", "StreamCipher", "encrypt"),
    ("keys.lookup", "repro.crypto.keys", "GroupKeyService", "cipher_for"),
    ("keys.lookup", "repro.crypto.keys", "GroupKeyService", "memberships"),
    ("keys.lookup", "repro.crypto.keys", "GroupKeyService", "membership_snapshot"),
    ("rstf.transform", "repro.core.rstf", "RstfModel", "transform"),
    ("router.submit", "repro.core.router", "Coordinator", "submit"),
    ("router.tick", "repro.core.router", "Coordinator", "tick"),
    ("cluster.read", "repro.core.cluster", "ServerCluster", "fetch"),
    ("cluster.read", "repro.core.cluster", "ServerCluster", "batch_fetch"),
    ("cluster.read", "repro.core.cluster", "ServerCluster", "serve_envelope"),
    ("cluster.write", "repro.core.cluster", "ServerCluster", "insert_many"),
    ("cluster.write", "repro.core.cluster", "ServerCluster", "delete_element"),
    ("replication.record", "repro.core.replication", "ReplicationManager", "record_insert"),
    ("replication.record", "repro.core.replication", "ReplicationManager", "record_delete"),
    ("replication.deliver", "repro.core.cluster", "ServerCluster", "replication_tick"),
    ("replication.deliver", "repro.core.replication", "ReplicationManager", "tick"),
    ("replication.deliver", "repro.core.replication", "ReplicationManager", "deliver_due"),
    ("replication.deliver", "repro.core.replication", "ReplicationManager", "sync"),
    ("server.read", "repro.core.server", "ZerberRServer", "fetch"),
    ("server.read", "repro.core.server", "ZerberRServer", "batch_fetch"),
    ("server.read", "repro.core.server", "ZerberRServer", "coalesced_fetch"),
    ("server.write", "repro.core.server", "ZerberRServer", "insert_many"),
    ("server.write", "repro.core.server", "ZerberRServer", "delete_element"),
    ("server.write", "repro.core.server", "ZerberRServer", "apply_replicated_insert"),
    ("server.write", "repro.core.server", "ZerberRServer", "apply_replicated_delete"),
    ("views.slice", "repro.core.views", "ReadableViewIndex", "slice"),
    ("views.patch", "repro.core.views", "ReadableViewIndex", "note_insert"),
    ("views.patch", "repro.core.views", "ReadableViewIndex", "note_delete"),
    ("views.build", "repro.core.ordstat", "OrderStatList", "from_sorted"),
    ("persist.save", "repro.persist", None, "save_cluster"),
    ("persist.load", "repro.persist", None, "load_cluster"),
)

# Root span name of the harness's own correctness probes (see ``by_name``).
CHECK = "check"

# Spans whose first positional argument is the batch the call works on;
# its length is recorded so per-op element counts come from the boundary
# where the work happens.
_SIZED = frozenset({"crypto.skim"})


def target_owner(module_name: str, class_name: str | None) -> Any:
    """The module or class whose attribute a ``TARGETS`` row names."""
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int  # op id shared by one query/write, -1 for shared work
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers, collects spans, computes self times."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    @contextmanager
    def root(self, name: str, op: int = -1) -> Iterator[None]:
        """A harness-side root span around one op (or one shared step)."""
        self._op = op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, -1, op)
            self._op = -1

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, sized = self.spans, self._stack, name in _SIZED

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                size = len(args[1]) if sized and isinstance(args[1], list) else 0
                spans[index] = Span(name, start, end, parent, self._op, size)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- install / remove --------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracing wrappers are already installed")
        for name, module_name, class_name, attr in TARGETS:
            owner = target_owner(module_name, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- analysis ---------------------------------------------------------------

    def finished(self) -> list[Span]:
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("a span is still open")
        return self.spans  # type: ignore[return-value]

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        spans = self.finished()
        covered = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(spans, covered)]

    def wrapper_cost(self) -> tuple[float, float]:
        """Seconds one wrapper adds (inside its own span, to its parent's self time).

        A wrapper costs about a microsecond per call, and a query makes a
        hundred of them: uncorrected, the callers of cheap functions
        (``client`` above ``index.decode``) would be charged for the act
        of measuring.  The cost is measured on a no-op, best of five.
        """
        probe = Tracer()
        noop = probe._wrap("probe", lambda: None)
        calls = 5000
        inside, outside = [], []
        for _ in range(5):
            del probe.spans[:]
            with probe.root("op.probe"):
                for _ in range(calls):
                    noop()
            began = perf_counter()
            for _ in range(calls):
                pass
            loop = perf_counter() - began
            root, *children = probe.finished()
            covered = sum(child.duration for child in children)
            inside.append(covered / calls)
            outside.append(max(0.0, (root.duration - covered - loop) / calls))
        return min(inside), min(outside)

    def by_name(self, self_times: list[float] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: total self seconds (net of the wrappers' own
        cost), call count, summed batch size.

        *self_times* replaces this pass's own self times, span for span
        (see :func:`quiet_self_times`).
        """
        totals: dict[str, dict[str, float]] = {}
        spans = self.finished()
        if self_times is None:
            self_times = self.self_times()
        inside, outside = self.wrapper_cost()
        children = [0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                children[span.parent] += 1
        # Correctness probes run inside a pass but are not part of it:
        # everything under a ``check`` root is left out of the accounting.
        checking: list[bool] = []
        for span in spans:
            checking.append(
                span.name == CHECK if span.parent < 0 else checking[span.parent]
            )
        for index, (span, self_s) in enumerate(zip(spans, self_times, strict=True)):
            if checking[index]:
                continue
            entry = totals.setdefault(
                span.name, {"self_s": 0.0, "calls": 0, "size": 0}
            )
            own = inside if span.parent >= 0 else 0.0  # roots are not wrappers
            entry["self_s"] += max(0.0, self_s - own - outside * children[index])
            entry["calls"] += 1
            entry["size"] += span.size
        return totals

    def write(self, path: Path, workload: str) -> None:
        spans = self.finished()
        origin = spans[0].start if spans else 0.0
        inside, outside = self.wrapper_cost()
        payload = {
            "workload": workload,
            "time_unit": "us since the first span",
            # ``self`` is raw; the per-layer metrics subtract, per span, the
            # wrapper's own cost and, per child, what a wrapper costs its caller.
            "wrapper_cost_us": {"own": inside * 1e6, "per_child": outside * 1e6},
            "columns": ["name", "start", "end", "parent", "op", "size", "self"],
            "spans": [
                [
                    span.name,
                    round((span.start - origin) * 1e6, 3),
                    round((span.end - origin) * 1e6, 3),
                    span.parent,
                    span.op,
                    span.size,
                    round(self_s * 1e6, 3),
                ]
                for span, self_s in zip(spans, self.self_times())
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def quiet_self_times(tracers: list[Tracer]) -> list[float]:
    """Per span, the smallest self time over traced passes of identical work.

    The passes must have recorded the same spans in the same order
    (``ValueError`` otherwise); machine noise only ever adds time.
    """
    names = [[span.name for span in tracer.finished()] for tracer in tracers]
    if any(other != names[0] for other in names[1:]):
        raise ValueError("traced passes recorded different span sequences")
    return [min(column) for column in zip(*(tracer.self_times() for tracer in tracers))]


def _self_us(totals: dict[str, dict[str, float]], *names: str) -> float:
    return sum(totals[n]["self_s"] for n in names if n in totals) * 1e6


def layer_time_metrics(
    tracer: Tracer, self_times: list[float], ops: int, writes: int
) -> dict[str, float]:
    """The span-derived per-layer metrics of *tracer*'s pass, with
    *self_times* as its spans' self times.

    ``*_per_op`` divides by every op of the pass, ``*_per_write`` by its
    document writes (inserts + deletes); a workload without writes
    reports 0 for the latter.
    """
    totals = tracer.by_name(self_times)

    def per_op(*names: str) -> float:
        return _self_us(totals, *names) / ops

    def per_write(*names: str) -> float:
        return _self_us(totals, *names) / writes if writes else 0.0

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    roots = [n for n in totals if n.startswith("op.")]
    return {
        "client.self_us_per_op": per_op("client.query", "client.session", "client.write"),
        "client.build_element_self_us_per_write": per_write("client.build_element"),
        "index.decode_self_us_per_op": per_op("index.decode"),
        "index.decode_calls_per_op": calls("index.decode") / ops,
        "index.list_mutate_self_us_per_write": per_write("index.list_mutate"),
        "crypto.skim_self_us_per_op": per_op("crypto.skim"),
        "crypto.skim_calls_per_op": calls("crypto.skim") / ops,
        "crypto.skim_elements_per_op": totals.get("crypto.skim", {}).get("size", 0) / ops,
        "crypto.encrypt_self_us_per_write": per_write("crypto.encrypt"),
        "keys.self_us_per_op": per_op("keys.lookup"),
        "rstf.transform_self_us_per_write": per_write("rstf.transform"),
        "router.self_us_per_op": per_op("router.submit", "router.tick"),
        "cluster.read_self_us_per_op": per_op("cluster.read"),
        "cluster.write_self_us_per_write": per_write("cluster.write"),
        "replication.record_self_us_per_write": per_write("replication.record"),
        "replication.deliver_self_us_per_write": per_write("replication.deliver"),
        "server.read_self_us_per_op": per_op("server.read"),
        "server.write_self_us_per_write": per_write("server.write"),
        "views.slice_self_us_per_op": per_op("views.slice"),
        "views.build_self_us_per_op": per_op("views.build"),
        "views.patch_self_us_per_write": per_write("views.patch"),
        "harness.unattributed_us_per_op": per_op(*roots),
    }
