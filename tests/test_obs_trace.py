"""Property and unit tests for the tick-stamped span tracer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace import NULL_TRACER, Span, Tracer


class TickClock:
    """Deterministic stand-in for the replication tick counter."""

    def __init__(self) -> None:
        self.tick = 0

    def __call__(self) -> int:
        self.tick += 1
        return self.tick


def _interpret(tracer: Tracer, script) -> None:
    """Run one nested-span script: each node opens a span around its
    children, so the script IS the expected tree shape."""
    for name, children in script:
        with tracer.span(name):
            _interpret(tracer, children)


# A script is a forest: list of (name, child-forest) nodes.
scripts = st.recursive(
    st.lists(
        st.tuples(st.sampled_from(["serve", "skim", "coalesce"]), st.just([])),
        max_size=3,
    ),
    lambda children: st.lists(
        st.tuples(st.sampled_from(["query", "round", "envelope"]), children),
        max_size=3,
    ),
    max_leaves=12,
)


@given(script=scripts)
@settings(max_examples=100, deadline=None)
def test_spans_are_balanced_and_closed(script):
    tracer = Tracer(TickClock(), capacity=256)
    trace_id = tracer.begin_trace("session")
    _interpret(tracer, script)
    tracer.end_trace(trace_id)
    assert tracer.open_spans() == 0
    assert tracer.active_trace_ids() == []
    for trace in tracer.traces():
        for span in trace.spans():
            assert span.closed
            assert span.end_tick >= span.start_tick


@given(script=scripts)
@settings(max_examples=100, deadline=None)
def test_same_script_yields_identical_trees(script):
    trees = []
    for _ in range(2):
        tracer = Tracer(TickClock(), capacity=256)
        trace_id = tracer.begin_trace("session")
        _interpret(tracer, script)
        tracer.end_trace(trace_id)
        trees.append([trace.to_dict() for trace in tracer.traces()])
    assert trees[0] == trees[1]


@given(script=scripts)
@settings(max_examples=100, deadline=None)
def test_script_shape_is_reproduced_in_the_tree(script):
    tracer = Tracer(TickClock(), capacity=256)
    # One enclosing span keeps the whole script on the nesting stack,
    # so the finished trace's shape must equal the script's shape.
    with tracer.span("root"):
        _interpret(tracer, script)

    def shape(span: Span):
        return [(child.name, shape(child)) for child in span.children]

    def expected(forest):
        return [(name, expected(children)) for name, children in forest]

    (trace,) = tracer.traces()
    assert trace.root.name == "root"
    assert shape(trace.root) == expected(script)


@given(
    num_traces=st.integers(min_value=0, max_value=40),
    capacity=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_finished_ring_is_bounded_and_keeps_newest(num_traces, capacity):
    tracer = Tracer(TickClock(), capacity=capacity)
    for i in range(num_traces):
        with tracer.span(f"t{i}"):
            pass
    finished = tracer.traces()
    assert len(finished) == min(num_traces, capacity)
    expected = [f"t{i}" for i in range(num_traces)][-capacity:]
    assert [trace.root.name for trace in finished] == expected


class TestTracerUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(TickClock(), capacity=0)

    def test_nested_spans_parent_on_the_stack(self):
        tracer = Tracer(TickClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        assert [child.name for child in outer.children] == ["inner"]

    def test_trace_context_attaches_to_the_root(self):
        tracer = Tracer(TickClock())
        trace_id = tracer.begin_trace("session")
        with tracer.span("serve", trace=trace_id):
            pass
        tracer.end_trace(trace_id)
        (trace,) = tracer.traces()
        assert [child.name for child in trace.root.children] == ["serve"]

    def test_unknown_trace_context_becomes_own_root(self):
        tracer = Tracer(TickClock())
        with tracer.span("serve", trace=999):
            pass
        (trace,) = tracer.traces()
        assert trace.root.name == "serve"

    def test_exception_still_closes_the_span(self):
        tracer = Tracer(TickClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                raise RuntimeError("x")
        assert span.closed
        assert tracer.open_spans() == 0

    def test_leaked_roots_are_force_closed_at_capacity(self):
        tracer = Tracer(TickClock(), capacity=3)
        ids = [tracer.begin_trace(f"s{i}") for i in range(5)]
        assert len(tracer.active_trace_ids()) == 3
        assert tracer.active_trace_ids() == ids[2:]
        # the two oldest roots were force-closed into the ring
        assert [trace.root.name for trace in tracer.traces()] == ["s0", "s1"]

    def test_end_trace_is_idempotent_and_none_safe(self):
        tracer = Tracer(TickClock())
        trace_id = tracer.begin_trace("session")
        tracer.end_trace(trace_id)
        tracer.end_trace(trace_id)
        tracer.end_trace(None)
        assert len(tracer.traces()) == 1

    def test_annotate_and_duration(self):
        clock = TickClock()
        tracer = Tracer(clock)
        with tracer.span("serve") as span:
            span.annotate(slices=3)
            clock.tick += 10
        assert span.attributes["slices"] == 3
        assert span.duration_ticks > 0

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("serve", trace=None):
            pass
        NULL_TRACER.end_trace(None)
        assert NULL_TRACER.traces() == [] and NULL_TRACER.open_spans() == 0
