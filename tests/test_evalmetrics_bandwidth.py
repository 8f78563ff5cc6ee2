"""Unit tests for the bandwidth/efficiency metrics (Eq. 12–14)."""

import pytest

from repro.core.protocol import BatchQueryTrace, QueryTrace
from repro.evalmetrics.bandwidth import (
    average_bandwidth_overhead,
    average_num_requests,
    average_round_trips,
    batched_request_reduction,
    total_server_requests,
    efficiency_at_percentile,
    efficiency_curve,
)


def _trace(k, transferred, requests=1):
    return QueryTrace(term="t", k=k, num_requests=requests, elements_transferred=transferred)


class TestAggregates:
    def test_avbo_eq13(self):
        traces = [_trace(10, 10), _trace(10, 30)]
        assert average_bandwidth_overhead(traces) == pytest.approx(2.0)

    def test_average_requests(self):
        traces = [_trace(10, 10, requests=1), _trace(10, 30, requests=3)]
        assert average_num_requests(traces) == pytest.approx(2.0)

    @pytest.mark.parametrize("build", ["zerber-r", "zerber"])
    def test_satisfied_means_k_matches_held_on_every_system(
        self, build, system, corpus, rare_term, frequent_term
    ):
        """The flag means one thing on each system: the query held k
        matches."""
        from repro.baselines.zerber import ZerberSystem

        searched = {
            "zerber-r": lambda: system,
            "zerber": lambda: ZerberSystem.build(corpus, r=4.0, seed=9),
        }[build]()
        short = searched.query(rare_term, k=2)  # one document holds the term
        assert len(short.hits) == 1 and not short.trace.satisfied
        held = searched.query(frequent_term, k=2)
        assert len(held.hits) == 2 and held.trace.satisfied

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            average_bandwidth_overhead([])
        with pytest.raises(ValueError):
            average_num_requests([])
        with pytest.raises(ValueError):
            efficiency_curve([])


class TestCurve:
    def test_descending(self):
        traces = [_trace(10, 100), _trace(10, 10), _trace(10, 20)]
        curve = efficiency_curve(traces)
        assert curve == sorted(curve, reverse=True)
        assert curve[0] == pytest.approx(1.0)

    def test_percentile_lookup(self):
        curve = [1.0, 0.5, 0.2, 0.1]
        assert efficiency_at_percentile(curve, 0) == 1.0
        assert efficiency_at_percentile(curve, 50) == 0.2
        assert efficiency_at_percentile(curve, 100) == 0.1

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            efficiency_at_percentile([], 50)
        with pytest.raises(ValueError):
            efficiency_at_percentile([1.0], 101)


def _batch_trace(rounds, subfetches):
    return BatchQueryTrace(
        terms=("a", "b"),
        k=10,
        num_rounds=rounds,
        num_subfetches=subfetches,
    )


class TestBatchedAccounting:
    def test_total_server_requests_mixed_population(self):
        traces = [_trace(10, 10, requests=3), _batch_trace(2, 6)]
        # The single-term trace issued 3 calls; the batched session 2.
        assert total_server_requests(traces) == 5

    def test_average_round_trips(self):
        traces = [_batch_trace(2, 6), _batch_trace(4, 4)]
        assert average_round_trips(traces) == pytest.approx(3.0)

    def test_reduction_fraction(self):
        traces = [_batch_trace(2, 6), _batch_trace(2, 2)]
        # 4 rounds carried 8 slices: half the round-trips disappeared.
        assert batched_request_reduction(traces) == pytest.approx(0.5)

    def test_single_term_sessions_save_nothing(self):
        traces = [_batch_trace(3, 3)]
        assert batched_request_reduction(traces) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            total_server_requests([])
        with pytest.raises(ValueError):
            average_round_trips([])
        with pytest.raises(ValueError):
            batched_request_reduction([])
