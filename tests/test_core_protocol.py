"""Unit tests for the response policy, query traces (Eq. 12–14), and the
batched fetch protocol messages."""

import pytest

from repro.core.protocol import (
    BatchFetchRequest,
    BatchFetchResponse,
    BatchQueryTrace,
    FetchRequest,
    FetchResponse,
    QueryTrace,
    ResponsePolicy,
)
from repro.errors import ProtocolError
from repro.index.postings import WIRE_ELEMENT_BITS, EncryptedPostingElement
from tests.conftest import sealed


def _element(trs=0.5):
    return EncryptedPostingElement(ciphertext=sealed(b"12345678"), group="g", trs=trs)


class TestResponsePolicy:
    def test_doubling_sizes(self):
        policy = ResponsePolicy(initial_size=10)
        assert [policy.response_size(i) for i in range(4)] == [10, 20, 40, 80]
        assert ResponsePolicy(initial_size=1).response_size(0) == 1

    def test_total_after_matches_eq12(self):
        # Eq. 12: TRes = b * sum_{i=0..n} 2^i
        policy = ResponsePolicy(initial_size=10)
        assert policy.total_after(3) == 10 * (1 + 2 + 4)
        assert policy.total_after(1) == 10
        assert policy.total_after(0) == 0

    def test_validation(self):
        with pytest.raises(ProtocolError):
            ResponsePolicy(initial_size=0)
        with pytest.raises(ProtocolError):
            ResponsePolicy(initial_size=1).response_size(-1)
        with pytest.raises(ProtocolError):
            ResponsePolicy(initial_size=1).total_after(-1)


class TestFetchMessages:
    def test_request_validation(self):
        with pytest.raises(ProtocolError):
            FetchRequest(principal="p", list_id=0, offset=-1, count=1)
        with pytest.raises(ProtocolError):
            FetchRequest(principal="p", list_id=0, offset=0, count=0)

    def test_response_len(self):
        response = FetchResponse((_element(), _element()), False, 0)
        assert len(response) == 2

    @pytest.mark.parametrize("count", [0, 1, 3, 25])
    def test_a_round_books_its_elements_times_element_bits(self, count):
        """Both traces count a reply's elements once and price them at
        WIRE_ELEMENT_BITS each: no reply or element carries a size."""
        response = FetchResponse((_element(),) * count, False, 0)
        per_term = QueryTrace(term="t", k=3)
        assert per_term.record_response(response) == count
        batch = BatchQueryTrace(terms=("t",), k=3)
        batch.record_totals(2, 2 * count)
        assert per_term.bits_transferred == count * WIRE_ELEMENT_BITS
        assert batch.bits_transferred == 2 * count * WIRE_ELEMENT_BITS
        assert not hasattr(response, "size_bits")
        assert not hasattr(_element(), "size_bits")


class TestQueryTrace:
    def test_record_response_accumulates(self):
        trace = QueryTrace(term="t", k=10)
        trace.record_response(FetchResponse((_element(),) * 10, False, 0))
        trace.record_response(FetchResponse((_element(),) * 20, True, 0))
        assert trace.num_requests == 2
        assert trace.elements_transferred == 30
        assert trace.bits_transferred == 30 * WIRE_ELEMENT_BITS

    def test_bandwidth_overhead_eq13_contribution(self):
        trace = QueryTrace(term="t", k=10, elements_transferred=30)
        assert trace.bandwidth_overhead() == pytest.approx(3.0)

    def test_query_efficiency_eq14(self):
        trace = QueryTrace(term="t", k=10, elements_transferred=40)
        assert trace.query_efficiency() == pytest.approx(0.25)

    def test_efficiency_without_responses_rejected(self):
        with pytest.raises(ProtocolError):
            QueryTrace(term="t", k=10).query_efficiency()

    def test_overhead_requires_positive_k(self):
        trace = QueryTrace(term="t", k=0, elements_transferred=5)
        with pytest.raises(ProtocolError):
            trace.bandwidth_overhead()


class TestBatchFetchMessages:
    def _request(self, principal="p", list_id=0, offset=0, count=1):
        return FetchRequest(
            principal=principal, list_id=list_id, offset=offset, count=count
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError):
            BatchFetchRequest(requests=())

    def test_response_accounting(self):
        response = BatchFetchResponse(
            responses=(
                FetchResponse((_element(),) * 2, False, 0),
                FetchResponse((), True, 0),
            )
        )
        assert len(response) == 2
        assert [len(r) for r in response] == [2, 0]
        assert [r.exhausted for r in response] == [False, True]


class TestBatchQueryTrace:
    def test_record_totals_accumulates(self):
        trace = BatchQueryTrace(terms=("a", "b"), k=10)
        trace.record_totals(2, 20)
        trace.record_totals(1, 20)
        assert (trace.num_rounds, trace.num_subfetches) == (2, 3)
        assert (trace.elements_transferred, trace.bits_transferred) == (
            40,
            40 * WIRE_ELEMENT_BITS,
        )

    def test_num_requests_counts_server_calls(self):
        trace = BatchQueryTrace(terms=("a", "b", "c"), k=5)
        trace.record_totals(3, 15)
        trace.record_totals(2, 20)
        assert (trace.num_requests, trace.num_subfetches) == (2, 5)
