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
from repro.index.postings import EncryptedPostingElement


def _element(trs=0.5):
    return EncryptedPostingElement(ciphertext=b"12345678", group="g", trs=trs)


class TestResponsePolicy:
    def test_doubling_sizes(self):
        policy = ResponsePolicy(initial_size=10)
        assert [policy.response_size(i) for i in range(4)] == [10, 20, 40, 80]

    def test_total_after_matches_eq12(self):
        # Eq. 12: TRes = b * sum_{i=0..n} 2^i
        policy = ResponsePolicy(initial_size=10)
        assert policy.total_after(3) == 10 * (1 + 2 + 4)
        assert policy.total_after(1) == 10
        assert policy.total_after(0) == 0

    def test_growth_factor_one(self):
        policy = ResponsePolicy(initial_size=5, growth_factor=1)
        assert policy.total_after(4) == 20

    def test_validation(self):
        with pytest.raises(ProtocolError):
            ResponsePolicy(initial_size=0)
        with pytest.raises(ProtocolError):
            ResponsePolicy(initial_size=1, growth_factor=0)
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
        response = FetchResponse(elements=(_element(), _element()), exhausted=False)
        assert len(response) == 2

    def test_response_bits_summed_once_and_shared_by_both_traces(self):
        elements = (
            _element(),
            _element(trs=None),
            EncryptedPostingElement(ciphertext=b"x" * 57, group="h", trs=0.1),
        )
        old_sum = sum(e.size_bits for e in elements)
        assert old_sum == (8 + 8 + 57) * 8 + 2 * 64
        response = FetchResponse(elements=elements, exhausted=False)
        assert response.size_bits == old_sum
        per_term = QueryTrace(term="t", k=3)
        bits = per_term.record_response(response)
        batch = BatchQueryTrace(terms=("t",), k=3)
        batch.record_totals(2, 2 * len(response), 2 * bits)
        assert per_term.bits_transferred == bits == old_sum
        assert batch.bits_transferred == 2 * old_sum
        assert FetchResponse(elements=(), exhausted=True).size_bits == 0
        # The cached sum is no field: equality, hashing and repr ignore it.
        assert response == FetchResponse(elements=elements, exhausted=False)
        assert "size_bits" not in repr(response)


    @pytest.mark.parametrize(
        "trs_values",
        [(), (None,), (0.0,), (None, None), (0.0, None, 1.0, None, 0.25), (0.3,) * 6],
    )
    def test_response_bits_equal_the_per_element_definition(self, trs_values):
        elements = tuple(
            EncryptedPostingElement(ciphertext=b"c" * (7 * i), group="g", trs=trs)
            for i, trs in enumerate(trs_values)
        )
        response = FetchResponse(elements=elements, exhausted=False)
        assert response.size_bits == sum(e.size_bits for e in elements)


class TestQueryTrace:
    def test_record_response_accumulates(self):
        trace = QueryTrace(term="t", k=10)
        trace.record_response(FetchResponse(elements=(_element(),) * 10, exhausted=False))
        trace.record_response(FetchResponse(elements=(_element(),) * 20, exhausted=True))
        assert trace.num_requests == 2
        assert trace.elements_transferred == 30
        assert trace.bits_transferred == 30 * (8 * 8 + 64)

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

    def test_for_slices_builder(self):
        batch = BatchFetchRequest.for_slices("p", [(0, 0, 5), (3, 10, 2)])
        assert len(batch) == 2
        assert batch.requests[1] == self._request(
            principal="p", list_id=3, offset=10, count=2
        )

    def test_slice_validation_still_applies(self):
        with pytest.raises(ProtocolError):
            BatchFetchRequest.for_slices("p", [(0, -1, 5)])

    def test_response_accounting(self):
        response = BatchFetchResponse(
            responses=(
                FetchResponse(elements=(_element(),) * 2, exhausted=False),
                FetchResponse(elements=(), exhausted=True),
            )
        )
        assert len(response) == 2
        assert [len(r) for r in response] == [2, 0]
        assert [r.exhausted for r in response] == [False, True]


class TestBatchQueryTrace:
    def test_record_totals_accumulates(self):
        trace = BatchQueryTrace(terms=("a", "b"), k=10)
        trace.record_totals(2, 20, 20 * 128)
        trace.record_totals(1, 20, 20 * 128)
        assert (trace.num_rounds, trace.num_subfetches) == (2, 3)
        assert (trace.elements_transferred, trace.bits_transferred) == (40, 40 * 128)

    def test_num_requests_counts_server_calls(self):
        trace = BatchQueryTrace(terms=("a", "b", "c"), k=5)
        trace.record_totals(3, 15, 0)
        trace.record_totals(2, 20, 0)
        assert (trace.num_requests, trace.num_subfetches) == (2, 5)
