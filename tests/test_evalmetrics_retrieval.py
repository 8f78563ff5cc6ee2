"""Unit tests for retrieval-quality metrics."""

import pytest

from repro.evalmetrics.retrieval import kendall_tau, overlap_at_k


class TestOverlap:
    def test_identical(self):
        assert overlap_at_k(["a", "b", "c"], ["a", "b", "c"], 3) == 1.0

    def test_disjoint(self):
        assert overlap_at_k(["a", "b"], ["c", "d"], 2) == 0.0

    def test_partial(self):
        assert overlap_at_k(["a", "b", "c"], ["b", "c", "d"], 3) == pytest.approx(2 / 3)

    def test_order_insensitive(self):
        assert overlap_at_k(["a", "b"], ["b", "a"], 2) == 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            overlap_at_k(["a"], ["a"], 0)


class TestKendallTau:
    def test_identical_order(self):
        assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed_order(self):
        assert kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_one_swap(self):
        assert kendall_tau(["a", "b", "c"], ["b", "a", "c"]) == pytest.approx(1 / 3)

    def test_non_common_items_dropped(self):
        assert kendall_tau(["a", "x", "b"], ["a", "b", "y"]) == 1.0

    def test_too_few_common(self):
        with pytest.raises(ValueError):
            kendall_tau(["a"], ["b"])
