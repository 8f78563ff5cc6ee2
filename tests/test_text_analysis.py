"""Unit tests for per-document term statistics (Eq. 4 inputs)."""

import pytest

from repro.text.analysis import DocumentStats, term_frequencies


class TestFrequencyHelpers:
    def test_term_frequencies_counts(self):
        counts = term_frequencies(["a", "b", "a"])
        assert counts == {"a": 2, "b": 1}



class TestDocumentStats:
    def test_from_tokens(self):
        stats = DocumentStats.from_tokens("d1", ["a", "b", "a"])
        assert stats.length == 3
        assert stats.tf("a") == 2

    def test_from_counts(self):
        stats = DocumentStats.from_counts("d1", {"a": 2, "b": 1})
        assert stats.length == 3

    def test_from_counts_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DocumentStats.from_counts("d1", {"a": 0})

    def test_rscore_matches_eq4(self):
        stats = DocumentStats.from_counts("d1", {"a": 2, "b": 6})
        assert stats.rscore("a") == pytest.approx(2 / 8)

    def test_rscore_absent_term_is_zero(self):
        stats = DocumentStats.from_counts("d1", {"a": 1})
        assert stats.rscore("zzz") == 0.0

    def test_empty_token_stream(self):
        stats = DocumentStats.from_tokens("d1", [])
        assert stats.length == 0
        with pytest.raises(ValueError):
            stats.rscore("a")
