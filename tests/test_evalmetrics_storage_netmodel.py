"""Unit tests for storage accounting (§6.3) and the network model (§6.6)."""

import pytest

from repro.evalmetrics.netmodel import COMPETITOR_RESPONSE_KB, NetworkModel
from repro.evalmetrics.storage import compare_storage


class TestStorage:
    def test_score_slots_equal(self, system, ordinary_index):
        report = compare_storage(ordinary_index, system.cluster)
        # §6.3: one score slot per element in both systems.
        assert report.score_slots_per_element_ordinary == pytest.approx(1.0)
        assert report.score_slots_per_element_zerber_r == pytest.approx(1.0)

    def test_same_element_counts(self, system, ordinary_index):
        report = compare_storage(ordinary_index, system.cluster)
        assert report.ordinary_elements == report.zerber_r_elements

    def test_no_ranking_overhead(self, system, ordinary_index):
        report = compare_storage(ordinary_index, system.cluster)
        assert report.ranking_overhead_bits_per_element == 0.0


class TestNetworkModel:
    MODEL = NetworkModel()

    def test_paper_constants_reproduced(self):
        # 85 elements/term @64 bits = 5440 bits ≈ 0.66 KB (paper: ~0.7 KB).
        assert self.MODEL.per_term_response_kb(85) == pytest.approx(0.664, abs=0.01)

    def test_snippets_kb(self):
        # 10 snippets * 250 B ≈ 2.44 KB (paper: ~2.5 KB).
        assert self.MODEL.snippets_kb(10) == pytest.approx(2.44, abs=0.01)

    def test_total_near_paper_3_5kb(self):
        # The paper reports ≈3.5 KB; its own components (0.7 KB * 2.4 terms
        # + 2.5 KB snippets) sum to ≈4.2 KB, so we assert the 3–4.5 KB band.
        total = self.MODEL.total_response_kb(85, 10)
        assert 3.0 < total < 4.5

    def test_queries_per_second_at_least_paper_750(self):
        # The paper quotes ~750 queries/s including processing overhead; a
        # pure link-bandwidth bound must be at least that.
        assert self.MODEL.queries_per_second(85) >= 750

    def test_modem_download_under_a_second(self):
        assert self.MODEL.modem_seconds(85, 10) < 1.0

    def test_comparison_table_zerber_wins(self):
        rows = dict(self.MODEL.comparison_table(85, 10))
        assert rows["Zerber+R"] < COMPETITOR_RESPONSE_KB["Google"]
        assert set(rows) == {"Zerber+R", "Google", "Altavista", "Yahoo"}

    def test_validation(self):
        with pytest.raises(ValueError):
            self.MODEL.per_term_response_kb(-1)
        with pytest.raises(ValueError):
            self.MODEL.snippets_kb(0)
        with pytest.raises(ValueError):
            self.MODEL.queries_per_second(0)
