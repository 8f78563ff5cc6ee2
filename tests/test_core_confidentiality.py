"""Unit tests for r-confidentiality auditing (Def. 2)."""

import pytest

from repro.core.confidentiality import audit_merge_plan
from repro.index.merge import MergePlan


class TestAudit:
    PROBS = {"a": 0.3, "b": 0.1, "c": 0.05, "d": 0.25}

    def test_confidential_plan(self):
        plan = MergePlan(groups=(("a", "b"), ("c", "d")), r=4.0)
        audit = audit_merge_plan(plan, self.PROBS)
        assert audit.is_confidential

    def test_amplification_values(self):
        plan = MergePlan(groups=(("a", "b"), ("c", "d")), r=4.0)
        audit = audit_merge_plan(plan, self.PROBS)
        assert audit.per_list_amplification[0] == pytest.approx(1 / 0.4)
        assert audit.per_list_amplification[1] == pytest.approx(1 / 0.3)
        assert audit.max_amplification == pytest.approx(1 / 0.3)

    def test_violating_plan_detected(self):
        plan = MergePlan(groups=(("c",),), r=4.0)  # mass 0.05 -> amp 20
        audit = audit_merge_plan(plan, self.PROBS)
        assert not audit.is_confidential

    def test_one_list_of_every_term_passes(self):
        plan = MergePlan(groups=(("a", "b", "c", "d"),), r=2.0)
        audit = audit_merge_plan(plan, self.PROBS)
        assert audit.is_confidential
        assert audit.max_amplification == pytest.approx(1 / 0.7)

    def test_zero_mass_rejected(self):
        plan = MergePlan(groups=(("a",), ("z",)), r=2.0)
        with pytest.raises(ValueError):
            audit_merge_plan(plan, {"a": 0.6, "z": 0.0})

    def test_boundary_exact_r(self):
        # mass exactly 1/r should pass (Def. 2 uses >=).
        plan = MergePlan(groups=(("a", "b"),), r=2.5)
        audit = audit_merge_plan(plan, {"a": 0.3, "b": 0.1})
        assert audit.is_confidential
