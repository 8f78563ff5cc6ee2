"""r-confidentiality definitions and audits (paper §3.1, Def. 1 & 2).

Def. 1 bounds an adversary's probability amplification about facts "term t
is in document d": ``P(X | I, B) / P(X | B) <= r``.  For a merged index the
operative consequence is Def. 2: within a merged list with term set ``S``,
the best attribution probability of an element to a term t is
``p_t / sum(p_s for s in S)``, an amplification of ``1 / sum(p_s)`` over the
prior ``p_t`` — hence the requirement ``sum(p_s) >= 1/r``.

This module holds the one Def. 2 check, :func:`audit_merge_plan`: what
:meth:`~repro.core.system.ZerberRSystem.audit`, the examples and the tests
read a plan's confidentiality from.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.index.merge import MergePlan


@dataclass(frozen=True)
class ConfidentialityAudit:
    """Outcome of auditing a merge plan against Def. 2.

    Attributes
    ----------
    per_list_amplification:
        ``amplification[i]`` = ``1 / sum(p_t for t in list i)`` — the worst
        Def. 1 ratio achievable against any term of list ``i``.
    r:
        The bound the plan claims.
    """

    per_list_amplification: tuple[float, ...]
    r: float

    @property
    def max_amplification(self) -> float:
        return max(self.per_list_amplification)

    @property
    def is_confidential(self) -> bool:
        """Whether every merged list respects the r bound."""
        return self.max_amplification <= self.r + 1e-12


def audit_merge_plan(
    plan: MergePlan, probabilities: Mapping[str, float]
) -> ConfidentialityAudit:
    """Compute the per-list amplification of *plan* under corpus statistics."""
    amplifications = []
    for group in plan.groups:
        mass = sum(probabilities[t] for t in group)
        if mass <= 0:
            raise ValueError("merged list has zero probability mass")
        amplifications.append(1.0 / mass)
    return ConfidentialityAudit(
        per_list_amplification=tuple(amplifications), r=plan.r
    )
