"""Retrieval-quality metrics: overlap and rank correlation.

Used to verify the paper's accuracy claims: Zerber+R single-term rankings
must equal the ordinary index's exactly (monotonic RSTF), and multi-term
accuracy degrades only mildly when IDF is dropped (§3.2's trade-off).
"""

from __future__ import annotations

from collections.abc import Sequence


def overlap_at_k(result_a: Sequence[str], result_b: Sequence[str], k: int) -> float:
    """|top-k(A) ∩ top-k(B)| / k — the symmetric set-overlap measure."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = set(result_a[:k])
    b = set(result_b[:k])
    return len(a & b) / k


def kendall_tau(ranking_a: Sequence[str], ranking_b: Sequence[str]) -> float:
    """Kendall rank correlation between two rankings of the same item set.

    Items present in only one ranking are dropped; ties are impossible in
    a ranking.  Returns a value in [-1, 1]; 1 means identical order.
    """
    common = [item for item in ranking_a if item in set(ranking_b)]
    if len(common) < 2:
        raise ValueError("need at least two common items")
    position_b = {item: i for i, item in enumerate(ranking_b)}
    concordant = 0
    discordant = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            if position_b[common[i]] < position_b[common[j]]:
                concordant += 1
            else:
                discordant += 1
    total = concordant + discordant
    return (concordant - discordant) / total
