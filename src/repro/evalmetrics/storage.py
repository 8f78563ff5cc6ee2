"""Storage accounting (paper §6.3).

"Zerber+R attaches a transformed relevance score TRS to each posting
element … Thus it does not introduce any storage overhead compared with an
ordinary inverted index."  The comparable quantity is *score slots per
posting element*: both systems store exactly one score per element.  We
also report raw bits, where the encrypted payload (a Zerber property, not
a Zerber+R addition) dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cluster import ServerCluster
from repro.index.inverted import OrdinaryInvertedIndex

TRS_BITS = 64  # one double per element, same as a plaintext score slot
# A plaintext posting element: doc id hash + score, the same 64-bit
# encoding the paper assumes for Zerber+R elements in §6.6.
PLAINTEXT_ELEMENT_BITS = 64


@dataclass(frozen=True)
class StorageReport:
    """Side-by-side storage accounting of the two systems."""

    ordinary_elements: int
    ordinary_score_slots: int
    ordinary_bits: int
    zerber_r_elements: int
    zerber_r_score_slots: int
    zerber_r_bits: int

    @property
    def score_slots_per_element_ordinary(self) -> float:
        return self.ordinary_score_slots / max(self.ordinary_elements, 1)

    @property
    def score_slots_per_element_zerber_r(self) -> float:
        return self.zerber_r_score_slots / max(self.zerber_r_elements, 1)

    @property
    def ranking_overhead_bits_per_element(self) -> float:
        """Extra *ranking* bits per element Zerber+R stores vs. ordinary.

        The §6.3 claim is that this is zero: one 64-bit TRS replaces one
        64-bit score.  (Ciphertext overhead belongs to Zerber's encryption,
        present with or without ranking support.)
        """
        return TRS_BITS - PLAINTEXT_ELEMENT_BITS


def compare_storage(
    ordinary: OrdinaryInvertedIndex, cluster: ServerCluster
) -> StorageReport:
    """Build the §6.3 report for one corpus indexed by both systems."""
    return StorageReport(
        ordinary_elements=ordinary.num_posting_elements,
        ordinary_score_slots=ordinary.storage_score_slots(),
        ordinary_bits=ordinary.num_posting_elements * PLAINTEXT_ELEMENT_BITS,
        zerber_r_elements=cluster.num_elements,
        zerber_r_score_slots=cluster.storage_score_slots(),
        zerber_r_bits=cluster.storage_bits(),
    )
