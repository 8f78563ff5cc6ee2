"""Inverted-index substrate: postings, ordinary index, merging schemes."""

from repro.index.postings import (
    PostingElement,
    EncryptedPostingElement,
    PostingList,
    MergedPostingList,
)
from repro.index.inverted import OrdinaryInvertedIndex
from repro.index.merge import (
    MergePlan,
    bfm_merge,
    greedy_pairing_merge,
)

__all__ = [
    "PostingElement",
    "EncryptedPostingElement",
    "PostingList",
    "MergedPostingList",
    "OrdinaryInvertedIndex",
    "MergePlan",
    "bfm_merge",
    "greedy_pairing_merge",
]
