"""Posting-list merging schemes (paper §3.1, Def. 2).

A merge plan partitions the vocabulary into groups of terms; each group's
posting lists are merged into one server-side list.  Def. 2 requires, for
every merged list with term set ``S``::

    sum(p_t for t in S) >= 1 / r

where ``p_t`` is the term's normalized document frequency and ``r`` the
confidentiality parameter: an adversary's probability of attributing a
posting element to a specific term is amplified at most ``r``-fold.

Schemes:

* :func:`bfm_merge` — Breadth-First Merging (Zerber's BFM index, the one
  Zerber+R relies on in §5.2/§6.2): terms are taken in descending
  document-frequency order, so each merged list contains terms of *similar
  frequency*.  This is what makes follow-up request counts indistinguishable
  within a list.
* :func:`greedy_pairing_merge` — pairs frequent with rare terms (fills each
  list with the most frequent remaining term, then tops up with the rarest
  ones).  Confidential per Def. 2 but mixes frequencies — the ablation that
  shows why BFM matters for the query-observation attack.

Def. 2 is checked in one place:
:func:`repro.core.confidentiality.audit_merge_plan`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING


from repro.errors import ConfigurationError
from repro.index.postings import TERM_NUMBER_MASK, TERM_NUMBER_SHIFT, PostingElement

if TYPE_CHECKING:
    from repro.crypto.keys import DocumentDirectory


@dataclass(frozen=True)
class MergePlan:
    """A partition of the vocabulary into merged posting lists.

    Attributes
    ----------
    groups:
        ``groups[i]`` is the tuple of terms merged into list id ``i``.
        Read in order, they also number the terms (:attr:`terms`).
    r:
        The confidentiality parameter the plan was built for.
    """

    groups: tuple[tuple[str, ...], ...]
    r: float

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for group in self.groups:
            if not group:
                raise ConfigurationError("empty merge group")
            for term in group:
                if term in seen:
                    raise ConfigurationError(f"term in two groups: {term!r}")
                seen.add(term)

    @property
    def num_lists(self) -> int:
        return len(self.groups)

    @cached_property
    def terms(self) -> tuple[str, ...]:
        """Every term, numbered: a term's number is its index here —
        ``groups`` read in order.  A posting plaintext names its term by
        this number (:meth:`~repro.index.postings.PostingElement.encoder`)."""
        return tuple(term for group in self.groups for term in group)

    @cached_property
    def _addresses(self) -> dict[str, tuple[int, int]]:
        addresses: dict[str, tuple[int, int]] = {}
        for list_id, group in enumerate(self.groups):
            for term in group:
                addresses[term] = (list_id, len(addresses))
        return addresses

    def locate(self, term: str) -> tuple[int, int]:
        """``(list id, term number)`` of *term* in one lookup — what a
        writer needs per element (raises KeyError for unknown terms)."""
        return self._addresses[term]

    def list_of(self, term: str) -> int:
        """List id a term is merged into (raises KeyError for unknown terms)."""
        return self._addresses[term][0]

    @cached_property
    def term_field(self) -> tuple[int, int, int]:
        """``(shift, mask, count)``, what a skim needs to read a posting's
        term number before verifying it
        (:meth:`~repro.crypto.cipher.StreamCipher.skim`): the number is
        the header's big-endian integer ``>> shift & mask``, and this
        plan's terms are the numbers below ``count``."""
        return (TERM_NUMBER_SHIFT, TERM_NUMBER_MASK, len(self.terms))

    def decoder(self, directory: DocumentDirectory) -> Callable[[bytes], PostingElement]:
        """This plan's posting decoder for the group *directory* numbers.
        Only the key service hands a directory out (to members, in a
        keyring), so a decoder resolves a document number only inside
        its own group.

        It resolves :meth:`PostingElement.from_bytes` at call time, so a
        wrapper installed on that classmethod sees every decode a skim
        makes.
        """
        return _decoder(self.terms, directory.names)

    def terms_of(self, list_id: int) -> tuple[str, ...]:
        """Terms merged into *list_id*."""
        if not 0 <= list_id < len(self.groups):
            raise ConfigurationError(f"no such list id: {list_id}")
        return self.groups[list_id]

def _decoder(terms: Sequence[str], names: Sequence[str]) -> Callable[[bytes], PostingElement]:
    def decode(plaintext: bytes) -> PostingElement:
        return PostingElement.from_bytes(plaintext, terms, names)

    return decode


def _threshold_groups(
    ordered_terms: Sequence[str],
    probabilities: Mapping[str, float],
    r: float,
) -> list[list[str]]:
    """Group consecutive terms until each group's mass reaches 1/r.

    The trailing group may fall short of the threshold; it is folded into
    the previous group (or, if it is the only group, kept — the Def. 2
    audit flags genuinely infeasible inputs).
    """
    if r <= 1.0:
        raise ConfigurationError("r must be > 1 (r=1 means no amplification allowed)")
    threshold = 1.0 / r
    groups: list[list[str]] = []
    current: list[str] = []
    mass = 0.0
    for term in ordered_terms:
        current.append(term)
        mass += probabilities[term]
        if mass >= threshold:
            groups.append(current)
            current = []
            mass = 0.0
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return groups


def bfm_merge(probabilities: Mapping[str, float], r: float) -> MergePlan:
    """Breadth-First Merging: descending-frequency grouping (Zerber's BFM).

    Terms are sorted by descending ``p_t`` (ties broken lexicographically
    for determinism) and grouped consecutively until each group satisfies
    Def. 2.  Consecutive grouping of the frequency ranking is what gives
    each merged list terms "of similar frequency distributions" (§5.2).
    """
    ordered = sorted(probabilities, key=lambda t: (-probabilities[t], t))
    groups = _threshold_groups(ordered, probabilities, r)
    return MergePlan(groups=tuple(tuple(g) for g in groups), r=r)


def greedy_pairing_merge(probabilities: Mapping[str, float], r: float) -> MergePlan:
    """Head-meets-tail merging (ablation: maximal frequency mixing).

    Repeatedly seeds a group with the most frequent remaining term, then
    tops it up with the *rarest* remaining terms until Def. 2 holds.  This
    satisfies r-confidentiality but merges very frequent with very rare
    terms — the configuration §6.2 warns about, where follow-up counts
    diverge between a list's terms.
    """
    if r <= 1.0:
        raise ConfigurationError("r must be > 1")
    threshold = 1.0 / r
    descending = sorted(probabilities, key=lambda t: (-probabilities[t], t))
    remaining = descending  # treated as a deque: head = frequent, tail = rare
    head = 0
    tail = len(remaining) - 1
    groups: list[list[str]] = []
    while head <= tail:
        group = [remaining[head]]
        mass = probabilities[remaining[head]]
        head += 1
        while mass < threshold and tail >= head:
            group.append(remaining[tail])
            mass += probabilities[remaining[tail]]
            tail -= 1
        groups.append(group)
    # Fold a trailing under-threshold group into its predecessor.
    if len(groups) >= 2:
        last_mass = sum(probabilities[t] for t in groups[-1])
        if last_mass < threshold:
            groups[-2].extend(groups.pop())
    return MergePlan(groups=tuple(tuple(g) for g in groups), r=r)
