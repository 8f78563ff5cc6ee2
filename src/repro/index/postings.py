"""Posting-list data structures.

Three element flavours appear in the reproduction:

* :class:`PostingElement` — the plaintext element of an ordinary inverted
  index (paper Fig. 1): document id, term, raw TF and document length, from
  which the relevance score (Eq. 4) derives.
* :class:`EncryptedPostingElement` — what Zerber/Zerber+R servers store
  (paper Fig. 2/3): an opaque ciphertext of the plaintext element, the
  owning group (for access control), and — only in Zerber+R — the plaintext
  *transformed relevance score* (TRS) used for server-side ranking.
* :class:`MergedPostingList` — a merged list (one per set of merged terms)
  keyed by an integer list id.

The plaintext layout — :meth:`PostingElement.encoder` (``to_bytes`` is
its one-element form) / ``from_bytes`` are its single owner — is one
fixed 14-byte header and nothing else::

    tf (2) | doc_length (4) | term number (4) | doc number (4)

all unsigned big-endian, with no version byte, no padding, no variable
tail and no second layout.  The term travels as its number in the merge
plan (:attr:`~repro.index.merge.MergePlan.terms`, the plan's groups read
in order): every client can name a term from the public plan.  The
number is global, not a slot within a list, so an element the server
moves into another list still decodes to its own term.  The document
travels as its number in its group's
:class:`~repro.crypto.keys.DocumentDirectory`: the key service mints it
when a member first writes the document (dense from 0 per group, never
reused) and hands the directory only to members, with the group's
cipher.  Given the plan's terms and the group's directory, the decoder
maps every byte string either to exactly one element, whose
``to_bytes(term number, doc number)`` is that byte string again, or to a
:class:`~repro.errors.ProtocolError` — a number outside the plan or the
directory included.

What the server learns from a length: the cipher adds a 12-byte nonce
and a 16-byte tag and does not hide the body's length, so the untrusted
server sees ``len(ciphertext) == 12 + 14 + 16 == 42`` for every element
— the same for every document, term, tf and doc_length (pinned in
``tests/test_integration_security.py``).  When the doc id was spelled
out, ``len(doc_id)`` linked one document's elements across lists (a
file path as doc id is as good as a name); when the term was,
``len(term)`` split a merged list into length classes, each attributable
at better odds than Def. 2 allows; the canonical-JSON body before that
also showed the digit counts of tf and doc_length.
"""

from __future__ import annotations

import bisect
import math
import struct
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.errors import ProtocolError

# tf, doc_length, term number, doc number.  Fixed width on purpose: one C
# call decodes it, and the body length varies with nothing at all.
_HEADER = struct.Struct(">HIII")
HEADER_SIZE = _HEADER.size
_unpack = _HEADER.unpack


@dataclass(frozen=True, order=True, slots=True)
class PostingElement:
    """Plaintext posting element: one (term, document) occurrence record."""

    term: str
    doc_id: str
    tf: int
    doc_length: int

    def __post_init__(self) -> None:
        if self.tf <= 0:
            raise ValueError("tf must be positive (absent terms have no element)")
        if self.doc_length < self.tf:
            raise ValueError("doc_length must be >= tf")

    @property
    def rscore(self) -> float:
        """Normalized term frequency ``TF / |d|`` (paper Eq. 4)."""
        return self.tf / self.doc_length

    # -- serialisation (what gets encrypted) --------------------------------

    def to_bytes(self, number: int, doc_number: int) -> bytes:
        """The element's one byte encoding (the encryption plaintext),
        with *number* — the term's number in the merge plan — for the
        term and *doc_number* — the document's number in its group's
        directory — for the doc id.

        :class:`ValueError` for a field the header cannot hold (``tf`` >
        65 535, ``doc_length`` or either number outside ``[0, 2**32)``).
        It is :meth:`encoder`'s encoding.
        """
        return PostingElement.encoder(doc_number, self.doc_length)(self.tf, number)

    @staticmethod
    def encoder(doc_number: int, doc_length: int) -> Callable[[int, int], bytes]:
        """``(tf, number) -> bytes``: the encoding of every element of one
        document, without building the elements.

        A writer encodes a whole document at once, so its number is
        looked up once and each element costs one call: the
        constructor's checks (``tf > 0``, ``doc_length >= tf``) and the
        header pack, with :meth:`to_bytes`'s :class:`ValueError` for a
        field that does not fit.  :meth:`to_bytes` is this encoder's
        single-element form, so the layout keeps one owner.
        """
        pack = _HEADER.pack

        def encode(tf: int, number: int) -> bytes:
            if tf <= 0:
                raise ValueError("tf must be positive (absent terms have no element)")
            if doc_length < tf:
                raise ValueError("doc_length must be >= tf")
            try:
                return pack(tf, doc_length, number, doc_number)
            except struct.error as error:
                raise ValueError(
                    f"posting element does not fit the plaintext header: {error}"
                ) from None

        return encode

    @classmethod
    def from_bytes(
        cls, data: bytes, terms: Sequence[str], names: Sequence[str]
    ) -> "PostingElement":
        """Inverse of :meth:`to_bytes`, naming the term ``terms[number]``
        and the document ``names[doc number]`` (*names* is the element's
        group directory); anything else — a number outside *terms* or
        *names* included — is a :class:`ProtocolError`.

        The term and the doc id are the very strings *terms* and *names*
        hold: nothing is decoded from UTF-8, and a decoded element that
        lives on in a cipher's memo costs no string of its own.

        This is the skim's cold path, once per element a client opens, so
        it runs the constructor's checks inline and fills the slots
        through their descriptors instead of calling the class: the
        generated ``__init__`` would set each frozen field through
        ``object.__setattr__`` and then enter ``__post_init__``.  What it
        returns is an ordinary element — equality, ordering, hash, repr
        and immutability are the dataclass's own.
        """
        try:
            tf, doc_length, number, doc_number = _unpack(data)
        except struct.error as error:
            raise ProtocolError(f"malformed posting element: {error!r}") from None
        if number >= len(terms):
            raise ProtocolError(f"term number {number} is not in the plan")
        if doc_number >= len(names):
            raise ProtocolError(
                f"document number {doc_number} is not in the group's directory"
            )
        if tf <= 0 or doc_length < tf:
            raise ProtocolError(
                f"malformed posting element: tf {tf} with doc_length {doc_length}"
            )
        element = _new(cls)
        _set_term(element, terms[number])
        _set_doc_id(element, names[doc_number])
        _set_tf(element, tf)
        _set_doc_length(element, doc_length)
        return element


# The slot descriptors ``from_bytes`` fills a decoded element through
# (``_new`` serves ``EncryptedPostingElement.checked`` too).
_new = object.__new__
_set_term = PostingElement.term.__set__  # type: ignore[attr-defined]
_set_doc_id = PostingElement.doc_id.__set__  # type: ignore[attr-defined]
_set_tf = PostingElement.tf.__set__  # type: ignore[attr-defined]
_set_doc_length = PostingElement.doc_length.__set__  # type: ignore[attr-defined]


@dataclass(frozen=True, slots=True)
class EncryptedPostingElement:
    """Server-side posting element: ciphertext + plaintext ranking metadata.

    ``trs`` is ``None`` for plain Zerber (no server-side ranking) and a
    float in [0, 1] for Zerber+R.  The ciphertext hides term, document id,
    TF and document length; ``group`` is visible to the server because it
    enforces group-based access control (paper §2, §5.2).
    """

    ciphertext: bytes
    group: str
    trs: float | None = None

    def __post_init__(self) -> None:
        if self.trs is not None and not 0.0 <= self.trs <= 1.0:
            raise ValueError("TRS must lie in [0, 1]")

    @classmethod
    def checked(
        cls, ciphertext: bytes, group: str, trs: float | None
    ) -> "EncryptedPostingElement":
        """The element ``cls(ciphertext, group, trs)``, built the way
        :meth:`PostingElement.from_bytes` builds a decoded one.

        A writer builds one per element it uploads, so the TRS range
        check runs inline and the slots are filled through their
        descriptors: the generated ``__init__`` would set each frozen
        field through ``object.__setattr__`` and then enter
        ``__post_init__``.  Equality, hash, repr and immutability are the
        dataclass's own.
        """
        if trs is not None and not 0.0 <= trs <= 1.0:
            raise ValueError("TRS must lie in [0, 1]")
        element = _new(cls)
        _set_ciphertext(element, ciphertext)
        _set_group(element, group)
        _set_trs(element, trs)
        return element

    @property
    def size_bits(self) -> int:
        """Wire size of the element in bits (for the §6.6 bandwidth model)."""
        overhead = 0 if self.trs is None else 64  # one double for the TRS
        return len(self.ciphertext) * 8 + overhead


# The slot descriptors ``checked`` fills a new element through.
_set_ciphertext = EncryptedPostingElement.ciphertext.__set__  # type: ignore[attr-defined]
_set_group = EncryptedPostingElement.group.__set__  # type: ignore[attr-defined]
_set_trs = EncryptedPostingElement.trs.__set__  # type: ignore[attr-defined]


class PostingList:
    """An ordinary (single-term) posting list, sorted by descending rscore."""

    def __init__(self, term: str, elements: Iterable[PostingElement] = ()) -> None:
        self.term = term
        self._elements: list[PostingElement] = []
        for element in elements:
            self.add(element)

    def add(self, element: PostingElement) -> None:
        """Insert an element, keeping descending-score order."""
        if element.term != self.term:
            raise ValueError(
                f"element term {element.term!r} does not match list term {self.term!r}"
            )
        # Binary search on (-rscore) keeps inserts O(log n) + O(n) shift; the
        # ordinary index is a baseline, so simplicity wins over a heap here.
        keys = [-e.rscore for e in self._elements]
        position = bisect.bisect_right(keys, -element.rscore)
        self._elements.insert(position, element)

    def top_k(self, k: int) -> list[PostingElement]:
        """The k highest-scored elements (fewer if the list is shorter)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self._elements[:k]

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[PostingElement]:
        return iter(self._elements)


@dataclass
class MergedPostingList:
    """A merged posting list held by an untrusted server.

    ``elements`` ordering discipline depends on the system: Zerber keeps
    them randomly permuted; Zerber+R keeps them sorted by descending TRS.
    The list itself does not know which terms it merges — that mapping
    lives client-side (and in the merge plan used at setup time).

    ``version`` increments on every mutation so servers can cache derived
    views (e.g. per-principal readable sub-lists) safely.

    ``_neg_trs_keys`` is a position-parallel ``array('d')`` of sort keys
    (``-trs``; TRS-less elements get ``+inf`` so they order after every
    real TRS): a held element's key is an unboxed 8-byte double, not a
    ``float`` object.  Every mutator maintains the parallelism invariant —
    ``_neg_trs_keys[i] == sort_key(elements[i])`` for all ``i`` — so the
    binary searches in :meth:`add_sorted_by_trs` and the position-paired
    deletes in :meth:`pop_at` never act on stale keys.
    """

    list_id: int
    elements: list[EncryptedPostingElement] = field(default_factory=list)
    version: int = 0
    _neg_trs_keys: array[float] = field(
        default_factory=lambda: array("d"), repr=False
    )

    @staticmethod
    def sort_key(element: EncryptedPostingElement) -> float:
        """The descending-TRS sort key; TRS-less elements sort last."""
        return -element.trs if element.trs is not None else math.inf

    def keys_in_sync(self) -> bool:
        """Whether the key list mirrors ``elements`` position-for-position."""
        return self._neg_trs_keys == array("d", map(self.sort_key, self.elements))

    def add_sorted_by_trs(self, element: EncryptedPostingElement) -> int:
        """Insert keeping descending-TRS order (Zerber+R discipline).

        Returns the insertion position.  (Derived per-principal views
        re-derive their own position with a bisect on their filtered key
        list — a merged-list position is not valid there.)
        """
        if element.trs is None:
            raise ValueError("element has no TRS; use add_random() instead")
        position = bisect.bisect_right(self._neg_trs_keys, -element.trs)
        self._neg_trs_keys.insert(position, -element.trs)
        self.elements.insert(position, element)
        self.version += 1
        return position

    def bulk_load_sorted_by_trs(
        self, elements: Iterable[EncryptedPostingElement]
    ) -> None:
        """Add many elements as one mutation, each bisected to its place.

        What feeding *elements* one by one through
        :meth:`add_sorted_by_trs` leaves — the same objects in the same
        order, held elements before incoming ones at equal TRS and
        incoming ones in arrival order — but all-or-nothing (a TRS-less
        element refuses the whole batch) and with ``version`` advanced
        once per call, also for an empty batch.  A key is taken once per
        incoming element; what the list holds is never re-keyed or
        re-sorted.
        """
        incoming = list(elements)
        if any(e.trs is None for e in incoming):
            raise ValueError("all bulk-loaded elements must carry a TRS")
        held, keys = self.elements, self._neg_trs_keys
        for element in incoming:
            key = -element.trs
            position = bisect.bisect_right(keys, key)
            keys.insert(position, key)
            held.insert(position, element)
        self.version += 1

    def add_random(self, element: EncryptedPostingElement, rng) -> int:
        """Insert at a uniformly random position (Zerber discipline).

        Maintains the key/element parallelism invariant (a random insert
        can break global *sortedness* — that is inherent to the Zerber
        discipline — but the keys never desync positionally, so later
        position-paired deletes stay correct).  Returns the position.
        """
        position = int(rng.integers(0, len(self.elements) + 1))
        self._neg_trs_keys.insert(position, self.sort_key(element))
        self.elements.insert(position, element)
        self.version += 1
        return position

    def find_by_ciphertext(
        self, ciphertext: bytes, trs: float | None = None
    ) -> tuple[int, EncryptedPostingElement] | None:
        """Locate the element with *ciphertext*.

        Returns ``(position, element)`` or ``None``; lets callers inspect
        the element (e.g. check its group tag) before committing to a
        removal without a second O(list) pass.  A caller that knows the
        element's *trs* passes it as a hint: the run of elements sharing
        that TRS is bisected to and searched first, O(log n) on a
        TRS-sorted list.  A wrong hint, or a list that is not sorted,
        only costs that probe — the scan below still decides.
        """
        if trs is not None:
            keys = self._neg_trs_keys
            run = range(bisect.bisect_left(keys, -trs), bisect.bisect_right(keys, -trs))
            for position in run:
                if self.elements[position].ciphertext == ciphertext:
                    return position, self.elements[position]
        for position, element in enumerate(self.elements):
            if element.ciphertext == ciphertext:
                return position, element
        return None

    def pop_at(self, position: int) -> EncryptedPostingElement:
        """Remove and return the element at *position*, key kept in step."""
        element = self.elements.pop(position)
        del self._neg_trs_keys[position]
        self.version += 1
        return element

    def clear(self) -> None:
        """Drop every element (a restore reloads the list from a dump)."""
        self.elements.clear()
        del self._neg_trs_keys[:]
        self.version += 1

    def slice(self, start: int, count: int) -> list[EncryptedPostingElement]:
        """Elements ``[start, start+count)`` in server order."""
        if start < 0 or count < 0:
            raise ValueError("start and count must be non-negative")
        return self.elements[start : start + count]

    @property
    def size_bits(self) -> int:
        """Total wire size of the list in bits."""
        return sum(element.size_bits for element in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[EncryptedPostingElement]:
        return iter(self.elements)
