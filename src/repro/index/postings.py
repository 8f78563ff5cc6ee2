"""Posting-list data structures.

Three element flavours appear in the reproduction:

* :class:`PostingElement` — the plaintext element of an ordinary inverted
  index (paper Fig. 1): document id, term, raw TF and document length, from
  which the relevance score (Eq. 4) derives.
* :class:`EncryptedPostingElement` — what a Zerber+R server stores (paper
  Fig. 3): an opaque ciphertext of the plaintext element, the owning group
  (for access control) and the plaintext *transformed relevance score*
  (TRS) used for server-side ranking.
* :class:`MergedPostingList` — a merged list (one per set of merged terms)
  keyed by an integer list id, held in descending TRS order.

The plaintext layout — :meth:`PostingElement.encoder` /
``from_bytes`` are its single owner — is one fixed 14-byte header and
nothing else::

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
maps every byte string either to exactly one element, which the
encoder of its doc number and length encodes, with its tf and term
number, to that byte string again, or to a
:class:`~repro.errors.ProtocolError` — a number outside the plan or the
directory included.

The element format is one decision with this module as its owner: the
cipher adds a 16-byte synthetic IV (nonce and tag in one) to the header,
so every ciphertext is :data:`SEALED_SIZE` bytes.  An element has two
sizes, one per place it lives.  On the wire it is those sealed bytes and
nothing else, :data:`WIRE_ELEMENT_BITS` bits: the client stops a term
once it holds ``k`` matches (§5.2), so it never reads a TRS.  On the
server it is the sealed bytes plus the 64-bit TRS the server ranks by,
:data:`STORED_ELEMENT_BITS` bits.  :class:`EncryptedPostingElement`
refuses anything else where it is built, so a wire or storage size is a
count times one of the two and nothing walks the elements to add it up.

What the server learns from a length: the cipher does not hide the
body's length, so the untrusted server sees the same
``len(ciphertext) == SEALED_SIZE`` for every document, term, tf and
doc_length (pinned in ``tests/test_integration_security.py``).  When the
doc id was spelled out, ``len(doc_id)`` linked one document's elements
across lists (a file path as doc id is as good as a name); when the term
was, ``len(term)`` split a merged list into length classes, each
attributable at better odds than Def. 2 allows; the canonical-JSON body
before that also showed the digit counts of tf and doc_length.
"""

from __future__ import annotations

import bisect
import struct
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.crypto.cipher import IV_SIZE
from repro.errors import ProtocolError

# tf, doc_length, term number, doc number.  Fixed width on purpose: one C
# call decodes it, and the body length varies with nothing at all.
_HEADER = struct.Struct(">HIII")
HEADER_SIZE = _HEADER.size
_unpack = _HEADER.unpack
#: Where the term number sits in a header read as one big-endian integer:
#: ``header >> TERM_NUMBER_SHIFT & TERM_NUMBER_MASK`` — bytes 6–10, ahead of
#: the 4-byte doc number.  A skim reads it before verifying the element.
TERM_NUMBER_SHIFT = 8 * 4
TERM_NUMBER_MASK = 0xFFFF_FFFF

#: Bytes of every sealed posting: the synthetic IV, then the header.
SEALED_SIZE = IV_SIZE + HEADER_SIZE
#: Bits of every element on the wire (§6.6): the sealed bytes only; a
#: reader needs no TRS.  The group tag is not counted.
WIRE_ELEMENT_BITS = 8 * SEALED_SIZE
#: Bits of every element a server stores: the sealed bytes and the 64-bit
#: TRS it ranks by.
STORED_ELEMENT_BITS = WIRE_ELEMENT_BITS + 64


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

    @staticmethod
    def encoder(doc_number: int, doc_length: int) -> Callable[[int, int], bytes]:
        """``(tf, number) -> bytes``: the encryption plaintext of every
        element of one document, without building the elements — *number*
        is the term's number in the merge plan, *doc_number* the
        document's number in its group's directory.

        A writer encodes a whole document at once, so its number is
        looked up once and each element costs one call: the
        constructor's checks (``tf > 0``, ``doc_length >= tf``) and the
        header pack, with a :class:`ValueError` for a field the header
        cannot hold (``tf`` > 65 535, ``doc_length`` or either number
        outside ``[0, 2**32)``).  It is the layout's one encoding.
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
        """Inverse of :meth:`encoder`, naming the term ``terms[number]``
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

    The ciphertext is :data:`SEALED_SIZE` bytes and hides term, document
    id, TF and document length; ``group`` is visible to the server
    because it enforces group-based access control (paper §2, §5.2);
    ``trs`` is a float in [0, 1] the server ranks by.  Both ways of
    building one refuse anything else with :class:`ValueError`, so no
    reader checks again.
    """

    ciphertext: bytes
    group: str
    trs: float

    def __post_init__(self) -> None:
        if len(self.ciphertext) != SEALED_SIZE:
            raise ValueError(f"a sealed posting is {SEALED_SIZE} bytes")
        if not isinstance(self.trs, float):
            raise ValueError(f"TRS must be a float, not {self.trs!r}")
        if not 0.0 <= self.trs <= 1.0:
            raise ValueError("TRS must lie in [0, 1]")

    @classmethod
    def checked(
        cls, ciphertext: bytes, group: str, trs: float
    ) -> "EncryptedPostingElement":
        """The element ``cls(ciphertext, group, trs)``, built the way
        :meth:`PostingElement.from_bytes` builds a decoded one.

        A writer builds one per element it uploads, so the constructor's
        checks run inline and the slots are filled through their
        descriptors: the generated ``__init__`` would set each frozen
        field through ``object.__setattr__`` and then enter
        ``__post_init__``.  Equality, hash, repr and immutability are the
        dataclass's own.
        """
        if len(ciphertext) != SEALED_SIZE:
            raise ValueError(f"a sealed posting is {SEALED_SIZE} bytes")
        if not isinstance(trs, float):
            raise ValueError(f"TRS must be a float, not {trs!r}")
        if not 0.0 <= trs <= 1.0:
            raise ValueError("TRS must lie in [0, 1]")
        element = _new(cls)
        _set_ciphertext(element, ciphertext)
        _set_group(element, group)
        _set_trs(element, trs)
        return element


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

    ``elements`` are held in descending TRS order.  The list itself does
    not know which terms it merges — that mapping lives client-side (and
    in the merge plan used at setup time).

    ``version`` increments on every mutation so servers can cache derived
    views (e.g. per-principal readable sub-lists) safely.

    ``_neg_trs_keys`` is a position-parallel ``array('d')`` of sort keys
    (``-trs``): a held element's key is an unboxed 8-byte double, not a
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
        """The descending-TRS sort key."""
        return -element.trs

    def keys_in_sync(self) -> bool:
        """Whether the key list mirrors ``elements`` position-for-position."""
        return self._neg_trs_keys == array("d", map(self.sort_key, self.elements))

    def add_sorted_by_trs(self, element: EncryptedPostingElement) -> int:
        """Insert keeping descending-TRS order.

        Returns the insertion position.  (Derived per-principal views
        re-derive their own position with a bisect on their filtered key
        list — a merged-list position is not valid there.)
        """
        keys = self._neg_trs_keys
        key = -element.trs
        position = bisect.bisect_right(keys, key)
        keys.insert(position, key)
        self.elements.insert(position, element)
        self.version += 1
        return position

    def find_by_ciphertext(
        self, ciphertext: bytes, trs: float
    ) -> tuple[int, EncryptedPostingElement] | None:
        """Locate the element with *ciphertext* and TRS *trs*.

        Returns ``(position, element)`` or ``None``; lets callers inspect
        the element (e.g. check its group tag) before committing to a
        removal.  Only the run of elements sharing *trs* is searched —
        bisected to, O(log n + run) — so an element stored under another
        TRS is a miss.
        """
        keys, elements, key = self._neg_trs_keys, self.elements, -trs
        for position in range(
            bisect.bisect_left(keys, key), bisect.bisect_right(keys, key)
        ):
            if elements[position].ciphertext == ciphertext:
                return position, elements[position]
        return None

    def pop_at(self, position: int) -> EncryptedPostingElement:
        """Remove and return the element at *position*, key kept in step."""
        element = self.elements.pop(position)
        del self._neg_trs_keys[position]
        self.version += 1
        return element

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[EncryptedPostingElement]:
        return iter(self.elements)
