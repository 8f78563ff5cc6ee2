"""Unit tests for posting element/list data structures."""

import dataclasses
import math
import struct
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import IV_SIZE
from repro.errors import ProtocolError
from repro.index.postings import (
    HEADER_SIZE,
    SEALED_SIZE,
    STORED_ELEMENT_BITS,
    WIRE_ELEMENT_BITS,
    EncryptedPostingElement,
    MergedPostingList,
    PostingElement,
    PostingList,
)
from tests.conftest import posting_bytes, sealed


class TestPostingElement:
    def test_rscore(self):
        element = PostingElement(term="t", doc_id="d", tf=2, doc_length=8)
        assert element.rscore == pytest.approx(0.25)

    def test_zero_tf_rejected(self):
        with pytest.raises(ValueError):
            PostingElement(term="t", doc_id="d", tf=0, doc_length=5)

    def test_tf_above_length_rejected(self):
        with pytest.raises(ValueError):
            PostingElement(term="t", doc_id="d", tf=6, doc_length=5)

    # A plan's terms, numbered: "tëst" is term 1.
    TERMS = ("t", "tëst", "u")
    # A group's document directory, numbered: "1.txt" is document 2.
    NAMES = ("a", "bé/c.txt", "1.txt")

    def test_bytes_roundtrip(self):
        element = PostingElement(term="tëst", doc_id="1.txt", tf=3, doc_length=10)
        data = posting_bytes(element, 1, 2)
        assert PostingElement.from_bytes(data, self.TERMS, self.NAMES) == element

    def test_bytes_layout(self):
        """tf (2) | doc_length (4) | term number (4) | doc number (4)."""
        element = PostingElement(term="tëst", doc_id="1.txt", tf=3, doc_length=10)
        assert posting_bytes(element, 1, 2) == (
            b"\x00\x03" b"\x00\x00\x00\x0a" b"\x00\x00\x00\x01" b"\x00\x00\x00\x02"
        )
        assert (
            posting_bytes(PostingElement("", "", 1, 1), 0, 0)
            == b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00"
        )

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00",  # short header
            b"\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00d",  # a tail
            b"\x00\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x00",  # term past the plan
            b"\x00\x01\x00\x00\x00\x02\xff\xff\xff\xff\x00\x00\x00\x00",  # ... far past it
            b"\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03",  # doc past the directory
            b"\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00\xff\xff\xff\xff",  # ... far past it
            b"\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00",  # tf == 0
            b"\x00\x03\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00",  # doc_length < tf
            # The layouts this one replaced, and what tests pass as
            # "authentic but malformed": an old element is refused, not
            # misread — a v6 one carries its doc id as a tail, the v3
            # one's length byte and first three term bytes read as a
            # term number far outside any plan.
            b"\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00tiny-000000",
            b"\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00d",
            b"\x00\x01\x00\x00\x00\x02\x0aterm000000tiny-000000",
            b'{"d":"studip-000000","f":52,"l":472,"t":"term000000"}',
            b'{"d":"x","f":1,"l":2,"t":"a"}',
            b'{"t":"t"}',
        ],
    )
    def test_malformed_bytes_raise_protocol_error(self, data):
        with pytest.raises(ProtocolError):
            PostingElement.from_bytes(data, self.TERMS, self.NAMES)

    @pytest.mark.parametrize(
        "element, number, doc_number",
        [
            (PostingElement("t", "d", 65_536, 65_536), 0, 0),
            (PostingElement("t", "d", 1, 2**32), 0, 0),
            (PostingElement("t", "d", 1, 2), 2**32, 0),
            (PostingElement("t", "d", 1, 2), -1, 0),
            (PostingElement("t", "d", 1, 2), 0, 2**32),
            (PostingElement("t", "d", 1, 2), 0, -1),
        ],
    )
    def test_fields_the_header_cannot_hold_raise_value_error(
        self, element, number, doc_number
    ):
        with pytest.raises(ValueError):
            posting_bytes(element, number, doc_number)

    @given(
        doc_number=st.integers(-1, 2**32 + 1),
        tf=st.integers(-1, 70_000),
        doc_length=st.integers(-1, 2**32 + 1),
        number=st.integers(-1, 2**32 + 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_document_encoder_packs_or_refuses(self, doc_number, tf, doc_length, number):
        """The encoder returns the packed header for ``(tf, number)``, or a
        ValueError exactly where building the element would refuse the
        counts or the header cannot hold a field."""
        try:
            PostingElement("t", "d", tf, doc_length)
            expected = struct.pack(">HIII", tf, doc_length, number, doc_number)
        except (ValueError, struct.error):
            expected = ValueError
        try:
            encoded = PostingElement.encoder(doc_number, doc_length)(tf, number)
        except ValueError:
            encoded = ValueError
        assert encoded == expected

    def test_header_limits_themselves_fit(self):
        element = PostingElement("u", "1.txt", 65_535, 2**32 - 1)
        assert PostingElement.from_bytes(posting_bytes(element, 2, 2), self.TERMS, self.NAMES) == element
        data = posting_bytes(element, 2**32 - 1, 2**32 - 1)
        assert data[6:] == b"\xff" * 8

    @pytest.mark.parametrize("term", ["", "x" * 300, "é" * 200, "\U0001f600" * 90])
    @pytest.mark.parametrize("doc_id", ["", "d", "dir/ünïcode-" * 20])
    def test_any_term_and_document_cost_the_same_fourteen_bytes(self, term, doc_id):
        """The term and the document are numbers: their lengths, UTF-8 or
        not, no longer reach the plaintext (a 300-byte term overflowed the
        old one-byte length header; a doc id was the variable tail)."""
        element = PostingElement(term, doc_id, 1, 2)
        data = posting_bytes(element, 0, 0)
        assert len(data) == 14
        assert PostingElement.from_bytes(data, (term,), (doc_id,)) == element

    def test_decoded_strings_are_the_plan_and_directory_ones(self):
        """The term is the plan's own string and the doc id the
        directory's: nothing is decoded or interned per element."""
        data = posting_bytes(PostingElement(term="tëst", doc_id="1.txt", tf=3, doc_length=10), 1, 2)
        names = ["a", "b", "".join(["1", ".txt"])]  # not the literal's object
        a = PostingElement.from_bytes(data, self.TERMS, names)
        b = PostingElement.from_bytes(data, self.TERMS, names)
        assert a.term is self.TERMS[1] and a.doc_id is names[2] and b.doc_id is names[2]

    def test_slots_keep_elements_small_and_frozen(self):
        element = PostingElement(term="t", doc_id="d", tf=1, doc_length=2)
        assert not hasattr(element, "__dict__")
        with pytest.raises(AttributeError):
            element.tf = 2


class TestEncryptedPostingElement:
    def test_trs_range_validated(self):
        with pytest.raises(ValueError):
            EncryptedPostingElement(ciphertext=sealed(b"x"), group="g", trs=1.5)

    def test_one_element_format(self):
        """A sealed posting is the synthetic IV and the header; on the
        wire an element is those bytes alone, stored it is those bytes
        and one 64-bit TRS."""
        assert SEALED_SIZE == IV_SIZE + HEADER_SIZE == 16 + 14
        assert WIRE_ELEMENT_BITS == 8 * SEALED_SIZE == 240
        assert STORED_ELEMENT_BITS == 8 * SEALED_SIZE + 64 == 304

    def test_slots_keep_elements_small_and_frozen(self):
        element = EncryptedPostingElement(sealed(b"1234"), group="g", trs=0.5)
        assert not hasattr(element, "__dict__")
        with pytest.raises(AttributeError):
            element.trs = 0.9
        assert element == EncryptedPostingElement(sealed(b"1234"), "g", 0.5)
        assert hash(element) == hash(EncryptedPostingElement(sealed(b"1234"), "g", 0.5))

    @given(
        ciphertext=st.binary(min_size=SEALED_SIZE, max_size=SEALED_SIZE),
        group=st.text(max_size=6),
        trs=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_checked_builds_the_constructed_element(self, ciphertext, group, trs):
        """Filled through its slots, not its constructor, and
        indistinguishable from the constructed element: equal, same hash,
        same repr, and frozen."""
        checked = EncryptedPostingElement.checked(ciphertext, group, trs)
        constructed = EncryptedPostingElement(ciphertext, group, trs)
        assert type(checked) is EncryptedPostingElement
        assert checked == constructed and hash(checked) == hash(constructed)
        assert repr(checked) == repr(constructed)
        with pytest.raises(dataclasses.FrozenInstanceError):
            checked.trs = 0.5
        assert not hasattr(checked, "__dict__")

    @pytest.mark.parametrize(
        "ciphertext, trs, message",
        [
            (sealed(b"x"), -0.0001, r"\[0, 1\]"),
            (sealed(b"x"), 1.0001, r"\[0, 1\]"),
            (sealed(b"x"), math.inf, r"\[0, 1\]"),
            (sealed(b"x"), -math.inf, r"\[0, 1\]"),
            (sealed(b"x"), math.nan, r"\[0, 1\]"),
            (sealed(b"x")[:-1], 0.5, f"{SEALED_SIZE} bytes"),
            (sealed(b"x") + b".", 0.5, f"{SEALED_SIZE} bytes"),
            (b"", 0.5, f"{SEALED_SIZE} bytes"),
            (sealed(b"x")[:IV_SIZE], 0.5, f"{SEALED_SIZE} bytes"),
            (sealed(b"x"), None, "float"),
            (sealed(b"x"), 1, "float"),
            (sealed(b"x"), True, "float"),
            (sealed(b"x"), "0.5", "float"),
        ],
        ids=[
            "below",
            "above",
            "inf",
            "-inf",
            "nan",
            "29-bytes",
            "31-bytes",
            "empty",
            "iv-only",
            "no-trs",
            "int-trs",
            "bool-trs",
            "str-trs",
        ],
    )
    def test_both_builders_refuse_what_is_not_a_sealed_posting_with_a_unit_trs(
        self, ciphertext, trs, message
    ):
        with pytest.raises(ValueError, match=message):
            EncryptedPostingElement.checked(ciphertext, "g", trs)
        with pytest.raises(ValueError, match=message):
            EncryptedPostingElement(ciphertext, "g", trs)


class TestPostingList:
    def _element(self, doc_id, tf, length):
        return PostingElement(term="t", doc_id=doc_id, tf=tf, doc_length=length)

    def test_sorted_descending(self):
        plist = PostingList("t")
        plist.add(self._element("low", 1, 10))
        plist.add(self._element("high", 5, 10))
        plist.add(self._element("mid", 3, 10))
        assert [e.doc_id for e in plist] == ["high", "mid", "low"]

    def test_top_k(self):
        plist = PostingList(
            "t", [self._element(f"d{i}", i + 1, 100) for i in range(5)]
        )
        top = plist.top_k(2)
        assert [e.doc_id for e in top] == ["d4", "d3"]

    def test_top_k_beyond_length(self):
        plist = PostingList("t", [self._element("d", 1, 2)])
        assert len(plist.top_k(10)) == 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            PostingList("t").top_k(-1)

    def test_wrong_term_rejected(self):
        plist = PostingList("t")
        with pytest.raises(ValueError):
            plist.add(PostingElement(term="u", doc_id="d", tf=1, doc_length=2))

    def test_ties_preserved(self):
        plist = PostingList("t")
        plist.add(self._element("a", 1, 10))
        plist.add(self._element("b", 1, 10))
        assert len(plist) == 2


class TestMergedPostingList:
    def _enc(self, trs):
        return EncryptedPostingElement(ciphertext=sealed(b"c"), group="g", trs=trs)

    def test_sorted_insert(self):
        merged = MergedPostingList(0)
        for trs in [0.5, 0.9, 0.1, 0.7]:
            merged.add_sorted_by_trs(self._enc(trs))
        assert [e.trs for e in merged] == [0.9, 0.7, 0.5, 0.1]

    def test_version_increments(self):
        merged = MergedPostingList(0)
        v0 = merged.version
        merged.add_sorted_by_trs(self._enc(0.5))
        assert merged.version == v0 + 1
        merged.pop_at(0)
        assert merged.version == v0 + 2

    def test_sorted_insert_returns_position(self):
        merged = MergedPostingList(0)
        assert merged.add_sorted_by_trs(self._enc(0.5)) == 0
        assert merged.add_sorted_by_trs(self._enc(0.9)) == 0
        assert merged.add_sorted_by_trs(self._enc(0.1)) == 2

    def test_find_and_pop_at(self):
        merged = MergedPostingList(0)
        for trs, payload in [(0.9, b"a"), (0.5, b"b"), (0.1, b"c")]:
            merged.add_sorted_by_trs(
                EncryptedPostingElement(ciphertext=sealed(payload), group="g", trs=trs)
            )
        position, element = merged.find_by_ciphertext(sealed(b"b"), 0.5)
        assert (position, element.trs) == (1, 0.5)
        assert merged.find_by_ciphertext(sealed(b"zz"), 0.5) is None
        assert merged.find_by_ciphertext(sealed(b"b"), 0.9) is None
        popped = merged.pop_at(position)
        assert popped.ciphertext == sealed(b"b")
        assert [e.trs for e in merged] == [0.9, 0.1]
        assert merged.keys_in_sync()


class _CountedTrs(float):
    """A TRS that remembers how often its sort key (``-trs``) was taken."""

    negations = 0

    def __neg__(self):
        self.negations += 1
        return -float(self)


# Few distinct scores, so ties inside a batch and against held elements are
# the rule; every element is its own object, so order is checked by identity.
_trs_batches = st.lists(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 1)),
    max_size=8,
)


class TestSortedInsert:
    """``add_sorted_by_trs`` is the one way an element enters a list: a
    stable insert under one key per element, which never re-keys what the
    list holds."""

    @staticmethod
    def _elements(batch):
        return [
            EncryptedPostingElement(
                ciphertext=sealed(b"c"), group="g", trs=_CountedTrs(trs)
            )
            for trs in batch
        ]

    @given(batches=_trs_batches)
    @settings(max_examples=300, deadline=None)
    def test_ties_keep_arrival_order(self, batches):
        """Held elements before incoming ones at equal TRS, incoming ones
        in arrival order: a stable sort of everything added so far."""
        merged, arrived = MergedPostingList(0), []
        for batch in batches:
            elements = self._elements(batch)
            version = merged.version
            for element in elements:
                merged.add_sorted_by_trs(element)
            arrived += elements
            expected = sorted(arrived, key=lambda e: -float(e.trs))
            assert merged.version == version + len(elements)
            assert len(merged) == len(expected)
            assert all(a is b for a, b in zip(merged, expected))
            assert merged.keys_in_sync()

    @given(batches=_trs_batches)
    @settings(max_examples=100, deadline=None)
    def test_a_key_is_taken_once_per_incoming_element_and_never_again(self, batches):
        merged = MergedPostingList(0)
        held = []
        for batch in batches:
            elements = self._elements(batch)
            for element in elements:
                merged.add_sorted_by_trs(element)
            assert [e.trs.negations for e in elements] == [1] * len(elements)
            assert all(e.trs.negations == 1 for e in held)
            held += elements


class TestTrsAddressedFind:
    """``find_by_ciphertext(ciphertext, trs)`` searches only the run of
    elements stored under *trs*: an element stored under another TRS is
    a miss."""

    def _tied(self):
        merged = MergedPostingList(0)
        for trs, payload in [
            (0.9, b"top"),
            (0.5, b"tie-a"),
            (0.5, b"tie-b"),
            (0.5, b"tie-c"),
            (0.1, b"low"),
        ]:
            merged.add_sorted_by_trs(
                EncryptedPostingElement(ciphertext=sealed(payload), group="g", trs=trs)
            )
        return merged

    @pytest.mark.parametrize("payload", [b"tie-a", b"tie-b", b"tie-c"])
    def test_only_the_matching_ciphertext_of_a_tie_run_goes(self, payload):
        merged = self._tied()
        position, element = merged.find_by_ciphertext(sealed(payload), 0.5)
        assert element.ciphertext == sealed(payload)
        merged.pop_at(position)
        assert sealed(payload) not in [e.ciphertext for e in merged]
        assert len(merged) == 4
        assert merged.keys_in_sync()

    @pytest.mark.parametrize("trs", [0.9, 0.3, 0.0, 1.0])
    def test_another_trs_is_a_miss(self, trs):
        merged = self._tied()
        assert merged.find_by_ciphertext(sealed(b"tie-b"), trs) is None

    def test_an_absent_element_is_a_miss(self):
        merged = self._tied()
        version = merged.version
        assert merged.find_by_ciphertext(sealed(b"gone"), 0.5) is None
        assert merged.find_by_ciphertext(sealed(b"gone"), 0.7) is None
        assert (len(merged), merged.version) == (5, version)
        assert merged.keys_in_sync()

    def test_only_the_tie_run_is_examined(self):
        class Counting(list):
            reads = 0

            def __getitem__(self, index):
                Counting.reads += 1
                return super().__getitem__(index)

        merged = self._tied()
        for i in range(200):
            merged.add_sorted_by_trs(
                EncryptedPostingElement(
                    ciphertext=sealed(b"pad%d" % i), group="g", trs=0.6 + i / 1000
                )
            )
        merged.elements = Counting(merged.elements)
        assert merged.find_by_ciphertext(sealed(b"tie-c"), 0.5) is not None
        assert Counting.reads <= 2 * 3  # the run has three elements


class TestKeySyncInvariant:
    """The key list must mirror ``elements`` through every mutator mix."""

    def _sorted_el(self, trs, payload):
        return EncryptedPostingElement(ciphertext=sealed(payload), group="g", trs=trs)

    def test_mixed_mutator_fuzz_keeps_keys_in_sync(self):
        rng = np.random.default_rng(7)
        merged = MergedPostingList(0)
        live: list[EncryptedPostingElement] = []
        counter = 0
        for _ in range(300):
            op = int(rng.integers(0, 3))
            if op == 0:
                element = self._sorted_el(float(rng.uniform()), b"s%d" % counter)
                counter += 1
                merged.add_sorted_by_trs(element)
                live.append(element)
            elif op == 1:
                elements = [
                    self._sorted_el(float(rng.uniform()), b"b%d" % (counter + i))
                    for i in range(3)
                ]
                counter += 3
                for element in elements:
                    merged.add_sorted_by_trs(element)
                live += elements
            elif live:
                victim = live.pop(int(rng.integers(0, len(live))))
                found = merged.find_by_ciphertext(victim.ciphertext, victim.trs)
                assert found is not None
                merged.pop_at(found[0])
            assert merged.keys_in_sync()
        assert len(merged) == len(live)

    def test_pure_sorted_discipline_survives_interleaved_deletes(self):
        rng = np.random.default_rng(11)
        merged = MergedPostingList(0)
        live: list[EncryptedPostingElement] = []
        for i in range(200):
            element = self._sorted_el(float(rng.uniform()), b"e%d" % i)
            merged.add_sorted_by_trs(element)
            live.append(element)
            if i % 3 == 2:
                victim = live.pop(int(rng.integers(0, len(live))))
                found = merged.find_by_ciphertext(victim.ciphertext, victim.trs)
                merged.pop_at(found[0])
            trs = [e.trs for e in merged]
            assert trs == sorted(trs, reverse=True)
            assert merged.keys_in_sync()


class TestKeyStorage:
    """A held element's sort key is an unboxed double: a boxed ``-trs``
    would cost a 24-byte ``float`` object per element per replica on top
    of the 8-byte slot that points at it."""

    def test_sorted_inserts_keep_eight_bytes_a_key_and_allocate_no_float(self):
        n = 10_000
        trs = np.random.default_rng(1).uniform(size=n).tolist()
        elements = [
            EncryptedPostingElement(ciphertext=sealed(b"c%d" % i), group="g", trs=t)
            for i, t in enumerate(trs)
        ]
        merged = MergedPostingList(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for element in elements:
                merged.add_sorted_by_trs(element)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        keys = merged._neg_trs_keys
        held = sys.getsizeof(merged.elements) - sys.getsizeof([])
        key_bytes = sys.getsizeof(keys) - sys.getsizeof(array("d"))
        # 8 bytes a key, plus the growth reserve of at most 1/16 that any
        # insert-grown buffer keeps.
        assert len(keys) * keys.itemsize == 8 * n
        assert key_bytes <= 8 * n * 17 // 16
        # All the inserts leave behind is the two buffers: no object per key.
        assert grown - held - key_bytes < 1024
        assert merged.keys_in_sync()
