"""Unit tests for posting element/list data structures."""

import dataclasses
import math
import struct
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import ProtocolError
from repro.index.postings import (
    EncryptedPostingElement,
    MergedPostingList,
    PostingElement,
    PostingList,
)


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
        data = element.to_bytes(1, 2)
        assert PostingElement.from_bytes(data, self.TERMS, self.NAMES) == element

    def test_bytes_layout(self):
        """tf (2) | doc_length (4) | term number (4) | doc number (4)."""
        element = PostingElement(term="tëst", doc_id="1.txt", tf=3, doc_length=10)
        assert element.to_bytes(1, 2) == (
            b"\x00\x03" b"\x00\x00\x00\x0a" b"\x00\x00\x00\x01" b"\x00\x00\x00\x02"
        )
        assert (
            PostingElement("", "", 1, 1).to_bytes(0, 0)
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
            element.to_bytes(number, doc_number)

    @given(
        doc_number=st.integers(-1, 2**32 + 1),
        tf=st.integers(-1, 70_000),
        doc_length=st.integers(-1, 2**32 + 1),
        number=st.integers(-1, 2**32 + 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_document_encoder_is_to_bytes(self, doc_number, tf, doc_length, number):
        """What the encoder returns for ``(tf, number)`` is what building
        the element and calling ``to_bytes`` returns, or the same
        ValueError: the constructor's for counts it refuses, ``to_bytes``'s
        for a field the header cannot hold."""

        def outcome(call):
            try:
                return call()
            except ValueError as error:
                return type(error), str(error)

        built = outcome(
            lambda: PostingElement("t", "d", tf, doc_length).to_bytes(number, doc_number)
        )
        encoded = outcome(lambda: PostingElement.encoder(doc_number, doc_length)(tf, number))
        assert encoded == built
        if isinstance(built, bytes):
            assert built == struct.pack(">HIII", tf, doc_length, number, doc_number)

    def test_header_limits_themselves_fit(self):
        element = PostingElement("u", "1.txt", 65_535, 2**32 - 1)
        assert PostingElement.from_bytes(element.to_bytes(2, 2), self.TERMS, self.NAMES) == element
        data = element.to_bytes(2**32 - 1, 2**32 - 1)
        assert data[6:] == b"\xff" * 8

    @pytest.mark.parametrize("term", ["", "x" * 300, "é" * 200, "\U0001f600" * 90])
    @pytest.mark.parametrize("doc_id", ["", "d", "dir/ünïcode-" * 20])
    def test_any_term_and_document_cost_the_same_fourteen_bytes(self, term, doc_id):
        """The term and the document are numbers: their lengths, UTF-8 or
        not, no longer reach the plaintext (a 300-byte term overflowed the
        old one-byte length header; a doc id was the variable tail)."""
        element = PostingElement(term, doc_id, 1, 2)
        data = element.to_bytes(0, 0)
        assert len(data) == 14
        assert PostingElement.from_bytes(data, (term,), (doc_id,)) == element

    def test_decoded_strings_are_the_plan_and_directory_ones(self):
        """The term is the plan's own string and the doc id the
        directory's: nothing is decoded or interned per element."""
        data = PostingElement(term="tëst", doc_id="1.txt", tf=3, doc_length=10).to_bytes(1, 2)
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
            EncryptedPostingElement(ciphertext=b"x", group="g", trs=1.5)

    def test_trs_none_allowed(self):
        element = EncryptedPostingElement(ciphertext=b"x", group="g")
        assert element.trs is None

    def test_size_bits_with_trs(self):
        element = EncryptedPostingElement(ciphertext=b"1234", group="g", trs=0.5)
        assert element.size_bits == 4 * 8 + 64

    def test_size_bits_without_trs(self):
        element = EncryptedPostingElement(ciphertext=b"1234", group="g")
        assert element.size_bits == 32

    def test_slots_keep_elements_small_and_frozen(self):
        element = EncryptedPostingElement(ciphertext=b"1234", group="g", trs=0.5)
        assert not hasattr(element, "__dict__")
        with pytest.raises(AttributeError):
            element.trs = 0.9
        assert element == EncryptedPostingElement(b"1234", "g", 0.5)
        assert hash(element) == hash(EncryptedPostingElement(b"1234", "g", 0.5))

    @given(
        ciphertext=st.binary(max_size=12),
        group=st.text(max_size=6),
        trs=st.one_of(st.none(), st.floats(0.0, 1.0)),
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

    @pytest.mark.parametrize("trs", [-0.0001, 1.0001, math.inf, -math.inf, math.nan])
    def test_checked_refuses_a_trs_outside_the_unit_interval(self, trs):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EncryptedPostingElement.checked(b"x", "g", trs)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EncryptedPostingElement(b"x", "g", trs)


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
        return EncryptedPostingElement(ciphertext=b"c", group="g", trs=trs)

    def test_sorted_insert(self):
        merged = MergedPostingList(0)
        for trs in [0.5, 0.9, 0.1, 0.7]:
            merged.add_sorted_by_trs(self._enc(trs))
        assert [e.trs for e in merged] == [0.9, 0.7, 0.5, 0.1]

    def test_bulk_load_equivalent_to_incremental(self):
        values = [0.4, 0.8, 0.2, 0.6, 0.6]
        incremental = MergedPostingList(0)
        for v in values:
            incremental.add_sorted_by_trs(self._enc(v))
        bulk = MergedPostingList(1)
        bulk.bulk_load_sorted_by_trs(self._enc(v) for v in values)
        assert [e.trs for e in incremental] == [e.trs for e in bulk]

    def test_trs_required_for_sorted_insert(self):
        merged = MergedPostingList(0)
        with pytest.raises(ValueError):
            merged.add_sorted_by_trs(
                EncryptedPostingElement(ciphertext=b"c", group="g")
            )
        with pytest.raises(ValueError):
            merged.bulk_load_sorted_by_trs(
                [EncryptedPostingElement(ciphertext=b"c", group="g")]
            )

    def test_random_insert_position_bounds(self):
        rng = np.random.default_rng(1)
        merged = MergedPostingList(0)
        for _ in range(50):
            merged.add_random(
                EncryptedPostingElement(ciphertext=b"c", group="g"), rng
            )
        assert len(merged) == 50

    def test_version_increments(self):
        merged = MergedPostingList(0)
        v0 = merged.version
        merged.add_sorted_by_trs(self._enc(0.5))
        assert merged.version == v0 + 1
        merged.bulk_load_sorted_by_trs([self._enc(0.2)])
        assert merged.version == v0 + 2

    def test_slice(self):
        merged = MergedPostingList(0)
        merged.bulk_load_sorted_by_trs([self._enc(v) for v in [0.9, 0.5, 0.1]])
        assert [e.trs for e in merged.slice(1, 2)] == [0.5, 0.1]
        assert merged.slice(5, 2) == []

    def test_slice_validation(self):
        with pytest.raises(ValueError):
            MergedPostingList(0).slice(-1, 1)

    def test_size_bits(self):
        merged = MergedPostingList(0)
        merged.bulk_load_sorted_by_trs([self._enc(0.5)])
        assert merged.size_bits == 8 + 64

    def test_sorted_insert_returns_position(self):
        merged = MergedPostingList(0)
        assert merged.add_sorted_by_trs(self._enc(0.5)) == 0
        assert merged.add_sorted_by_trs(self._enc(0.9)) == 0
        assert merged.add_sorted_by_trs(self._enc(0.1)) == 2

    def test_find_and_pop_at(self):
        merged = MergedPostingList(0)
        for trs, payload in [(0.9, b"a"), (0.5, b"b"), (0.1, b"c")]:
            merged.add_sorted_by_trs(
                EncryptedPostingElement(ciphertext=payload, group="g", trs=trs)
            )
        position, element = merged.find_by_ciphertext(b"b")
        assert (position, element.trs) == (1, 0.5)
        assert merged.find_by_ciphertext(b"zz") is None
        popped = merged.pop_at(position)
        assert popped.ciphertext == b"b"
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


class TestBulkLoadRefinesSortedInsert:
    """``bulk_load_sorted_by_trs`` is a refinement of repeated
    ``add_sorted_by_trs``: the abstract action is "insert these, one after
    the other"; the bulk load must leave the very state that leaves (the
    abstract-action -> implementation argument PAPERS.md cites for
    Event-B -> SQL), in one version step and without re-keying what it holds."""

    @staticmethod
    def _elements(batch):
        return [
            EncryptedPostingElement(ciphertext=b"c", group="g", trs=_CountedTrs(trs))
            for trs in batch
        ]

    @given(batches=_trs_batches)
    @settings(max_examples=300, deadline=None)
    def test_same_objects_in_the_same_order_as_one_by_one(self, batches):
        bulk, reference = MergedPostingList(0), MergedPostingList(1)
        for batch in batches:
            elements = self._elements(batch)
            version = bulk.version
            bulk.bulk_load_sorted_by_trs(iter(elements))
            for element in elements:
                reference.add_sorted_by_trs(element)
            assert bulk.version == version + 1
            assert len(bulk) == len(reference)
            assert all(a is b for a, b in zip(bulk, reference))
            assert bulk.keys_in_sync()

    @given(batches=_trs_batches)
    @settings(max_examples=100, deadline=None)
    def test_a_key_is_taken_once_per_incoming_element_and_never_again(self, batches):
        merged = MergedPostingList(0)
        held = []
        for batch in batches:
            elements = self._elements(batch)
            merged.bulk_load_sorted_by_trs(elements)
            assert [e.trs.negations for e in elements] == [1] * len(elements)
            assert all(e.trs.negations == 1 for e in held)
            held += elements

    def test_a_refused_batch_changes_nothing(self):
        merged = MergedPostingList(0)
        merged.bulk_load_sorted_by_trs(self._elements([0.5, 0.9]))
        before = (list(merged), merged.version)
        with pytest.raises(ValueError):
            merged.bulk_load_sorted_by_trs(
                self._elements([0.7])
                + [EncryptedPostingElement(ciphertext=b"c", group="g")]
            )
        assert (list(merged), merged.version) == before
        assert merged.keys_in_sync()


class TestTrsAddressedFind:
    """``find_by_ciphertext(ciphertext, trs)``: the hint only narrows the
    search; the answer is the scan's whatever the hint says."""

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
                EncryptedPostingElement(ciphertext=payload, group="g", trs=trs)
            )
        return merged

    @pytest.mark.parametrize("payload", [b"tie-a", b"tie-b", b"tie-c"])
    def test_only_the_matching_ciphertext_of_a_tie_run_goes(self, payload):
        merged = self._tied()
        position, element = merged.find_by_ciphertext(payload, 0.5)
        assert element.ciphertext == payload
        assert (position, element) == merged.find_by_ciphertext(payload)
        merged.pop_at(position)
        assert payload not in [e.ciphertext for e in merged]
        assert len(merged) == 4
        assert merged.keys_in_sync()

    @pytest.mark.parametrize("hint", [0.9, 0.3, 0.0, 1.0, float("nan")])
    def test_wrong_hint_falls_back_to_the_scan(self, hint):
        merged = self._tied()
        assert merged.find_by_ciphertext(b"tie-b", hint) == (
            2,
            merged.elements[2],
        )

    def test_hint_for_an_absent_element_finds_nothing(self):
        merged = self._tied()
        version = merged.version
        assert merged.find_by_ciphertext(b"gone", 0.5) is None
        assert merged.find_by_ciphertext(b"gone", 0.7) is None
        assert (len(merged), merged.version) == (5, version)
        assert merged.keys_in_sync()

    def test_hint_examines_only_the_tie_run(self):
        class Counting(list):
            reads = 0

            def __getitem__(self, index):
                Counting.reads += 1
                return super().__getitem__(index)

        merged = self._tied()
        for i in range(200):
            merged.add_sorted_by_trs(
                EncryptedPostingElement(
                    ciphertext=b"pad%d" % i, group="g", trs=0.6 + i / 1000
                )
            )
        merged.elements = Counting(merged.elements)
        assert merged.find_by_ciphertext(b"tie-c", 0.5) is not None
        assert Counting.reads <= 2 * 3  # the run has three elements

    def test_hint_on_a_randomly_ordered_list_still_finds_by_scan(self):
        rng = np.random.default_rng(5)
        merged = MergedPostingList(0)
        for i in range(50):
            merged.add_random(
                EncryptedPostingElement(
                    ciphertext=b"r%d" % i, group="g", trs=float(rng.uniform())
                ),
                rng,
            )
        for element in list(merged):
            found = merged.find_by_ciphertext(element.ciphertext, element.trs)
            assert found is not None and found[1] is element


class TestKeySyncInvariant:
    """The key list must mirror ``elements`` through every mutator mix."""

    def _sorted_el(self, trs, payload):
        return EncryptedPostingElement(ciphertext=payload, group="g", trs=trs)

    def _random_el(self, payload):
        return EncryptedPostingElement(ciphertext=payload, group="g")

    def test_add_random_maintains_keys(self):
        rng = np.random.default_rng(2)
        merged = MergedPostingList(0)
        for i, trs in enumerate([0.5, 0.9, 0.1]):
            merged.add_sorted_by_trs(self._sorted_el(trs, b"s%d" % i))
        for i in range(10):
            merged.add_random(self._random_el(b"r%d" % i), rng)
        assert merged.keys_in_sync()

    def test_regression_delete_after_random_insert_respects_trs_order(self):
        # Seed bug: add_random never inserted a key, so a later delete
        # removed the *wrong* key and the next sorted insert bisected
        # against stale keys, landing out of TRS order.
        rng = np.random.default_rng(11)  # first draw inserts at position 0
        merged = MergedPostingList(0)
        for trs, payload in [(0.9, b"a"), (0.5, b"b"), (0.2, b"c")]:
            merged.add_sorted_by_trs(self._sorted_el(trs, payload))
        merged.add_random(self._random_el(b"rnd"), rng)
        merged.pop_at(merged.find_by_ciphertext(b"rnd")[0])
        merged.add_sorted_by_trs(self._sorted_el(0.8, b"d"))
        assert [e.trs for e in merged] == [0.9, 0.8, 0.5, 0.2]
        assert merged.keys_in_sync()

    def test_mixed_mutator_fuzz_keeps_keys_in_sync(self):
        rng = np.random.default_rng(7)
        merged = MergedPostingList(0)
        live: list[bytes] = []
        counter = 0
        for _ in range(300):
            op = int(rng.integers(0, 3))
            if op == 0:
                payload = b"s%d" % counter
                counter += 1
                merged.add_sorted_by_trs(
                    self._sorted_el(float(rng.uniform()), payload)
                )
                live.append(payload)
            elif op == 1:
                payload = b"r%d" % counter
                counter += 1
                merged.add_random(self._random_el(payload), rng)
                live.append(payload)
            elif live:
                victim = live.pop(int(rng.integers(0, len(live))))
                found = merged.find_by_ciphertext(victim)
                assert found is not None
                merged.pop_at(found[0])
            assert merged.keys_in_sync()
        assert len(merged) == len(live)

    def test_pure_sorted_discipline_survives_interleaved_deletes(self):
        rng = np.random.default_rng(11)
        merged = MergedPostingList(0)
        live: list[bytes] = []
        for i in range(200):
            payload = b"e%d" % i
            merged.add_sorted_by_trs(
                self._sorted_el(float(rng.uniform()), payload)
            )
            live.append(payload)
            if i % 3 == 2:
                victim = live.pop(int(rng.integers(0, len(live))))
                merged.pop_at(merged.find_by_ciphertext(victim)[0])
            trs = [e.trs for e in merged]
            assert trs == sorted(trs, reverse=True)
            assert merged.keys_in_sync()


class TestKeyStorage:
    """A held element's sort key is an unboxed double: a boxed ``-trs``
    would cost a 24-byte ``float`` object per element per replica on top
    of the 8-byte slot that points at it."""

    def test_bulk_load_keeps_eight_bytes_a_key_and_allocates_no_float(self):
        n = 10_000
        trs = np.random.default_rng(1).uniform(size=n).tolist()
        elements = [
            EncryptedPostingElement(ciphertext=b"c%d" % i, group="g", trs=t)
            for i, t in enumerate(trs)
        ]
        merged = MergedPostingList(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            merged.bulk_load_sorted_by_trs(elements)
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
        # All the load leaves behind is the two buffers: no object per key.
        assert grown - held - key_bytes < 1024
        assert merged.keys_in_sync()
