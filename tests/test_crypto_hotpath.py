"""Hot-path crypto: the optimized implementations are byte-identical to
straight-line references, known answers stay pinned across refactors, and
the batch/memo layers change performance only — never bytes."""

import dataclasses
import functools
import gc
import hashlib
import hmac
import operator
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import IV_SIZE, StreamCipher
from repro.core.client import skim_matches
from repro.crypto.keys import DocumentDirectory
from repro.crypto.prf import Prf, derive_key
from repro.errors import ProtocolError
from repro.index.merge import MergePlan
from repro.index.postings import SEALED_SIZE, EncryptedPostingElement, PostingElement
from tests.conftest import posting_bytes, sealed

KEY = b"0123456789abcdef0123456789abcdef"
TERMS = ("apple", "pear", "plum")
# "t" is term 0; the skim's terms follow.
PLAN = MergePlan(groups=(("t",), TERMS), r=2.0)
# One group directory holding every doc id the tests below write.
DIRECTORY = DocumentDirectory(["d", "d0", "d1", "doc", *(f"doc-{i}" for i in range(12))])
DECODE = PLAN.decoder(DIRECTORY)
FIELD = PLAN.term_field
# The field of a plan with no terms: no number is dropped on sight, so the
# kernel verifies every element — its memo rules without the header-first drop.
EVERY = (*FIELD[:2], 0)


def _plaintext(posting):
    """*posting*'s encryption plaintext under PLAN and DIRECTORY."""
    return posting_bytes(posting, PLAN.locate(posting.term)[1], DIRECTORY.number(posting.doc_id))

key_strategy = st.binary(min_size=16, max_size=64)


# -- straight-line references (what the optimized code must match) ------------


def reference_prf(key: bytes, message: bytes) -> bytes:
    """One hmac.new per call: the definitionally-correct PRF."""
    return hmac.new(key, message, hashlib.sha256).digest()


def reference_keystream(key: bytes, iv: bytes, length: int) -> bytes:
    """One-shot keyed BLAKE2b-512 blocks, no precomputed state: block 0
    over the IV, block ``i >= 1`` over ``iv || i``, cut to length."""
    blocks = []
    counter = 0
    while 64 * counter < length:
        message = iv + counter.to_bytes(8, "big") if counter else iv
        blocks.append(hashlib.blake2b(message, key=key).digest())
        counter += 1
    return b"".join(blocks)[:length]


def reference_encrypt(master_key: bytes, plaintext: bytes) -> bytes:
    """SIV spelled out byte by byte: the IV a one-shot keyed BLAKE2b-128
    of the plaintext under the ``"siv:v8"`` subkey, the body the
    plaintext XOR a one-shot keyed-BLAKE2b keystream over that IV under
    the ``"enc"`` subkey, no precomputed state."""
    enc_key = reference_prf(master_key, b"derive:enc")
    siv_key = reference_prf(master_key, b"derive:siv:v8")
    iv = hashlib.blake2b(plaintext, key=siv_key, digest_size=16).digest()
    stream = reference_keystream(enc_key, iv, len(plaintext))
    return iv + bytes(p ^ s for p, s in zip(plaintext, stream))


def v7_sealed(master_key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """A ciphertext as format v7 sealed it: ``nonce (12) || body || tag
    (16)``, the same keystream over the nonce and keyed BLAKE2b-128 over
    ``nonce || body`` under the ``"mac:v6"`` subkey."""
    enc_key = reference_prf(master_key, b"derive:enc")
    mac_key = reference_prf(master_key, b"derive:mac:v6")
    stream = reference_keystream(enc_key, nonce, len(plaintext))
    head = nonce + bytes(p ^ s for p, s in zip(plaintext, stream))
    return head + hashlib.blake2b(head, key=mac_key, digest_size=16).digest()


# -- known-answer vectors (pin the bytes across future refactors) -------------


class TestKnownAnswers:
    def test_prf_evaluate(self):
        assert Prf(KEY).evaluate(b"known-answer").hex() == (
            "a64987137614a6766c0a68940706ccff"
            "e9e09b8fc1e517307c72b6fbcbdee547"
        )

    def test_derive_key(self):
        assert derive_key(KEY, "enc").hex() == (
            "da1e7564d2b19f985e5bbf440318a564"
            "f4087d70c87fb15f245049d107cc5611"
        )

    # Pinned from reference_encrypt, not from the code under test.
    def test_cipher_encrypt(self):
        assert StreamCipher(KEY).encrypt(b"attack at dawn").hex() == (
            "c292d18bc5e148028bab8c632c24a5b2"  # iv
            "0ff3be46b6668496eb8a5ccdd4d7"  # body
        )


# -- optimized == reference, for all inputs -----------------------------------


@given(key=key_strategy, message=st.binary(max_size=256))
@settings(max_examples=150, deadline=None)
def test_prf_matches_hmac(key, message):
    assert Prf(key).evaluate(message) == reference_prf(key, message)


@given(key=key_strategy, plaintext=st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_encrypt_matches_reference(key, plaintext):
    assert StreamCipher(key).encrypt(plaintext) == reference_encrypt(key, plaintext)


@given(key=key_strategy, plaintext=st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_roundtrip_through_reference_ciphertext(key, plaintext):
    """A reference-built ciphertext opens on both optimized paths, the
    inline one-block keystream and the multi-block one alike."""
    ciphertext = reference_encrypt(key, plaintext)
    cipher = StreamCipher(key)
    assert cipher.try_decrypt(ciphertext) == plaintext


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 127, 128, 129, 300])
def test_the_block_edges_match_the_reference(size):
    """64 bytes is the last one-digest body, 65 the first to need block 1."""
    plaintext = bytes(index % 256 for index in range(size))
    cipher = StreamCipher(KEY)
    ciphertext = cipher.encrypt(plaintext)
    assert ciphertext == reference_encrypt(KEY, plaintext)
    assert cipher.try_decrypt(ciphertext) == plaintext


@given(
    key=key_strategy,
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=300),
)
@settings(max_examples=100, deadline=None)
def test_a_v7_sealed_ciphertext_is_refused(key, nonce, plaintext):
    """A v7 seal is not misread as an IV and a longer body: no IV the
    ``"siv:v8"`` subkey produced heads it, so it is refused and nothing
    is memoised."""
    ciphertext = v7_sealed(key, plaintext, nonce)
    cipher = StreamCipher(key)
    assert cipher.try_decrypt(ciphertext) is None
    assert cipher.skim(ciphertext, 0, EVERY, _decode) is None
    assert cipher._memo == {} and cipher.memo_hits == 0


# -- raw opens ------------------------------------------------------------------


class TestTryDecryptMany:
    def _batch(self):
        cipher = StreamCipher(KEY)
        good = [cipher.encrypt(b"element-%d" % i) for i in range(8)]
        other = StreamCipher(b"x" * 32).encrypt(b"foreign")
        tampered = bytearray(good[0])
        tampered[IV_SIZE] ^= 1
        return cipher, good + [other, bytes(tampered), b"short"]

    def test_matches_per_element_try_decrypt(self):
        cipher, batch = self._batch()
        expected = [StreamCipher(KEY).try_decrypt(ct) for ct in batch]
        assert cipher.try_decrypt_many(batch) == expected

    def test_order_preserved(self):
        cipher, batch = self._batch()
        result = cipher.try_decrypt_many(batch)
        assert result[:8] == [b"element-%d" % i for i in range(8)]
        assert result[8:] == [None, None, None]

    def test_empty_plaintexts(self):
        cipher = StreamCipher(KEY)
        batch = [cipher.encrypt(b"")] * 3
        assert cipher.try_decrypt_many(batch) == [b"", b"", b""]

    def test_a_raw_open_neither_reads_nor_writes_the_memo(self):
        cipher = StreamCipher(KEY, memo_capacity=2)
        one, two, three = (cipher.encrypt(b"m%d" % i) for i in range(3))
        assert cipher.skim(one, 0, EVERY, _decode) == ("decoded", b"m0")
        assert cipher.skim(two, 0, EVERY, _decode) == ("decoded", b"m1")
        before = list(cipher._memo.items())
        # Raw opens of a memoised and of an unseen ciphertext: bytes come
        # back, nothing is served from, stored in or evicted from the memo.
        assert cipher.try_decrypt_many([one, three, one]) == [b"m0", b"m2", b"m0"]
        assert cipher.memo_hits == 0 and list(cipher._memo.items()) == before
        assert cipher.skim(one, 0, EVERY, _decode) == ("decoded", b"m0")
        assert cipher.memo_hits == 1


# -- the skim kernel's memo -------------------------------------------------------


def _decode(plaintext: bytes) -> tuple[str, bytes]:
    return ("decoded", plaintext)


class TestSkimMemo:
    """The memo holds ``decode(verified plaintext)``: a hit skips
    keystream, IV check and decode, and is only ever what a miss would
    have been.  These skims use :data:`EVERY`, so no element is dropped
    on sight and every one is a candidate."""

    def _batch(self, cipher, count=4):
        return [cipher.encrypt(b"hot-%d" % i) for i in range(count)]

    def _skim(self, cipher, batch, decode=_decode):
        return [cipher.skim(ciphertext, 0, EVERY, decode) for ciphertext in batch]

    def test_hit_skips_the_decoder(self):
        cipher = StreamCipher(KEY)
        batch = self._batch(cipher)
        calls = []

        def decode(plaintext):
            calls.append(plaintext)
            return ("decoded", plaintext)

        first = self._skim(cipher, batch, decode)
        assert first == [("decoded", b"hot-%d" % i) for i in range(4)]
        assert self._skim(cipher, batch, decode) == first
        assert len(calls) == 4 and cipher.memo_hits == 4

    def test_memo_is_bounded(self):
        cipher = StreamCipher(KEY, memo_capacity=16)
        self._skim(cipher, self._batch(cipher, 100))
        assert len(cipher._memo) <= 16

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            StreamCipher(KEY, memo_capacity=-1)

    def test_tampered_ciphertext_never_served_from_memo(self):
        cipher = StreamCipher(KEY)
        (ciphertext,) = self._batch(cipher, 1)
        assert self._skim(cipher, [ciphertext]) == [("decoded", b"hot-0")]
        for position in range(len(ciphertext)):
            tampered = bytearray(ciphertext)
            tampered[position] ^= 0x80
            assert self._skim(cipher, [bytes(tampered)]) == [None]
        assert self._skim(cipher, [ciphertext[:-1], ciphertext + b"\0"]) == [None, None]
        assert cipher.memo_hits == 0 and list(cipher._memo) == [ciphertext]

    def test_capacity_zero_decodes_and_stores_nothing(self):
        cipher = StreamCipher(KEY, memo_capacity=0)
        batch = self._batch(cipher)
        for _ in range(2):
            assert self._skim(cipher, batch) == [("decoded", b"hot-%d" % i) for i in range(4)]
        assert cipher._memo == {} and cipher.memo_hits == 0

    def test_failed_decode_is_never_memoised(self):
        cipher = StreamCipher(KEY)
        good = cipher.encrypt(_plaintext(PostingElement("t", "d", 1, 2)))
        bad = cipher.encrypt(b'{"t":"t"}')  # authentic, malformed
        for _ in range(2):
            with pytest.raises(ProtocolError):
                [cipher.skim(ct, 0, FIELD, DECODE) for ct in (good, bad, good)]
        assert list(cipher._memo) == [good]

    def test_decoder_that_raises_keeps_the_hits_served_before_it(self):
        """The bug: a batch-local tally added after the loop lost every
        hit served before the element whose decode raised."""
        cipher = StreamCipher(KEY)
        first, second = (
            cipher.encrypt(_plaintext(PostingElement("t", f"d{i}", 1, 2)))
            for i in range(2)
        )
        bad = cipher.encrypt(b'{"t":"t"}')  # authentic, malformed
        skim_t = functools.partial(cipher.skim, number=0, field=FIELD, decode=DECODE)
        [skim_t(ct) for ct in (first, second)]
        assert cipher.memo_hits == 0
        with pytest.raises(ProtocolError):
            [skim_t(ct) for ct in (first, second, bad)]
        assert cipher.memo_hits == 2
        assert list(cipher._memo) == [first, second]

    def test_decoder_never_sees_unauthenticated_bytes(self):
        cipher = StreamCipher(KEY)
        good = [cipher.encrypt(b"el-%d" % i) for i in range(5)]
        foreign = StreamCipher(b"x" * 32).encrypt(b"foreign")
        broken = good[1][:-1] + bytes([good[1][-1] ^ 1])
        pool = [good[0], foreign, good[1], broken, good[0], b"short", *good[2:], good[1]]
        seen = []

        def decode(plaintext):
            seen.append(plaintext)
            return plaintext

        self._skim(cipher, pool, decode)
        assert sorted(seen) == [b"el-%d" % i for i in range(5)]  # once each
        assert len(cipher._memo) == 5


class TestHeaderFirstSkim:
    """The kernel reads a posting's term number before it verifies: an
    element of another term of the plan is dropped on sight and
    memoised as that number; only a candidate is verified, decoded and
    memoised decoded."""

    def _slice(self, cipher):
        """Two elements of each of the skim's terms, interleaved."""
        return {
            (term, serial): cipher.encrypt(
                _plaintext(PostingElement(term, f"doc-{serial}", 1 + serial, 40))
            )
            for serial in range(2)
            for term in TERMS
        }

    def _counting_ivs(self, cipher):
        """Count the IVs *cipher* computes from here on."""
        computed = []
        siv = cipher._siv

        def counting():
            computed.append(1)
            return siv()

        cipher._siv = counting
        return computed

    def _skim(self, cipher, elements, term, decode=DECODE):
        number = PLAN.locate(term)[1]
        return [cipher.skim(ciphertext, number, FIELD, decode) for ciphertext in elements]

    def test_only_a_candidate_is_verified_decoded_and_memoised_decoded(self):
        cipher = StreamCipher(KEY)
        slice_ = self._slice(cipher)
        ivs, decoded = self._counting_ivs(cipher), []

        def decode(plaintext):
            decoded.append(plaintext)
            return DECODE(plaintext)

        opened = self._skim(cipher, slice_.values(), "pear", decode)
        assert [posting is not None for posting in opened] == [
            term == "pear" for term, _ in slice_
        ]
        assert len(ivs) == len(decoded) == 2  # the two pears, nothing else
        assert list(cipher._memo.items()) == [
            (ciphertext, posting if term == "pear" else PLAN.locate(term)[1])
            for ((term, _), ciphertext), posting in zip(slice_.items(), opened)
        ]
        assert cipher.memo_hits == 0

    def test_a_memoised_number_equal_to_the_wanted_one_is_not_a_hit(self):
        """A hit means "answered without a keystream": a dropped element
        met again by its own term pays its keystream, IV check and decode
        then, and its entry becomes the decoded posting."""
        cipher = StreamCipher(KEY)
        slice_ = self._slice(cipher)
        self._skim(cipher, slice_.values(), "pear")
        ivs = self._counting_ivs(cipher)
        opened = self._skim(cipher, slice_.values(), "apple")
        assert cipher.memo_hits == 4  # the pears (decoded) and the plums (numbers)
        assert len(ivs) == 2  # the apples, verified now
        assert [p.term for p in opened if p is not None] == ["apple", "pear"] * 2
        assert {type(v) for (t, _), v in zip(slice_, cipher._memo.values()) if t != "plum"} == {
            PostingElement
        }
        self._skim(cipher, slice_.values(), "plum")
        assert cipher.memo_hits == 4 + 4 and len(ivs) == 2 + 2

    def test_a_malformed_element_of_another_term_raises_only_for_its_own(self):
        cipher = StreamCipher(KEY)
        apple = PLAN.locate("apple")[1]
        # Authentic, and a header naming a document past the directory.
        malformed = cipher.encrypt(
            posting_bytes(PostingElement("apple", "d", 1, 2), apple, 2**32 - 1)
        )
        for _ in range(2):
            assert self._skim(cipher, [malformed], "pear") == [None]
            with pytest.raises(ProtocolError):
                self._skim(cipher, [malformed], "apple")
            assert cipher._memo == {malformed: apple}  # its number, never a decode

    def test_an_authentic_number_outside_the_plan_raises_for_every_term(self):
        cipher = StreamCipher(KEY)
        outside = cipher.encrypt(
            posting_bytes(PostingElement("apple", "d", 1, 2), len(PLAN.terms), 0)
        )
        for term in PLAN.terms:
            with pytest.raises(ProtocolError):
                self._skim(cipher, [outside], term)
        assert cipher._memo == {} and cipher.memo_hits == 0

    @given(term_of=st.sampled_from(TERMS), bit=st.integers(0, 8 * SEALED_SIZE - 1))
    @settings(max_examples=200, deadline=None)
    def test_a_tampered_element_is_dropped_whatever_its_header_reads(self, term_of, bit):
        """Flip any one bit of a sealed element of a readable group: for
        every term of the plan, twice over (cold, then through the memo),
        the skim drops it — no raise, no match — and the authentic
        element still opens."""
        ring = {"g": (StreamCipher(KEY), DECODE)}
        cipher = ring["g"][0]
        element = PostingElement(term_of, "d", 3, 7)
        authentic = cipher.encrypt(_plaintext(element))
        tampered = bytearray(authentic)
        tampered[bit // 8] ^= 0x80 >> bit % 8
        sent = [EncryptedPostingElement(bytes(tampered), "g", 0.5)]
        for _ in range(2):
            for term in PLAN.terms:
                assert skim_matches(sent, term, PLAN.locate(term)[1], FIELD, ring) == []
        assert all(type(value) is int for value in cipher._memo.values())
        assert self._skim(cipher, [authentic], term_of) == [element]


# -- the decoder of the skim's cold path ----------------------------------------


@st.composite
def _postings(draw):
    """Any element the header can hold, of a term in the plan."""
    tf = draw(st.integers(min_value=1, max_value=65_535))
    return PostingElement(
        term=draw(st.sampled_from(PLAN.terms)),
        doc_id=draw(st.text(max_size=12)),
        tf=tf,
        doc_length=draw(st.integers(min_value=tf, max_value=2**32 - 1)),
    )


def _decoded(element):
    directory = DocumentDirectory([element.doc_id])
    return PLAN.decoder(directory)(posting_bytes(element, PLAN.locate(element.term)[1], 0))


@given(element=_postings(), other=_postings())
@settings(max_examples=150, deadline=None)
def test_a_decoded_element_is_the_constructed_one(element, other):
    """Filled through its slots, not its constructor, and indistinguishable
    from the constructed element: equal, same hash, same repr, ordered the
    same way against another, and frozen."""
    decoded, decoded_other = _decoded(element), _decoded(other)
    assert type(decoded) is PostingElement
    assert decoded == element and hash(decoded) == hash(element)
    assert repr(decoded) == repr(element)
    for compare in (operator.lt, operator.le, operator.eq, operator.ge, operator.gt):
        assert compare(decoded, decoded_other) == compare(element, other)
    with pytest.raises(dataclasses.FrozenInstanceError):
        decoded.tf = element.tf + 1
    assert decoded == element


class TestMalformedPlaintext:
    """The decoder runs the constructor's checks itself: an authentic
    plaintext the constructor would refuse raises ``ProtocolError`` and is
    never memoised, so the next open raises again."""

    GOOD = PostingElement("pear", "doc", 2, 5)

    @pytest.mark.parametrize(
        "plaintext",
        [
            b"\x00\x00" b"\x00\x00\x00\x05" b"\x00\x00\x00\x02" b"\x00\x00\x00\x03",
            b"\x00\x06" b"\x00\x00\x00\x05" b"\x00\x00\x00\x02" b"\x00\x00\x00\x03",
            b"\x00\x02" b"\x00\x00\x00\x05" b"\x00\x00\x00\x02" b"\x00\x00\x00\x03d",
            b"\x00\x02" b"\x00\x00\x00\x05" b"\x00\x00\x00\x02" b"\x00\x00\x00",
            b"\x00\x02" b"\x00\x00\x00\x05" b"\x00\x00\x00\x04" b"\x00\x00\x00\x03",
            b"\x00\x02" b"\x00\x00\x00\x05" b"\x00\x00\x00\x02" b"\xff\xff\xff\xff",
            b"\x00\x02" b"\x00\x00\x00\x05" b"\x00\x00\x00\x02" b"doc",
        ],
        ids=[
            "tf-zero",
            "doc-length-below-tf",
            "trailing-byte",
            "short-header",
            "term-outside-plan",
            "doc-outside-directory",
            "v6-doc-id-tail",
        ],
    )
    def test_raises_protocol_error_and_is_not_memoised(self, plaintext):
        """Skimmed for pear, the term each header names (or a number
        outside the plan, where the header is cut or padded)."""
        cipher = StreamCipher(KEY)
        good = cipher.encrypt(_plaintext(self.GOOD))
        bad = cipher.encrypt(plaintext)
        pear = PLAN.locate("pear")[1]
        assert cipher.skim(good, pear, FIELD, DECODE) == self.GOOD
        for _ in range(2):
            with pytest.raises(ProtocolError):
                cipher.skim(bad, pear, FIELD, DECODE)
        assert list(cipher._memo) == [good] and cipher.memo_hits == 0


# -- the skim kernel's exact frame budget -----------------------------------------


def _frames_entered(call):
    """Python frames entered while *call* runs (``call`` events only).

    The collector is off while it counts: a collection that happens to
    fall inside *call* runs ``gc.callbacks`` (hypothesis registers one)
    and weakref callbacks, whose frames are not *call*'s."""
    entered = 0

    def profile(frame, event, arg):
        nonlocal entered
        if event == "call":
            entered += 1

    enabled, previous = gc.isenabled(), sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)  # a census or coverage hook keeps running
        if enabled:
            gc.enable()
    return entered - 1  # the lambda itself


class TestSkimFrameBudget:
    """Python frames ``skim_matches`` enters to open one slice, per
    element: a count, not a clock, so it is the same on every machine and
    a refactor that adds a frame per element fails here in the open (as
    ``TELEMETRY_FRAME_BUDGET`` does for telemetry).  A cold candidate
    enters ``skim``, the plan's decoder and ``from_bytes``, and nothing
    else: no memo-store helper, no constructor, no ``__post_init__``.  A
    cold element of another term enters ``skim`` alone (it is dropped on
    its unverified term number; 3 frames while every element was
    verified and decoded), and so does a memo hit."""

    COLD_CANDIDATE_FRAMES = 3
    COLD_NON_MATCH_FRAMES = 1
    HIT_FRAMES = 1

    def test_a_slice_enters_exactly_its_per_element_frames(self):
        # A keyring: each group's cipher and its decoder, built outside
        # the count as the key service builds them.
        ring = {group: (StreamCipher(GROUP_KEYS[group]), DECODE) for group in GROUPS}
        elements = []
        for serial in range(12):
            group, term = GROUPS[serial % len(GROUPS)], TERMS[serial % len(TERMS)]
            posting = PostingElement(term, f"doc-{serial}", 1 + serial, 40)
            ciphertext = ring[group][0].encrypt(_plaintext(posting))
            elements.append(EncryptedPostingElement(ciphertext, group, 0.5))
        number = PLAN.locate("pear")[1]

        def skim():
            return skim_matches(elements, "pear", number, FIELD, ring)

        candidates = 4  # every third element is a pear
        # The one frame beside the per-element ones is skim_matches itself.
        assert _frames_entered(skim) == (
            1
            + self.COLD_CANDIDATE_FRAMES * candidates
            + self.COLD_NON_MATCH_FRAMES * (len(elements) - candidates)
        )
        assert _frames_entered(skim) == 1 + self.HIT_FRAMES * len(elements)
        assert sum(cipher.memo_hits for cipher, _ in ring.values()) == len(elements)


class TestWriteFrameBudget:
    """The write side's twin of :class:`TestSkimFrameBudget`: Python frames
    per element a document build enters, and per op a follower's run
    enters, as exact counts.  Each is the difference between a call of
    ``2n`` and one of ``n`` elements (ops) divided by ``n``, so the
    per-call frames — numpy's wrappers, the key-service lookups, the
    comprehension, which differ across Python versions — cancel.

    A trained term's element enters the plan's ``locate``, the document's
    encoder, ``StreamCipher.encrypt`` and
    ``EncryptedPostingElement.checked``: no ``PostingElement``, no
    ``__post_init__``, no ``rscore`` property, no HMAC state (11 frames
    when each of those was built), no nonce draw (5 while a
    ``NonceSequence`` supplied one).  A follower's insert op enters
    ``add_sorted_by_trs`` and a delete op ``find_by_ciphertext`` and
    ``pop_at``: no per-op server call, list lookup or view patch on a
    list with no cached view.  (With one, ``note_insert`` /
    ``note_delete`` patch it per op, and the view's bisect calls its sort
    key a logarithmic number of times, so that count is not a constant.)"""

    BUILD_FRAMES_PER_ELEMENT = 4
    INSERT_FRAMES_PER_OP = 1
    DELETE_FRAMES_PER_OP = 2

    TERMS = tuple(f"t{index:02d}" for index in range(16))

    def _client(self):
        from repro.core.client import ZerberRClient
        from repro.core.cluster import ServerCluster
        from repro.core.rstf import RstfModel, train_rstf
        from repro.crypto.keys import GroupKeyService

        keys = GroupKeyService(master_secret=KEY)
        keys.register("writer", {"g"})
        plan = MergePlan(groups=tuple(zip(self.TERMS[::2], self.TERMS[1::2])), r=2.0)
        model = RstfModel(
            {term: train_rstf([0.1, 0.2, 0.4], sigma=20.0) for term in self.TERMS}
        )
        cluster = ServerCluster(keys, num_lists=plan.num_lists, num_servers=1)
        return ZerberRClient("writer", keys, cluster, model, plan), cluster.server(0)

    def _per_item(self, prepare, n):
        """Frames per item of the call ``prepare(k)`` returns for ``k``
        items; what ``prepare`` itself does is not counted."""
        twice, once = prepare(2 * n), prepare(n)
        return (_frames_entered(twice) - _frames_entered(once)) / n

    def test_build_document_enters_exactly_its_per_element_frames(self):
        from repro.text.analysis import DocumentStats

        client, _ = self._client()

        def build(n):
            counts = {term: 1 + index % 3 for index, term in enumerate(self.TERMS[:n])}
            doc = DocumentStats.from_counts("d", counts)
            return lambda: client.build_document(doc, "g")

        build(8)()  # the key service's caches are filled on the first build
        assert self._per_item(build, 8) == self.BUILD_FRAMES_PER_ELEMENT

    def test_a_follower_run_enters_exactly_its_per_op_frames(self):
        from repro.core.replication import ReplicationOp

        elements = [
            EncryptedPostingElement(sealed(b"op-%02d" % index), "g", index / 40.0)
            for index in range(16)
        ]

        def run(held, ops):
            _, server = self._client()  # a fresh replica, no view cached
            held_ops = [ReplicationOp(0, "insert", e) for e in held]
            server.apply_replicated_ops([(0, held_ops)])
            return lambda: server.apply_replicated_ops([(0, ops)])

        def inserts(n):
            ops = [ReplicationOp(i + 1, "insert", e) for i, e in enumerate(elements[:n])]
            return run([], ops)

        def deletes(n):
            ops = [ReplicationOp(i + 1, "delete", e) for i, e in enumerate(elements[:n])]
            return run(elements[:n], ops)

        assert inserts(8)() == deletes(8)() == 8
        assert self._per_item(inserts, 8) == self.INSERT_FRAMES_PER_OP
        assert self._per_item(deletes, 8) == self.DELETE_FRAMES_PER_OP


# -- the one-pass client skim == a per-element reference -------------------------

GROUPS = ("g0", "g1", "g2", "g3")
GROUP_KEYS = {group: bytes([index + 1]) * 32 for index, group in enumerate(GROUPS)}


@st.composite
def _element_pool(draw):
    """Encrypted elements of several groups, some of them damaged."""
    pool = []
    size = draw(st.integers(min_value=4, max_value=12))
    for serial in range(size):
        group = draw(st.sampled_from(GROUPS + GROUPS[:1] * 3))  # one busy group
        posting = PostingElement(
            term=draw(st.sampled_from(TERMS)),
            doc_id=f"doc-{draw(st.integers(0, 5))}",
            tf=draw(st.integers(1, 9)),
            doc_length=draw(st.integers(9, 40)),
        )
        damage = draw(st.sampled_from(["none", "none", "none", "body", "iv", "key"]))
        key = GROUP_KEYS[GROUPS[0] if damage == "key" and group != GROUPS[0] else group]
        ciphertext = StreamCipher(key).encrypt(_plaintext(posting))
        if damage == "body":
            ciphertext = ciphertext[:-1] + bytes([ciphertext[-1] ^ 1])
        elif damage == "iv":
            ciphertext = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
        trs = draw(st.floats(0.0, 1.0))
        pool.append(EncryptedPostingElement(ciphertext=ciphertext, group=group, trs=trs))
    return pool


class _ReferenceSkim:
    """The skim's memo rules spelled out for one group key: the term
    number read off header bytes 6–10 through a one-shot reference
    keystream, the raw open and ``from_bytes`` for a candidate, and a
    memo of decoded postings and dropped elements' numbers."""

    def __init__(self, key, capacity):
        self.opener = StreamCipher(key)  # raw opens only: no memo
        self.enc_key = reference_prf(key, b"derive:enc")
        self.capacity, self.memo, self.hits = capacity, {}, 0

    def skim(self, ciphertext, number):
        cached = self.memo.get(ciphertext)
        if isinstance(cached, PostingElement) or (cached is not None and cached != number):
            self.hits += 1
            return cached if isinstance(cached, PostingElement) else None
        if len(ciphertext) < IV_SIZE:
            return None
        iv, body = ciphertext[:IV_SIZE], ciphertext[IV_SIZE:]
        stream = reference_keystream(self.enc_key, iv, len(body))
        header = bytes(b ^ k for b, k in zip(body, stream))
        # Bytes 6–10 of a 14-byte header: the four before the doc number
        # (so a cut or padded body is read where the kernel reads it).
        seen = int.from_bytes(header[-8:-4], "big")
        if seen != number and seen < len(PLAN.terms):
            self._store(ciphertext, seen)
            return None
        plaintext = self.opener.try_decrypt(ciphertext)
        if plaintext is None:
            return None
        posting = PostingElement.from_bytes(plaintext, PLAN.terms, DIRECTORY.names)
        self._store(ciphertext, posting)
        return posting

    def _store(self, ciphertext, value):
        if not self.capacity:
            return
        if ciphertext not in self.memo and len(self.memo) >= self.capacity:
            for stale in list(self.memo)[: self.capacity // 2 + 1]:
                del self.memo[stale]
        self.memo[ciphertext] = value


def _reference_matches(elements, term, references):
    """Per element: the group's reference skim, then the term filter."""
    number = PLAN.locate(term)[1]
    matches = []
    for element in elements:
        reference = references.get(element.group)
        if reference is None:
            continue
        posting = reference.skim(element.ciphertext, number)
        if posting is not None and posting.term == term:
            matches.append((posting, element))
    return matches


@given(
    pool=_element_pool(),
    picks=st.lists(
        st.tuples(
            st.sampled_from(TERMS),
            st.lists(st.integers(min_value=0, max_value=11), min_size=6, max_size=24),
        ),
        min_size=2,
        max_size=6,
    ),
    readable=st.sets(st.sampled_from(GROUPS)),
    capacity=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_skim_matches_equals_per_element_reference(pool, picks, readable, capacity):
    """Identical matches in identical order, identical per-cipher memo
    tallies and memo contents — a decoded posting for a verified element,
    the term number for one dropped on sight — with groups interleaved,
    groups absent from the mapping, broken tags, duplicate ciphertexts,
    and a memo small enough to evict in the middle of a slice."""
    kernel = {g: StreamCipher(GROUP_KEYS[g], memo_capacity=capacity) for g in readable}
    reference = {g: _ReferenceSkim(GROUP_KEYS[g], capacity) for g in readable}
    ring = {g: (cipher, DECODE) for g, cipher in kernel.items()}
    for term, indices in picks:
        elements = [pool[index % len(pool)] for index in indices]
        matches = skim_matches(elements, term, PLAN.locate(term)[1], FIELD, ring)
        assert matches == _reference_matches(elements, term, reference)
        for group in readable:
            assert kernel[group].memo_hits == reference[group].hits
            assert len(kernel[group]._memo) <= capacity
            assert list(kernel[group]._memo.items()) == list(reference[group].memo.items())


@pytest.mark.parametrize("capacity", [0, 1, 2, 3, 64])
@pytest.mark.parametrize("order", [TERMS, TERMS[::-1]])
def test_the_kernel_is_the_reference_on_every_kind_of_element(capacity, order):
    """One group's pool of postings of every skimmed term, repeated,
    beside a foreign, a tampered, a cut, a padded and a too-short
    ciphertext, skimmed term after term: same postings, same hits, same
    memo, entry for entry, at every capacity."""
    kernel = StreamCipher(GROUP_KEYS["g0"], memo_capacity=capacity)
    reference = _ReferenceSkim(GROUP_KEYS["g0"], capacity)
    good = [
        kernel.encrypt(_plaintext(PostingElement(term, f"doc-{serial}", 1 + serial, 40)))
        for serial in range(2)
        for term in TERMS
    ]
    foreign = StreamCipher(GROUP_KEYS["g1"]).encrypt(_plaintext(PostingElement("pear", "d", 1, 2)))
    tampered = good[1][:-1] + bytes([good[1][-1] ^ 1])
    pool = [*good, foreign, tampered, good[2][:-1], good[2] + b"\0", b"short", *good[::-1]]
    for term in order * 2:
        number = PLAN.locate(term)[1]
        assert [kernel.skim(ct, number, FIELD, DECODE) for ct in pool] == [
            reference.skim(ct, number) for ct in pool
        ]
        assert kernel.memo_hits == reference.hits
        assert list(kernel._memo.items()) == list(reference.memo.items())
