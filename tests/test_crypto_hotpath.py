"""Hot-path crypto: the optimized implementations are byte-identical to
straight-line references, known answers stay pinned across refactors, and
the batch/memo layers change performance only — never bytes."""

import dataclasses
import hashlib
import hmac
import operator
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import NONCE_SIZE, TAG_SIZE, StreamCipher
from repro.core.client import skim_matches
from repro.crypto.keys import DocumentDirectory
from repro.crypto.prf import Prf, derive_key
from repro.errors import AuthenticationError, ProtocolError
from repro.index.merge import MergePlan
from repro.index.postings import EncryptedPostingElement, PostingElement

KEY = b"0123456789abcdef0123456789abcdef"
NONCE = bytes(range(NONCE_SIZE))
TERMS = ("apple", "pear", "plum")
# "t" is term 0; the skim's terms follow.
PLAN = MergePlan(groups=(("t",), TERMS), r=2.0)
# One group directory holding every doc id the tests below write.
DIRECTORY = DocumentDirectory(["d", "d0", "d1", "doc", *(f"doc-{i}" for i in range(12))])
DECODE = PLAN.decoder(DIRECTORY)  # one object: the memo goes by identity


def _plaintext(posting):
    """*posting*'s encryption plaintext under PLAN and DIRECTORY."""
    return posting.to_bytes(PLAN.locate(posting.term)[1], DIRECTORY.number(posting.doc_id))

key_strategy = st.binary(min_size=16, max_size=64)
nonce_strategy = st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE)


# -- straight-line references (what the optimized code must match) ------------


def reference_prf(key: bytes, message: bytes) -> bytes:
    """One hmac.new per call: the definitionally-correct PRF."""
    return hmac.new(key, message, hashlib.sha256).digest()


def reference_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """One-shot keyed BLAKE2b-512 blocks, no precomputed state: block 0
    over the nonce, block ``i >= 1`` over ``nonce || i``, cut to length."""
    blocks = []
    counter = 0
    while 64 * counter < length:
        message = nonce + counter.to_bytes(8, "big") if counter else nonce
        blocks.append(hashlib.blake2b(message, key=key).digest())
        counter += 1
    return b"".join(blocks)[:length]


def reference_encrypt(master_key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The cipher construction, spelled out byte by byte: a one-shot
    keyed-BLAKE2b keystream and a one-shot keyed BLAKE2b-128 tag over
    ``nonce || body``, no precomputed state."""
    enc_key = reference_prf(master_key, b"derive:enc")
    mac_key = reference_prf(master_key, b"derive:mac:v6")
    stream = reference_keystream(enc_key, nonce, len(plaintext))
    body = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hashlib.blake2b(nonce + body, key=mac_key, digest_size=TAG_SIZE).digest()
    return nonce + body + tag


def hmac_tagged(master_key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The same ciphertext tagged the way format v4 did: HMAC-SHA256 under
    the same MAC subkey, truncated to the same 16 bytes."""
    mac_key = reference_prf(master_key, b"derive:mac:v6")
    head = reference_encrypt(master_key, plaintext, nonce)[:-TAG_SIZE]
    return head + reference_prf(mac_key, head)[:TAG_SIZE]


def v5_sealed(master_key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """A ciphertext as format v5 sealed it: a 16-byte nonce, a
    ``SHAKE-256(enc_subkey || nonce)`` keystream and keyed BLAKE2b-128
    over ``nonce || body`` under the ``"mac"`` subkey."""
    enc_key = reference_prf(master_key, b"derive:enc")
    mac_key = reference_prf(master_key, b"derive:mac")
    stream = hashlib.shake_256(enc_key + nonce).digest(len(plaintext))
    head = nonce + bytes(p ^ s for p, s in zip(plaintext, stream))
    return head + hashlib.blake2b(head, key=mac_key, digest_size=TAG_SIZE).digest()


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
        assert StreamCipher(KEY).encrypt(b"attack at dawn", NONCE).hex() == (
            "000102030405060708090a0b"  # nonce
            "af620120a3c5fea29974f20d0e31"  # body
            "0db6a6044b68e4fa28eb1186374e991b"  # tag
        )


# -- optimized == reference, for all inputs -----------------------------------


@given(key=key_strategy, message=st.binary(max_size=256))
@settings(max_examples=150, deadline=None)
def test_prf_matches_hmac(key, message):
    assert Prf(key).evaluate(message) == reference_prf(key, message)


@given(key=key_strategy, nonce=nonce_strategy, plaintext=st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_encrypt_matches_reference(key, nonce, plaintext):
    assert StreamCipher(key).encrypt(plaintext, nonce) == reference_encrypt(
        key, plaintext, nonce
    )


@given(key=key_strategy, nonce=nonce_strategy, plaintext=st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_roundtrip_through_reference_ciphertext(key, nonce, plaintext):
    """A reference-built ciphertext opens on both optimized paths, the
    inline one-block keystream and the multi-block one alike."""
    ciphertext = reference_encrypt(key, plaintext, nonce)
    cipher = StreamCipher(key)
    assert cipher.decrypt(ciphertext) == cipher.try_decrypt(ciphertext) == plaintext


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 127, 128, 129, 300])
def test_the_block_edges_match_the_reference(size):
    """64 bytes is the last one-digest body, 65 the first to need block 1."""
    plaintext = bytes(index % 256 for index in range(size))
    cipher = StreamCipher(KEY)
    ciphertext = cipher.encrypt(plaintext, NONCE)
    assert ciphertext == reference_encrypt(KEY, plaintext, NONCE)
    assert cipher.decrypt(ciphertext) == cipher.try_decrypt(ciphertext) == plaintext


@given(key=key_strategy, nonce=nonce_strategy, plaintext=st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_an_hmac_tagged_ciphertext_is_refused(key, nonce, plaintext):
    """The v4 tag is not a second accepted construction: same nonce, same
    body, same subkey, but the kernel skips it, the raising path refuses
    it, and nothing is memoised."""
    ciphertext = hmac_tagged(key, plaintext, nonce)
    cipher = StreamCipher(key)
    assert cipher.try_decrypt(ciphertext) is None
    assert cipher.try_decrypt(ciphertext, _decode) is None
    with pytest.raises(AuthenticationError):
        cipher.decrypt(ciphertext)
    assert cipher._memo == {} and cipher.memo_hits == 0


@given(
    key=key_strategy,
    nonce=st.binary(min_size=16, max_size=16),
    plaintext=st.binary(max_size=300),
)
@settings(max_examples=100, deadline=None)
def test_a_v5_sealed_ciphertext_is_refused(key, nonce, plaintext):
    """A v5 seal is not misread as a v6 one with a longer body: its tag
    was keyed under the old MAC subkey, so the kernel skips it, the
    raising path refuses it, and nothing is memoised."""
    ciphertext = v5_sealed(key, plaintext, nonce)
    cipher = StreamCipher(key)
    assert cipher.try_decrypt(ciphertext) is None
    assert cipher.try_decrypt(ciphertext, _decode) is None
    with pytest.raises(AuthenticationError):
        cipher.decrypt(ciphertext)
    assert cipher._memo == {} and cipher.memo_hits == 0


# -- batch skim semantics -----------------------------------------------------


class TestTryDecryptMany:
    def _batch(self):
        cipher = StreamCipher(KEY)
        good = [
            cipher.encrypt(b"element-%d" % i, bytes([i]) * NONCE_SIZE)
            for i in range(8)
        ]
        other = StreamCipher(b"x" * 32).encrypt(b"foreign", NONCE)
        tampered = bytearray(good[0])
        tampered[NONCE_SIZE] ^= 1
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

    def test_decrypt_raises_where_the_skim_returns_none(self):
        cipher, batch = self._batch()
        for ciphertext, skimmed in zip(batch, cipher.try_decrypt_many(batch)):
            if skimmed is None:
                with pytest.raises(AuthenticationError):
                    cipher.decrypt(ciphertext)
            else:
                assert cipher.decrypt(ciphertext) == skimmed

    def test_decrypt_all_good(self):
        cipher = StreamCipher(KEY)
        batch = [cipher.encrypt(b"m%d" % i, bytes([i]) * NONCE_SIZE) for i in range(5)]
        assert [cipher.decrypt(ct) for ct in batch] == [b"m%d" % i for i in range(5)]

    def test_empty_plaintexts(self):
        cipher = StreamCipher(KEY)
        batch = [cipher.encrypt(b"", NONCE)] * 3
        assert cipher.try_decrypt_many(batch) == [b"", b"", b""]


class TestDecryptMemo:
    def test_repeated_skim_identical(self):
        cipher = StreamCipher(KEY)
        batch = [cipher.encrypt(b"hot-%d" % i, bytes([i]) * NONCE_SIZE) for i in range(4)]
        first = cipher.try_decrypt_many(batch)
        second = cipher.try_decrypt_many(batch)  # served from the memo
        assert first == second == [b"hot-%d" % i for i in range(4)]

    def test_memo_is_bounded(self):
        cipher = StreamCipher(KEY, memo_capacity=16)
        batch = [cipher.encrypt(b"e%d" % i, bytes([i % 251, i // 251]) * (NONCE_SIZE // 2)) for i in range(100)]
        cipher.try_decrypt_many(batch)
        assert len(cipher._memo) <= 16

    def test_tamper_after_memoisation_still_fails(self):
        cipher = StreamCipher(KEY)
        ciphertext = cipher.encrypt(b"secret", NONCE)
        assert cipher.try_decrypt(ciphertext) == b"secret"
        tampered = bytearray(ciphertext)
        tampered[-1] ^= 1
        assert cipher.try_decrypt(bytes(tampered)) is None

    def test_memo_disabled(self):
        cipher = StreamCipher(KEY, memo_capacity=0)
        ciphertext = cipher.encrypt(b"m", NONCE)
        assert cipher.try_decrypt(ciphertext) == b"m"
        assert cipher.try_decrypt_many([ciphertext]) == [b"m"]
        assert cipher._memo == {}

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            StreamCipher(KEY, memo_capacity=-1)


def _decode(plaintext: bytes) -> tuple[str, bytes]:
    return ("decoded", plaintext)


def _decode_other(plaintext: bytes) -> tuple[str, bytes]:
    return ("other", plaintext)


class TestDecodedMemo:
    """The memo holds ``decode(verified plaintext)``: a hit skips MAC,
    keystream and decode, and is only ever what a miss would have been."""

    def _batch(self, cipher, count=4):
        return [cipher.encrypt(b"hot-%d" % i, bytes([i]) * NONCE_SIZE) for i in range(count)]

    def test_hit_skips_the_decoder(self):
        cipher = StreamCipher(KEY)
        batch = self._batch(cipher)
        calls = []

        def decode(plaintext):
            calls.append(plaintext)
            return ("decoded", plaintext)

        first = cipher.try_decrypt_many(batch, decode)
        assert first == [("decoded", b"hot-%d" % i) for i in range(4)]
        assert cipher.try_decrypt_many(batch, decode) == first
        assert len(calls) == 4 and cipher.memo_hits == 4

    def test_tampered_ciphertext_never_served_from_memo(self):
        cipher = StreamCipher(KEY)
        (ciphertext,) = self._batch(cipher, 1)
        assert cipher.try_decrypt_many([ciphertext], _decode) == [("decoded", b"hot-0")]
        for position in range(len(ciphertext)):
            tampered = bytearray(ciphertext)
            tampered[position] ^= 0x80
            assert cipher.try_decrypt_many([bytes(tampered)], _decode) == [None]
        assert cipher.try_decrypt_many([ciphertext[:-1], ciphertext + b"\0"], _decode) == [
            None,
            None,
        ]
        assert cipher.memo_hits == 0 and list(cipher._memo) == [ciphertext]

    def test_decoded_entry_never_returned_raw(self):
        cipher = StreamCipher(KEY)
        batch = self._batch(cipher)
        decoded = cipher.try_decrypt_many(batch, _decode)
        raw = [b"hot-%d" % i for i in range(4)]
        assert cipher.try_decrypt_many(batch) == raw
        assert [cipher.try_decrypt(ct) for ct in batch] == raw
        assert [cipher.decrypt(ct) for ct in batch] == raw
        assert cipher.memo_hits == 0  # raw callers went around the memo ...
        assert cipher.try_decrypt_many(batch, _decode) == decoded
        assert cipher.memo_hits == 4  # ... and left the decoder's entries alone

    def test_raw_entry_never_returned_decoded(self):
        cipher = StreamCipher(KEY)
        batch = self._batch(cipher)
        assert cipher.try_decrypt_many(batch) == cipher.try_decrypt_many(batch)
        assert cipher.memo_hits == 4
        assert cipher.try_decrypt_many(batch, _decode) == [
            ("decoded", b"hot-%d" % i) for i in range(4)
        ]
        assert cipher.memo_hits == 4  # nothing raw was served to the decoder

    def test_one_decoder_never_sees_anothers_entries(self):
        cipher = StreamCipher(KEY)
        batch = self._batch(cipher)
        cipher.try_decrypt_many(batch, _decode)
        assert cipher.try_decrypt_many(batch, _decode_other) == [
            ("other", b"hot-%d" % i) for i in range(4)
        ]
        assert cipher.try_decrypt_many(batch, _decode) == [
            ("decoded", b"hot-%d" % i) for i in range(4)
        ]
        assert cipher.memo_hits == 0 and len(cipher._memo) == 4

    def test_capacity_zero_decodes_and_stores_nothing(self):
        cipher = StreamCipher(KEY, memo_capacity=0)
        batch = self._batch(cipher)
        for _ in range(2):
            assert cipher.try_decrypt_many(batch, _decode) == [
                ("decoded", b"hot-%d" % i) for i in range(4)
            ]
        assert cipher._memo == {} and cipher.memo_hits == 0

    def test_failed_decode_is_never_memoised(self):
        cipher = StreamCipher(KEY)
        good = cipher.encrypt(_plaintext(PostingElement("t", "d", 1, 2)), NONCE)
        bad = cipher.encrypt(b'{"t":"t"}', bytes(NONCE_SIZE))  # authentic, malformed
        decode = DECODE
        for _ in range(2):
            with pytest.raises(ProtocolError):
                cipher.try_decrypt_many([good, bad, good], decode)
        assert list(cipher._memo) == [good]

    def test_decoder_that_raises_keeps_the_hits_served_before_it(self):
        """The bug: a batch-local tally added after the loop lost every
        hit served before the element whose decode raised."""
        cipher = StreamCipher(KEY)
        first, second = (
            cipher.encrypt(_plaintext(PostingElement("t", f"d{i}", 1, 2)), bytes([i]) * NONCE_SIZE)
            for i in range(2)
        )
        bad = cipher.encrypt(b'{"t":"t"}', NONCE)  # authentic, malformed
        decode = DECODE
        cipher.try_decrypt_many([first, second], decode)
        assert cipher.memo_hits == 0
        with pytest.raises(ProtocolError):
            cipher.try_decrypt_many([first, second, bad], decode)
        assert cipher.memo_hits == 2
        assert list(cipher._memo) == [first, second]


class TestOneElementKernel:
    """``try_decrypt`` is the kernel; the batch is a comprehension over it."""

    def _pool(self, cipher):
        good = [cipher.encrypt(b"el-%d" % i, bytes([i]) * NONCE_SIZE) for i in range(5)]
        foreign = StreamCipher(b"x" * 32).encrypt(b"foreign", NONCE)
        broken = good[1][:-1] + bytes([good[1][-1] ^ 1])
        return [good[0], foreign, good[1], broken, good[0], b"short", *good[2:], good[1]]

    @pytest.mark.parametrize("decode", [None, _decode])
    @pytest.mark.parametrize("capacity", [0, 1, 2, 3, 64])
    def test_batch_is_the_kernel_per_element(self, decode, capacity):
        batch_cipher = StreamCipher(KEY, memo_capacity=capacity)
        kernel_cipher = StreamCipher(KEY, memo_capacity=capacity)
        pool = self._pool(batch_cipher)
        for _ in range(2):
            assert batch_cipher.try_decrypt_many(pool, decode) == [
                kernel_cipher.try_decrypt(ct, decode) for ct in pool
            ]
            assert batch_cipher.memo_hits == kernel_cipher.memo_hits
            assert list(batch_cipher._memo.items()) == list(kernel_cipher._memo.items())

    def test_kernel_agrees_with_the_raising_reference(self):
        cipher = StreamCipher(KEY, memo_capacity=0)
        for ciphertext in self._pool(cipher):
            try:
                expected = cipher.decrypt(ciphertext)
            except AuthenticationError:
                expected = None
            assert cipher.try_decrypt(ciphertext) == expected

    def test_raw_caller_neither_reads_nor_evicts_a_decoders_memo(self):
        cipher = StreamCipher(KEY, memo_capacity=2)
        one, two, three = (cipher.encrypt(b"m%d" % i, bytes([i]) * NONCE_SIZE) for i in range(3))
        assert cipher.try_decrypt(one, _decode) == ("decoded", b"m0")
        assert cipher.try_decrypt(two, _decode) == ("decoded", b"m1")
        before = list(cipher._memo.items())
        # Raw opens of a memoised and of an unseen ciphertext: bytes come
        # back, nothing is served from, stored in or evicted from the memo.
        assert [cipher.try_decrypt(ct) for ct in (one, three, one)] == [b"m0", b"m2", b"m0"]
        assert cipher.memo_hits == 0 and list(cipher._memo.items()) == before
        assert cipher.try_decrypt(one, _decode) == ("decoded", b"m0") and cipher.memo_hits == 1

    def test_decoder_never_sees_unauthenticated_bytes(self):
        cipher = StreamCipher(KEY)
        seen = []

        def decode(plaintext):
            seen.append(plaintext)
            return plaintext

        for ciphertext in self._pool(cipher):
            cipher.try_decrypt(ciphertext, decode)
        assert sorted(seen) == [b"el-%d" % i for i in range(5)]  # once each
        assert len(cipher._memo) == 5


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
    return PLAN.decoder(directory)(element.to_bytes(PLAN.locate(element.term)[1], 0))


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
        cipher = StreamCipher(KEY)
        good = cipher.encrypt(_plaintext(self.GOOD), NONCE)
        bad = cipher.encrypt(plaintext, bytes(NONCE_SIZE))
        decode = DECODE
        assert cipher.try_decrypt(good, decode) == self.GOOD
        for _ in range(2):
            with pytest.raises(ProtocolError):
                cipher.try_decrypt(bad, decode)
        assert list(cipher._memo) == [good] and cipher.memo_hits == 0


# -- the skim kernel's exact frame budget -----------------------------------------


def _frames_entered(call):
    """Python frames entered while *call* runs (``call`` events only)."""
    entered = 0

    def profile(frame, event, arg):
        nonlocal entered
        if event == "call":
            entered += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered - 1  # the lambda itself


class TestSkimFrameBudget:
    """Python frames ``skim_matches`` enters to open one slice, per
    element: a count, not a clock, so it is the same on every machine and
    a refactor that adds a frame per element fails here in the open (as
    ``TELEMETRY_FRAME_BUDGET`` does for telemetry).  A cold element enters
    ``try_decrypt``, the plan's decoder and ``from_bytes``, and nothing
    else: no memo-store helper, no constructor, no ``__post_init__``.  A
    memo hit enters ``try_decrypt`` alone."""

    COLD_FRAMES_PER_ELEMENT = 3
    HIT_FRAMES_PER_ELEMENT = 1

    def test_a_slice_enters_exactly_its_per_element_frames(self):
        # A keyring: each group's cipher and its decoder, built outside
        # the count as the key service builds them.
        ring = {group: (StreamCipher(GROUP_KEYS[group]), DECODE) for group in GROUPS}
        elements = []
        for serial in range(12):
            group, term = GROUPS[serial % len(GROUPS)], TERMS[serial % len(TERMS)]
            posting = PostingElement(term, f"doc-{serial}", 1 + serial, 40)
            nonce = serial.to_bytes(NONCE_SIZE, "big")
            ciphertext = ring[group][0].encrypt(_plaintext(posting), nonce)
            elements.append(EncryptedPostingElement(ciphertext, group, 0.5))

        def skim():
            return skim_matches(elements, "pear", ring)

        # The one frame beside the per-element ones is skim_matches itself.
        assert _frames_entered(skim) == 1 + self.COLD_FRAMES_PER_ELEMENT * len(elements)
        assert _frames_entered(skim) == 1 + self.HIT_FRAMES_PER_ELEMENT * len(elements)
        assert sum(cipher.memo_hits for cipher, _ in ring.values()) == len(elements)


class TestWriteFrameBudget:
    """The write side's twin of :class:`TestSkimFrameBudget`: Python frames
    per element a document build enters, and per op a follower's run
    enters, as exact counts.  Each is the difference between a call of
    ``2n`` and one of ``n`` elements (ops) divided by ``n``, so the
    per-call frames — numpy's wrappers, the key-service lookups, the
    comprehension, which differ across Python versions — cancel.

    A trained term's element enters the plan's ``locate``, the document's
    encoder, ``StreamCipher.encrypt``, ``NonceSequence.next`` and
    ``EncryptedPostingElement.checked``: no ``PostingElement``, no
    ``__post_init__``, no ``rscore`` property, no HMAC state (11 frames
    when each of those was built).  A follower's insert op enters
    ``add_sorted_by_trs`` and a delete op ``find_by_ciphertext`` and
    ``pop_at``: no per-op server call, list lookup or view patch on a
    list with no cached view.  (With one, ``note_insert`` /
    ``note_delete`` patch it per op, and the view's bisect calls its sort
    key a logarithmic number of times, so that count is not a constant.)"""

    BUILD_FRAMES_PER_ELEMENT = 5
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
            EncryptedPostingElement(b"op-%02d" % index, "g", index / 40.0)
            for index in range(16)
        ]

        def run(held, ops):
            _, server = self._client()  # a fresh replica, no view cached
            server.restore_list(0, held, 0)
            return lambda: server.apply_replicated_ops(0, ops)

        def inserts(n):
            ops = [ReplicationOp(i + 1, "insert", e) for i, e in enumerate(elements[:n])]
            return run([], ops)

        def deletes(n):
            ops = [
                ReplicationOp(i + 1, "delete", None, e.ciphertext, e.trs)
                for i, e in enumerate(elements[:n])
            ]
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
        damage = draw(st.sampled_from(["none", "none", "none", "tag", "short", "key"]))
        key = GROUP_KEYS[GROUPS[0] if damage == "key" and group != GROUPS[0] else group]
        ciphertext = StreamCipher(key).encrypt(
            _plaintext(posting),
            serial.to_bytes(NONCE_SIZE, "big"),
        )
        if damage == "tag":
            ciphertext = ciphertext[:-1] + bytes([ciphertext[-1] ^ 1])
        elif damage == "short":
            ciphertext = ciphertext[: draw(st.integers(0, NONCE_SIZE + TAG_SIZE - 1))]
        trs = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
        pool.append(EncryptedPostingElement(ciphertext=ciphertext, group=group, trs=trs))
    return pool


def _reference_matches(elements, term, ciphers):
    """What the skim replaced: per element, try_decrypt + from_bytes + filter."""
    matches = []
    for element in elements:
        cipher = ciphers.get(element.group)
        if cipher is None:
            continue
        plaintext = cipher.try_decrypt(element.ciphertext)
        if plaintext is None:
            continue
        posting = PostingElement.from_bytes(plaintext, PLAN.terms, DIRECTORY.names)
        if posting.term == term:
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
    tallies and memo contents — with groups interleaved, groups absent
    from the mapping, broken tags, truncated and duplicate ciphertexts,
    and a memo small enough to evict in the middle of a slice."""
    kernel = {g: StreamCipher(GROUP_KEYS[g], memo_capacity=capacity) for g in readable}
    reference = {g: StreamCipher(GROUP_KEYS[g], memo_capacity=capacity) for g in readable}
    for term, indices in picks:
        elements = [pool[index % len(pool)] for index in indices]
        matches = skim_matches(
            elements, term, {g: (cipher, DECODE) for g, cipher in kernel.items()}
        )
        assert matches == _reference_matches(elements, term, reference)
        for group in readable:
            assert kernel[group].memo_hits == reference[group].memo_hits
            assert len(kernel[group]._memo) <= capacity
            # The reference memoises raw plaintexts, the skim decoded
            # postings: same ciphertexts, same (insertion = eviction) order.
            assert list(kernel[group]._memo) == list(reference[group]._memo)
            assert list(kernel[group]._memo.values()) == [
                PostingElement.from_bytes(plaintext, PLAN.terms, DIRECTORY.names)
                for plaintext in reference[group]._memo.values()
            ]
