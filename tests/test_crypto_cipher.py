"""Unit tests for the authenticated stream cipher."""

import hashlib
import hmac

import pytest

from repro.crypto.cipher import NONCE_SIZE, NonceSequence, StreamCipher, TAG_SIZE
from repro.errors import AuthenticationError

KEY = b"k" * 32
NONCE = b"n" * NONCE_SIZE


class TestStreamCipher:
    def test_roundtrip(self):
        cipher = StreamCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(b"hello", NONCE)) == b"hello"

    def test_empty_plaintext(self):
        cipher = StreamCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(b"", NONCE)) == b""

    def test_ciphertext_layout(self):
        ciphertext = StreamCipher(KEY).encrypt(b"abc", NONCE)
        assert len(ciphertext) == NONCE_SIZE + 3 + TAG_SIZE
        assert ciphertext[:NONCE_SIZE] == NONCE

    def test_wrong_key_fails_auth(self):
        ciphertext = StreamCipher(KEY).encrypt(b"secret", NONCE)
        with pytest.raises(AuthenticationError):
            StreamCipher(b"x" * 32).decrypt(ciphertext)

    def test_tampered_body_fails_auth(self):
        ciphertext = bytearray(StreamCipher(KEY).encrypt(b"secret", NONCE))
        ciphertext[NONCE_SIZE] ^= 0x01
        with pytest.raises(AuthenticationError):
            StreamCipher(KEY).decrypt(bytes(ciphertext))

    def test_tampered_tag_fails_auth(self):
        ciphertext = bytearray(StreamCipher(KEY).encrypt(b"secret", NONCE))
        ciphertext[-1] ^= 0x01
        with pytest.raises(AuthenticationError):
            StreamCipher(KEY).decrypt(bytes(ciphertext))

    def test_truncated_ciphertext_fails(self):
        with pytest.raises(AuthenticationError):
            StreamCipher(KEY).decrypt(b"short")

    def test_try_decrypt_returns_none_on_failure(self):
        ciphertext = StreamCipher(KEY).encrypt(b"m", NONCE)
        assert StreamCipher(b"y" * 32).try_decrypt(ciphertext) is None

    def test_try_decrypt_success(self):
        cipher = StreamCipher(KEY)
        assert cipher.try_decrypt(cipher.encrypt(b"m", NONCE)) == b"m"

    def test_wrong_nonce_size_rejected(self):
        with pytest.raises(ValueError):
            StreamCipher(KEY).encrypt(b"m", b"tiny")

    def test_nonce_changes_ciphertext(self):
        cipher = StreamCipher(KEY)
        a = cipher.encrypt(b"m", b"a" * NONCE_SIZE)
        b = cipher.encrypt(b"m", b"b" * NONCE_SIZE)
        assert a != b

    def test_ciphertext_looks_random(self):
        # §6.6: "query response is represented by a random bit string and
        # standard HTML compression is ineffective" — check incompressibility.
        import zlib

        plaintext = b"A" * 2048  # highly compressible input
        ciphertext = StreamCipher(KEY).encrypt(plaintext, NONCE)
        body = ciphertext[NONCE_SIZE:-TAG_SIZE]
        assert len(zlib.compress(body, 9)) > 0.95 * len(body)


def reference_nonce(master_key: bytes, label: str, counter: int, plaintext: bytes) -> bytes:
    """One-shot keyed BLAKE2b-96 over ``counter || plaintext`` under the
    label's subkey, derived with a one-shot HMAC: no precomputed state."""
    subkey = hmac.new(master_key, b"derive:" + label.encode(), hashlib.sha256).digest()
    message = counter.to_bytes(8, "big") + plaintext
    return hashlib.blake2b(message, key=subkey, digest_size=NONCE_SIZE).digest()


class TestNonceSequence:
    def test_unique(self):
        seq = NonceSequence(KEY)
        nonces = {seq.next(b"same plaintext") for _ in range(500)}
        assert len(nonces) == 500

    def test_size(self):
        assert len(NonceSequence(KEY).next(b"")) == NONCE_SIZE

    def test_label_separation(self):
        a = NonceSequence(KEY, label="alice")
        b = NonceSequence(KEY, label="bob")
        assert a.next(b"p") != b.next(b"p")

    def test_deterministic_per_label(self):
        a = NonceSequence(KEY, label="x")
        b = NonceSequence(KEY, label="x")
        assert a.next(b"p") == b.next(b"p")

    def test_known_answers(self):
        seq = NonceSequence(KEY, label="nonce:alice")
        for counter, plaintext in enumerate([b"", b"p", b"p", bytes(range(200))]):
            assert seq.next(plaintext) == reference_nonce(
                KEY, "nonce:alice", counter, plaintext
            )

    def test_a_restarted_sequence_repeats_only_equal_plaintexts(self):
        """Two sequences over one key at the same counts — a dump
        reloaded under the deployment secret — draw the same nonce only
        for the same plaintext, which then encrypts to the same bytes."""
        before, after = NonceSequence(KEY), NonceSequence(KEY)
        assert before.next(b"stored element") != after.next(b"new element")
        nonce = before.next(b"same element")
        assert after.next(b"same element") == nonce
