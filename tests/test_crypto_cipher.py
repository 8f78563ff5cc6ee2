"""Unit tests for the deterministic authenticated stream cipher (SIV)."""

import pytest

from repro.crypto.cipher import IV_SIZE, StreamCipher
from repro.index.postings import HEADER_SIZE

KEY = b"k" * 32
#: A posting element's plaintext: a fixed-size header.
POSTING = bytes(range(HEADER_SIZE))


class TestStreamCipher:
    def test_roundtrip(self):
        cipher = StreamCipher(KEY)
        assert cipher.try_decrypt(cipher.encrypt(b"hello")) == b"hello"

    def test_empty_plaintext(self):
        cipher = StreamCipher(KEY)
        assert cipher.try_decrypt(cipher.encrypt(b"")) == b""

    def test_ciphertext_layout(self):
        assert len(StreamCipher(KEY).encrypt(b"abc")) == IV_SIZE + 3

    def test_wrong_key_fails_auth(self):
        ciphertext = StreamCipher(KEY).encrypt(b"secret")
        assert StreamCipher(b"x" * 32).try_decrypt(ciphertext) is None

    def test_tampered_body_fails_auth(self):
        ciphertext = bytearray(StreamCipher(KEY).encrypt(b"secret"))
        ciphertext[IV_SIZE] ^= 0x01
        assert StreamCipher(KEY).try_decrypt(bytes(ciphertext)) is None

    def test_tampered_iv_fails_auth(self):
        ciphertext = bytearray(StreamCipher(KEY).encrypt(b"secret"))
        ciphertext[0] ^= 0x01
        assert StreamCipher(KEY).try_decrypt(bytes(ciphertext)) is None

    def test_truncated_ciphertext_fails(self):
        assert StreamCipher(KEY).try_decrypt(b"short") is None

    @pytest.mark.parametrize("position", range(IV_SIZE + HEADER_SIZE))
    def test_every_byte_of_a_sealed_posting_is_authenticated(self, position):
        """IV and body alike: no byte of a posting can change unseen."""
        cipher = StreamCipher(KEY)
        ciphertext = bytearray(cipher.encrypt(POSTING))
        ciphertext[position] ^= 0x80
        assert cipher.try_decrypt(bytes(ciphertext)) is None

    @pytest.mark.parametrize(
        "length", [0, 1, IV_SIZE - 1, IV_SIZE, IV_SIZE + HEADER_SIZE - 1]
    )
    def test_a_cut_posting_is_refused(self, length):
        """A prefix is refused, the bare IV (an empty body) included."""
        cipher = StreamCipher(KEY)
        cut = cipher.encrypt(POSTING)[:length]
        assert cipher.try_decrypt(cut) is None

    def test_an_extended_posting_is_refused(self):
        cipher = StreamCipher(KEY)
        assert cipher.try_decrypt(cipher.encrypt(POSTING) + b"\x00") is None

    def test_one_postings_iv_on_anothers_body_is_refused(self):
        """The IV binds its own body: a splice of two sealed postings of
        one key and one length opens as neither."""
        cipher = StreamCipher(KEY)
        first = cipher.encrypt(POSTING)
        second = cipher.encrypt(POSTING[::-1])
        assert cipher.try_decrypt(first[:IV_SIZE] + second[IV_SIZE:]) is None
        assert cipher.try_decrypt(second[:IV_SIZE] + first[IV_SIZE:]) is None

    def test_the_memo_does_not_change_the_bytes(self):
        """A cipher with its memo off seals and opens the same bytes."""
        cipher, bare = StreamCipher(KEY), StreamCipher(KEY, memo_capacity=0)
        ciphertext = cipher.encrypt(POSTING)
        assert bare.encrypt(POSTING) == ciphertext
        assert bare.try_decrypt(ciphertext) == cipher.try_decrypt(ciphertext) == POSTING

    def test_try_decrypt_returns_none_on_failure(self):
        ciphertext = StreamCipher(KEY).encrypt(b"m")
        assert StreamCipher(b"y" * 32).try_decrypt(ciphertext) is None

    def test_try_decrypt_success(self):
        cipher = StreamCipher(KEY)
        assert cipher.try_decrypt(cipher.encrypt(b"m")) == b"m"

    def test_equal_plaintexts_seal_equal_and_nothing_else_does(self):
        """Sealing is deterministic per key: the one thing it shows."""
        cipher = StreamCipher(KEY)
        assert cipher.encrypt(b"m") == StreamCipher(KEY).encrypt(b"m")
        assert cipher.encrypt(b"m") != cipher.encrypt(b"n")
        assert cipher.encrypt(b"m") != StreamCipher(b"x" * 32).encrypt(b"m")

    def test_ciphertext_looks_random(self):
        # §6.6: "query response is represented by a random bit string and
        # standard HTML compression is ineffective" — check incompressibility.
        import zlib

        plaintext = b"A" * 2048  # highly compressible input
        ciphertext = StreamCipher(KEY).encrypt(plaintext)
        body = ciphertext[IV_SIZE:]
        assert len(zlib.compress(body, 9)) > 0.95 * len(body)
