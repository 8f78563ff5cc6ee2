"""Property-based tests for the crypto substrate: roundtrip for all inputs,
authentication rejects every single-bit tamper."""

from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import StreamCipher
from repro.crypto.prf import Prf, derive_key
from repro.errors import ProtocolError
from repro.index.postings import PostingElement
from tests.conftest import posting_bytes

key_strategy = st.binary(min_size=16, max_size=64)
plaintext_strategy = st.binary(min_size=0, max_size=512)


@given(key=key_strategy, plaintext=plaintext_strategy)
@settings(max_examples=150, deadline=None)
def test_roundtrip(key, plaintext):
    cipher = StreamCipher(key)
    assert cipher.try_decrypt(cipher.encrypt(plaintext)) == plaintext


@given(
    key=key_strategy,
    plaintext=st.binary(min_size=1, max_size=128),
    flip=st.integers(min_value=0),
)
@settings(max_examples=150, deadline=None)
def test_any_bitflip_detected(key, plaintext, flip):
    cipher = StreamCipher(key)
    ciphertext = bytearray(cipher.encrypt(plaintext))
    position = flip % (len(ciphertext) * 8)
    ciphertext[position // 8] ^= 1 << (position % 8)
    assert cipher.try_decrypt(bytes(ciphertext)) is None, "tampered ciphertext accepted"


@given(key=key_strategy, label_a=st.text(max_size=16), label_b=st.text(max_size=16))
@settings(max_examples=100, deadline=None)
def test_derive_key_injective_in_label(key, label_a, label_b):
    if label_a != label_b:
        assert derive_key(key, label_a) != derive_key(key, label_b)
    else:
        assert derive_key(key, label_a) == derive_key(key, label_b)


@given(key=key_strategy, message=st.binary(max_size=64))
@settings(max_examples=100, deadline=None)
def test_prf_unit_in_range(key, message):
    value = Prf(key).evaluate_unit(message)
    assert 0.0 <= value < 1.0


# The element layout as a translation: every valid element has an
# encoding that decodes to it, and every byte string decodes to at most one
# element — the one whose encoding it is.

# A plan's terms: whatever UTF-8 can encode (``st.text()`` leaves lone
# surrogates out), of any length — the layout carries a number, not the term.
TERMS = ("", "x" * 300, "é" * 127, "\U0001f600" * 63, '"\\\x00\x1f\x7f', "apple")
# A group's directory: doc ids of any length — the layout carries a number
# for them too.
NAMES = ("", "d", "dir/sub/ü-" * 30, "1.txt")


@given(
    number=st.integers(0, len(TERMS) - 1),
    doc_number=st.integers(0, len(NAMES) - 1),
    tf=st.integers(min_value=1, max_value=2**16 - 1),
    extra=st.integers(min_value=0, max_value=2**32 - 2**16),
)
@settings(max_examples=300, deadline=None)
def test_posting_element_serialisation_roundtrip(number, doc_number, tf, extra):
    element = PostingElement(
        term=TERMS[number], doc_id=NAMES[doc_number], tf=tf, doc_length=tf + extra
    )
    data = posting_bytes(element, number, doc_number)
    assert len(data) == 14
    assert PostingElement.from_bytes(data, TERMS, NAMES) == element


@given(
    data=st.binary(max_size=64)
    # Steer half the examples past the header checks: a plausible header,
    # its term and doc numbers in and just past the plan and the
    # directory, with and without a trailing body.
    | st.builds(
        lambda tf, dl, number, doc_number, body: tf.to_bytes(2, "big")
        + dl.to_bytes(4, "big")
        + number.to_bytes(4, "big")
        + doc_number.to_bytes(4, "big")
        + body,
        st.integers(0, 2),
        st.integers(0, 2**32 - 1),
        st.integers(0, len(TERMS) + 1) | st.integers(0, 2**32 - 1),
        st.integers(0, len(NAMES) + 1) | st.integers(0, 2**32 - 1),
        st.just(b"") | st.binary(max_size=8),
    )
)
@settings(max_examples=500, deadline=None)
def test_arbitrary_bytes_decode_to_their_own_element_or_a_typed_refusal(data):
    try:
        element = PostingElement.from_bytes(data, TERMS, NAMES)
    except ProtocolError:
        return
    assert posting_bytes(element, TERMS.index(element.term), NAMES.index(element.doc_id)) == data


@given(
    key=key_strategy,
    number=st.integers(0, len(TERMS) - 1),
    tf=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_encrypted_element_end_to_end(key, number, tf):
    element = PostingElement(term=TERMS[number], doc_id="d", tf=tf, doc_length=tf + 5)
    cipher = StreamCipher(key)
    ciphertext = cipher.encrypt(posting_bytes(element, number, 1))
    assert len(ciphertext) == 30
    assert PostingElement.from_bytes(cipher.try_decrypt(ciphertext), TERMS, NAMES) == element
