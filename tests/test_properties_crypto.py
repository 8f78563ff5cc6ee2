"""Property-based tests for the crypto substrate: roundtrip for all inputs,
authentication rejects every single-bit tamper."""

from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import NONCE_SIZE, StreamCipher
from repro.crypto.prf import Prf, derive_key
from repro.errors import AuthenticationError, ProtocolError
from repro.index.postings import PostingElement

key_strategy = st.binary(min_size=16, max_size=64)
nonce_strategy = st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE)
plaintext_strategy = st.binary(min_size=0, max_size=512)


@given(key=key_strategy, nonce=nonce_strategy, plaintext=plaintext_strategy)
@settings(max_examples=150, deadline=None)
def test_roundtrip(key, nonce, plaintext):
    cipher = StreamCipher(key)
    assert cipher.decrypt(cipher.encrypt(plaintext, nonce)) == plaintext


@given(
    key=key_strategy,
    nonce=nonce_strategy,
    plaintext=st.binary(min_size=1, max_size=128),
    flip=st.integers(min_value=0),
)
@settings(max_examples=150, deadline=None)
def test_any_bitflip_detected(key, nonce, plaintext, flip):
    cipher = StreamCipher(key)
    ciphertext = bytearray(cipher.encrypt(plaintext, nonce))
    position = flip % (len(ciphertext) * 8)
    ciphertext[position // 8] ^= 1 << (position % 8)
    try:
        cipher.decrypt(bytes(ciphertext))
    except AuthenticationError:
        return
    raise AssertionError("tampered ciphertext accepted")


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


@given(
    number=st.integers(0, len(TERMS) - 1),
    doc_id=st.text(max_size=40) | st.just(""),
    tf=st.integers(min_value=1, max_value=2**16 - 1),
    extra=st.integers(min_value=0, max_value=2**32 - 2**16),
)
@settings(max_examples=300, deadline=None)
def test_posting_element_serialisation_roundtrip(number, doc_id, tf, extra):
    element = PostingElement(
        term=TERMS[number], doc_id=doc_id, tf=tf, doc_length=tf + extra
    )
    data = element.to_bytes(number)
    assert len(data) == 10 + len(doc_id.encode())
    assert PostingElement.from_bytes(data, TERMS) == element


@given(
    data=st.binary(max_size=64)
    # Steer half the examples past the header checks: a plausible header,
    # its term number in and just past the plan, over arbitrary (mostly
    # non-UTF-8) and over textual bodies.
    | st.builds(
        lambda tf, dl, number, body: tf.to_bytes(2, "big")
        + dl.to_bytes(4, "big")
        + number.to_bytes(4, "big")
        + body,
        st.integers(0, 2),
        st.integers(0, 2**32 - 1),
        st.integers(0, len(TERMS) + 1) | st.integers(0, 2**32 - 1),
        st.binary(max_size=8) | st.text(max_size=6).map(str.encode),
    )
)
@settings(max_examples=500, deadline=None)
def test_arbitrary_bytes_decode_to_their_own_element_or_a_typed_refusal(data):
    try:
        element = PostingElement.from_bytes(data, TERMS)
    except ProtocolError:
        return
    assert element.to_bytes(TERMS.index(element.term)) == data


@given(
    key=key_strategy,
    nonce=nonce_strategy,
    number=st.integers(0, len(TERMS) - 1),
    tf=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_encrypted_element_end_to_end(key, nonce, number, tf):
    element = PostingElement(term=TERMS[number], doc_id="d", tf=tf, doc_length=tf + 5)
    cipher = StreamCipher(key)
    ciphertext = cipher.encrypt(element.to_bytes(number), nonce)
    assert PostingElement.from_bytes(cipher.decrypt(ciphertext), TERMS) == element
