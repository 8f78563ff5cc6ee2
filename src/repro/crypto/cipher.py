"""Authenticated counter-mode stream cipher over the crypto substrate.

Wire format of a ciphertext::

    nonce (12 bytes) || body (len(plaintext) bytes) || tag (16 bytes)

``body = plaintext XOR keystream(nonce)``; the tag is keyed BLAKE2b-128
over ``nonce || body`` under an independent MAC subkey (encrypt-then-MAC;
BLAKE2's keyed mode is a MAC by design, RFC 7693), checked on decryption
(wrong-key or tampered ciphertexts raise
:class:`~repro.errors.AuthenticationError` instead of yielding garbage — a
querying client must be able to tell "not my group's element" apart from
data corruption).

The keystream is keyed BLAKE2b-512 under the enc subkey, in counter
mode: block 0 is ``BLAKE2b(enc_subkey; nonce)`` and block ``i >= 1`` is
``BLAKE2b(enc_subkey; nonce || i)`` with ``i`` as 8 big-endian bytes, the
blocks concatenated and cut to the body length.  Every block hashes a
distinct input (block 0's is 12 bytes long, every other one 20), so the
blocks are independent PRF outputs.  A body of up to 64 bytes — every
posting element, a fixed 14-byte header — is block 0 alone.

The nonce is 96 bits, the AEAD nonce width of RFC 5116 and RFC 8439.
:class:`NonceSequence` derives it from the plaintext it protects, so a
repeat needs an equal plaintext and then gives the identical ciphertext;
two *distinct* inputs share a nonce only by a collision of the 96-bit
PRF, which the birthday bound puts at ~2^48 encryptions under one
(principal, group) key — far past any index this code builds.

The MAC subkey is derived under the label ``"mac:v6"``: a ciphertext
sealed with the 16-byte nonce and SHAKE-256 keystream of dump format v5
covers the same bytes with its tag, so under the old subkey it would
verify and then decrypt to garbage; under the new one it fails its tag
and is refused like any foreign element.

Performance model — this cipher sits on the fetch hot path (a querying
client skims every readable element of every fetched slice, the elements
past k included), so every layer of the per-element cost is flattened:

* a posting's keystream is one keyed BLAKE2b digest — ``copy`` /
  ``update`` / ``digest`` of the state keyed once in ``__init__``, the
  tag's construction — so opening an element is two keyed BLAKE2b
  hashes (a SHAKE-256 state copy alone costs more than a whole keyed
  BLAKE2b digest).  Only a body past 64 bytes (a snippet) leaves the
  inline path for :meth:`StreamCipher._stream`;
* the XOR is a single arbitrary-precision integer operation
  (``int.from_bytes(a) ^ int.from_bytes(b)``), three C-level calls instead
  of one Python iteration per byte; the one-block keystream is cut to the
  body length by a right shift of its integer, not a slice;
* the tag is one keyed hash: the BLAKE2b state keyed with the MAC subkey
  is built once and each tag is ``copy`` / ``update`` / ``digest`` of it,
  where HMAC-SHA256 needs an inner and an outer state per tag (about
  half the time per element);
* both subkey derivations happen once in ``__init__``, which also binds
  the ``copy`` methods of the two keyed states the kernel uses per
  element;
* :meth:`StreamCipher.try_decrypt` is the one kernel every non-raising
  decrypt goes through — memo probe, MAC, keystream, XOR, the caller's
  plaintext decoder and the memo store for ONE ciphertext, all inline,
  so a miss enters no Python frame but the decoder's and a hit none at
  all.  It is per element, not per batch, because the steady state of a
  query is a memo hit: a fetched slice interleaves ~7 groups at ~2
  elements each, so a per-group batch spends more on bucketing the
  slice, setting the batch up and re-sorting its output than the hits
  themselves cost, while a miss (a few microseconds of hashing and
  decoding) does not notice one call.
  :meth:`~StreamCipher.try_decrypt_many` is a comprehension over it, so
  there is one copy of the sequence and one place the memo rules live;
* a bounded verified-decoded memo (ciphertext -> ``decode(verified
  plaintext)``) makes re-skims of hot elements O(dict lookup) — a hit
  skips MAC, keystream and decode alike: the paper's Zipf workload
  fetches the same head slices over and over (every concurrent query
  shares the hot terms), and a ciphertext is immutable — same bytes,
  same plaintext, same decoded value, so serving a memoised verified
  result is sound.  Only what passed the MAC *and* its decoder is ever
  stored; the memo holds one decoder's values at a time (a raw caller
  never sees a decoded entry or the reverse, nor one decoder
  another's); and it lives inside the per-group cipher, which
  principals only obtain through the membership-checked key service
  and which dies with its membership on revoke.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable
from hmac import compare_digest as _compare_digest
from typing import Any, TypeVar, overload

from repro.crypto.prf import derive_key
from repro.errors import AuthenticationError

NONCE_SIZE = 12
TAG_SIZE = 16
#: One keystream block: a BLAKE2b-512 digest, the longest one-block body.
BLOCK_SIZE = 64

_T = TypeVar("_T")
_Decoder = Callable[[bytes], Any]


class StreamCipher:
    """Encrypt/decrypt byte strings under one group master key.

    ``memo_capacity`` bounds the verified-decoded memo (entries,
    FIFO-evicted in halves); ``0`` disables memoisation entirely.

    ``memo_hits`` counts decrypts answered straight from the memo — a
    plain attribute bumped per hit (so what was served before a decoder
    raised stays counted) that the client's telemetry reads and
    differences once per round, so the cipher itself stays free of any
    registry dependency.
    """

    __slots__ = (
        "_keystream",
        "_mac",
        "_memo",
        "_memo_capacity",
        "_memo_decoder",
        "memo_hits",
    )

    DEFAULT_MEMO_CAPACITY = 8192

    def __init__(
        self, master_key: bytes, memo_capacity: int = DEFAULT_MEMO_CAPACITY
    ) -> None:
        if len(master_key) < 16:
            raise ValueError("master key must be at least 16 bytes")
        if memo_capacity < 0:
            raise ValueError("memo_capacity must be non-negative")
        # The keyed states themselves stay private to these bound methods:
        # every keystream block and every tag starts from a copy of one.
        self._keystream = hashlib.blake2b(
            key=derive_key(master_key, "enc"), digest_size=BLOCK_SIZE
        ).copy
        self._mac = hashlib.blake2b(
            key=derive_key(master_key, "mac:v6"), digest_size=TAG_SIZE
        ).copy
        # ciphertext -> _memo_decoder(verified plaintext); None = raw bytes
        self._memo: dict[bytes, Any] = {}
        self._memo_decoder: _Decoder | None = None
        self._memo_capacity = memo_capacity
        self.memo_hits = 0

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Encrypt *plaintext*; *nonce* must be unique per message.

        Nonces are caller-supplied (12 bytes) so that tests and simulations
        stay deterministic; :class:`NonceSequence` provides a safe default,
        ``next(plaintext)``.
        """
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
        size = len(plaintext)
        if size <= BLOCK_SIZE:
            block = self._keystream()
            block.update(nonce)
            stream = int.from_bytes(block.digest(), "big") >> (BLOCK_SIZE - size) * 8
        else:
            stream = self._stream(nonce, size)
        head = nonce + (int.from_bytes(plaintext, "big") ^ stream).to_bytes(size, "big")
        mac = self._mac()
        mac.update(head)
        return head + mac.digest()

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and authenticate; raises :class:`AuthenticationError`."""
        if len(ciphertext) < NONCE_SIZE + TAG_SIZE:
            raise AuthenticationError("ciphertext too short")
        mac = self._mac()
        mac.update(ciphertext[:-TAG_SIZE])
        if not _compare_digest(ciphertext[-TAG_SIZE:], mac.digest()):
            raise AuthenticationError("ciphertext failed integrity check")
        body = ciphertext[NONCE_SIZE:-TAG_SIZE]
        size = len(body)
        stream = self._stream(ciphertext[:NONCE_SIZE], size)
        return (int.from_bytes(body, "big") ^ stream).to_bytes(size, "big")

    def _stream(self, nonce: bytes, size: int) -> int:
        """The keystream of a *size*-byte body, as the integer of its
        big-endian bytes: block 0 over *nonce*, then block ``i`` over
        ``nonce || i``, concatenated and cut to *size*.  :meth:`encrypt`
        and :meth:`try_decrypt` inline the one-block case."""
        blocks = []
        for counter in range(-(-size // BLOCK_SIZE)):
            block = self._keystream()
            block.update(nonce + counter.to_bytes(8, "big") if counter else nonce)
            blocks.append(block.digest())
        return int.from_bytes(b"".join(blocks), "big") >> (
            len(blocks) * BLOCK_SIZE - size
        ) * 8

    @overload
    def try_decrypt(self, ciphertext: bytes, decode: None = None) -> bytes | None: ...

    @overload
    def try_decrypt(
        self, ciphertext: bytes, decode: Callable[[bytes], _T]
    ) -> _T | None: ...

    def try_decrypt(self, ciphertext: bytes, decode: _Decoder | None = None) -> Any:
        """The skim kernel: verify → decrypt → decode → memoise ONE
        ciphertext; ``None`` instead of raising where authentication fails.

        A memoised ciphertext is answered from the memo (and counted in
        ``memo_hits``) before anything else.  Otherwise the tag is
        checked and only then is the body decrypted and handed to
        *decode* — which therefore never sees unauthenticated bytes.
        What *decode* raises propagates and nothing is stored for that
        ciphertext.  A store into a full memo first drops its oldest
        half (dicts iterate in insertion order): amortised O(1) per
        store, no per-hit bookkeeping.

        The memo serves only the decoder that filled it, compared by
        identity — pass one stable function, not a fresh closure or bound
        method per call.  A new decoder empties the memo and takes it
        over; a raw caller (the snippet path shares these ciphers) goes
        around a decoder's memo instead of evicting it.
        """
        memo = self._memo
        owns_memo = True
        if decode is self._memo_decoder:
            cached = memo.get(ciphertext)
            if cached is not None:
                self.memo_hits += 1
                return cached
        elif decode is None:
            owns_memo = False  # raw beside a decoder's memo: go around it
        else:
            memo.clear()
            self._memo_decoder = decode
        if len(ciphertext) < NONCE_SIZE + TAG_SIZE:
            return None
        mac = self._mac()
        mac.update(ciphertext[:-TAG_SIZE])
        if not _compare_digest(ciphertext[-TAG_SIZE:], mac.digest()):
            return None
        body = ciphertext[NONCE_SIZE:-TAG_SIZE]
        size = len(body)
        if size <= BLOCK_SIZE:
            block = self._keystream()
            block.update(ciphertext[:NONCE_SIZE])
            stream = int.from_bytes(block.digest(), "big") >> (BLOCK_SIZE - size) * 8
        else:
            stream = self._stream(ciphertext[:NONCE_SIZE], size)
        value: Any = (int.from_bytes(body, "big") ^ stream).to_bytes(size, "big")
        if decode is not None:
            value = decode(value)
        capacity = self._memo_capacity
        if owns_memo and capacity:
            if len(memo) >= capacity:
                for stale in list(memo)[: capacity // 2 + 1]:
                    del memo[stale]
            memo[ciphertext] = value
        return value

    @overload
    def try_decrypt_many(self, ciphertexts: Iterable[bytes]) -> list[bytes | None]: ...

    @overload
    def try_decrypt_many(
        self, ciphertexts: Iterable[bytes], decode: Callable[[bytes], _T]
    ) -> list[_T | None]: ...

    def try_decrypt_many(
        self, ciphertexts: Iterable[bytes], decode: _Decoder | None = None
    ) -> list[Any]:
        """Skim a batch: :meth:`try_decrypt` per input, in input order."""
        try_one = self.try_decrypt
        return [try_one(ciphertext, decode) for ciphertext in ciphertexts]


class NonceSequence:
    """Deterministic nonces bound to their plaintext, SIV-style (RFC 5297).

    ``next(plaintext)`` is keyed BLAKE2b-96 under a nonce subkey over
    ``counter (8 bytes) || plaintext``: the state keyed once in
    ``__init__`` is copied, updated and digested per nonce, the tag's
    construction.  The 12 bytes are the AEAD nonce width of RFC 5116 and
    RFC 8439.  Two nonces of one sequence repeat where the counter *and*
    the plaintext repeat, or where two distinct inputs collide under the
    96-bit PRF: by the birthday bound the chance is about ``n^2 / 2^97``
    after ``n`` encryptions under one (principal, group) key, so a
    collision becomes likely only after ~2^48 of them.  Within a process
    the counter never repeats.  Across a restart it does — a sequence
    rebuilt from the same key starts at 0 again, e.g. after a dump is
    reloaded under the deployment secret — and then a repeated nonce
    needs an equal plaintext, whose ciphertext is the identical byte
    string: it shows the server that two elements are equal and nothing
    more, where a counter alone would give it the XOR of two different
    plaintexts.
    """

    __slots__ = ("_prf", "_counter")

    def __init__(self, master_key: bytes, label: str = "nonce") -> None:
        self._prf = hashlib.blake2b(
            key=derive_key(master_key, label), digest_size=NONCE_SIZE
        ).copy
        self._counter = 0

    def next(self, plaintext: bytes) -> bytes:
        """The nonce to encrypt *plaintext* under, advancing the counter."""
        prf = self._prf()
        prf.update(self._counter.to_bytes(8, "big"))
        prf.update(plaintext)
        self._counter += 1
        return prf.digest()
