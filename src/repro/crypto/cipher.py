"""Deterministic authenticated stream cipher (SIV) over the crypto substrate.

Wire format of a ciphertext::

    iv (16 bytes) || body (len(plaintext) bytes)

``iv`` is keyed BLAKE2b-128 of the plaintext under the ``"siv:v8"``
subkey and ``body = plaintext XOR keystream(iv)``: the synthetic IV of
Rogaway & Shrimpton's SIV construction (*Deterministic
Authenticated-Encryption*, EUROCRYPT 2006; RFC 5297), so the one 16-byte
value is both the keystream's nonce and the tag.  Opening a ciphertext
(:meth:`StreamCipher.try_decrypt`, the one way to) recomputes the IV over
the decrypted body and refuses a mismatch: a wrong-key or tampered
ciphertext opens as ``None`` instead of garbage, so a querying client
tells "not my group's element" apart from a plaintext.  BLAKE2's keyed
mode is a PRF and a MAC by design (RFC 7693).

The keystream is keyed BLAKE2b-512 under the enc subkey, in counter
mode: block 0 is ``BLAKE2b(enc_subkey; iv)`` and block ``i >= 1`` is
``BLAKE2b(enc_subkey; iv || i)`` with ``i`` as 8 big-endian bytes, the
blocks concatenated and cut to the body length.  Every block hashes a
distinct input (block 0's is 16 bytes long, every other one 24), so the
blocks are independent PRF outputs.  A body of up to 64 bytes — every
posting element, a fixed 14-byte header — is block 0 alone.

What determinism reveals, and all it reveals: under one group key equal
plaintexts seal to equal bytes.  Two *distinct* plaintexts share an IV
only by a collision of the 128-bit PRF (~2^64 encryptions under one key
by the birthday bound), and the tag is 128 bits as before.  A live index
never holds two equal postings — (term number, doc number) is unique per
group — so equality shows only when a deleted document is indexed again
unchanged: its elements come back byte for byte.  The server links such
a re-index anyway, through the identical list / TRS multiset it sends
(the TRS of a document's elements is a function of its terms and tf, and
of its doc id for unseen terms, so re-inserting is idempotent).  A
document whose tf changed seals to new bytes.

The IV subkey is derived under the label ``"siv:v8"``, fresh in format
v8: a v7 ciphertext (``nonce (12) || body || tag (16)``) has no IV this
subkey produced, so it fails its check and is refused like any foreign
element.

Performance model — this cipher sits on the fetch hot path (a querying
client skims every readable element of every fetched slice, the elements
past k included), so every layer of the per-element cost is flattened:

* a posting's keystream is one keyed BLAKE2b digest — ``copy`` /
  ``update`` / ``digest`` of the state keyed once in ``__init__``, the
  IV's construction — so opening an element is two keyed BLAKE2b hashes.
  Only a body past 64 bytes (a directory) leaves the inline path for
  :meth:`StreamCipher._stream`;
* the XOR is a single arbitrary-precision integer operation
  (``int.from_bytes(a) ^ int.from_bytes(b)``), three C-level calls instead
  of one Python iteration per byte; the one-block keystream is cut to the
  body length by a right shift of its integer, not a slice;
* both subkey derivations happen once in ``__init__``, which also binds
  the ``copy`` methods of the two keyed states the kernel uses per
  element;
* :meth:`StreamCipher.try_decrypt` is the one kernel every open goes
  through — memo probe, keystream, XOR, IV check, the caller's
  plaintext decoder and the memo store for ONE ciphertext, all inline,
  so a miss enters no Python frame but the decoder's and a hit none at
  all.  It is per element, not per batch, because the steady
  state of a query is a memo hit: a fetched slice interleaves ~7 groups
  at ~2 elements each, so a per-group batch spends more on bucketing the
  slice, setting the batch up and re-sorting its output than the hits
  themselves cost, while a miss (a few microseconds of hashing and
  decoding) does not notice one call.
  :meth:`~StreamCipher.try_decrypt_many` is a comprehension over it, so
  there is one copy of the sequence and one place the memo rules live;
* a bounded verified-decoded memo (ciphertext -> ``decode(verified
  plaintext)``) makes re-skims of hot elements O(dict lookup) — a hit
  skips keystream, IV check and decode alike: the paper's Zipf workload
  fetches the same head slices over and over (every concurrent query
  shares the hot terms), and a ciphertext is immutable — same bytes,
  same plaintext, same decoded value, so serving a memoised verified
  result is sound.  Only what passed the IV check *and* its decoder is
  ever stored; the memo holds one decoder's values at a time (a raw
  caller never sees a decoded entry or the reverse, nor one decoder
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

#: The synthetic IV: keystream nonce and authentication tag in one.
IV_SIZE = 16
#: One keystream block: a BLAKE2b-512 digest, the longest one-block body.
BLOCK_SIZE = 64

_T = TypeVar("_T")
_Decoder = Callable[[bytes], Any]


class StreamCipher:
    """Seal and open byte strings under one group master key.

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
        "_siv",
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
        # every keystream block and every IV starts from a copy of one.
        self._keystream = hashlib.blake2b(
            key=derive_key(master_key, "enc"), digest_size=BLOCK_SIZE
        ).copy
        self._siv = hashlib.blake2b(
            key=derive_key(master_key, "siv:v8"), digest_size=IV_SIZE
        ).copy
        # ciphertext -> _memo_decoder(verified plaintext); None = raw bytes
        self._memo: dict[bytes, Any] = {}
        self._memo_decoder: _Decoder | None = None
        self._memo_capacity = memo_capacity
        self.memo_hits = 0

    def encrypt(self, plaintext: bytes) -> bytes:
        """Seal *plaintext*: ``iv || plaintext XOR keystream(iv)``, the
        IV a PRF of the plaintext, so equal plaintexts seal equal."""
        siv = self._siv()
        siv.update(plaintext)
        iv = siv.digest()
        size = len(plaintext)
        if size <= BLOCK_SIZE:
            block = self._keystream()
            block.update(iv)
            stream = int.from_bytes(block.digest(), "big") >> (BLOCK_SIZE - size) * 8
        else:
            stream = self._stream(iv, size)
        return iv + (int.from_bytes(plaintext, "big") ^ stream).to_bytes(size, "big")

    def _stream(self, iv: bytes, size: int) -> int:
        """The keystream of a *size*-byte body, as the integer of its
        big-endian bytes: block 0 over *iv*, then block ``i`` over
        ``iv || i``, concatenated and cut to *size*.  :meth:`encrypt`
        and :meth:`try_decrypt` inline the one-block case."""
        blocks = []
        for counter in range(-(-size // BLOCK_SIZE)):
            block = self._keystream()
            block.update(iv + counter.to_bytes(8, "big") if counter else iv)
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
        """The skim kernel: decrypt → verify → decode → memoise ONE
        ciphertext; ``None`` instead of raising where authentication fails.

        A memoised ciphertext is answered from the memo (and counted in
        ``memo_hits``) before anything else.  Otherwise the body is
        decrypted, the IV recomputed over that plaintext and compared in
        constant time, and only a match is handed to *decode* — which
        therefore never sees unauthenticated bytes.  What *decode* raises
        propagates and nothing is stored for that ciphertext.  A store
        into a full memo first drops its oldest half (dicts iterate in
        insertion order): amortised O(1) per store, no per-hit
        bookkeeping.

        The memo serves only the decoder that filled it, compared by
        identity — pass one stable function, not a fresh closure or bound
        method per call.  A new decoder empties the memo and takes it
        over; a raw caller goes around a decoder's memo instead of
        evicting it.
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
        if len(ciphertext) < IV_SIZE:
            return None
        iv = ciphertext[:IV_SIZE]
        body = ciphertext[IV_SIZE:]
        size = len(body)
        if size <= BLOCK_SIZE:
            block = self._keystream()
            block.update(iv)
            stream = int.from_bytes(block.digest(), "big") >> (BLOCK_SIZE - size) * 8
        else:
            stream = self._stream(iv, size)
        value: Any = (int.from_bytes(body, "big") ^ stream).to_bytes(size, "big")
        siv = self._siv()
        siv.update(value)
        if not _compare_digest(iv, siv.digest()):
            return None
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
