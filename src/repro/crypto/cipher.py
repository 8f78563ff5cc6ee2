"""Deterministic authenticated stream cipher (SIV) over the crypto substrate.

Wire format of a ciphertext::

    iv (16 bytes) || body (len(plaintext) bytes)

``iv`` is keyed BLAKE2b-128 of the plaintext under the ``"siv:v8"``
subkey and ``body = plaintext XOR keystream(iv)``: the synthetic IV of
Rogaway & Shrimpton's SIV construction (*Deterministic
Authenticated-Encryption*, EUROCRYPT 2006; RFC 5297), so the one 16-byte
value is both the keystream's nonce and the tag.  Opening a ciphertext
(:meth:`StreamCipher.try_decrypt`, and :meth:`StreamCipher.skim` for
every posting it keeps) recomputes the IV over the decrypted body and
refuses a mismatch: a wrong-key or tampered ciphertext opens as ``None``
instead of garbage, so a querying client tells "not my group's element"
apart from a plaintext.  BLAKE2's keyed mode is a PRF and a MAC by
design (RFC 7693).

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
  IV's construction — so verifying an element is two keyed BLAKE2b
  hashes and reading its term number one.  Only a body past 64 bytes (a
  directory) leaves the inline path for :meth:`StreamCipher._stream`;
* the XOR is a single arbitrary-precision integer operation
  (``int.from_bytes(a) ^ int.from_bytes(b)``), three C-level calls instead
  of one Python iteration per byte; the one-block keystream is cut to the
  body length by a right shift of its integer, not a slice, and a field
  of the plaintext is a shift and a mask of the XORed integer;
* both subkey derivations happen once in ``__init__``, which also binds
  the ``copy`` methods of the two keyed states the kernel uses per
  element;
* :meth:`StreamCipher.skim` is the read path's one kernel and the only
  owner of the memo: memo probe, keystream, the term-number read, and
  for a candidate the IV check, the caller's decoder and the memo store,
  for ONE ciphertext, all inline.  It reads the posting's term number
  *first*: a client keeps only the elements of the term it queried
  (paper §5.2), and 51–67 % of what it opens belongs to another term of
  the merged list, so an element whose unverified number is another
  term of the plan is dropped after one keystream block — no IV check,
  no decode, and one Python frame, the kernel's.  Only a candidate (its
  number is the wanted one, or outside the plan) pays the IV check and
  enters the decoder.  That is sound under the paper's
  honest-but-curious server (§3): every element the client *keeps* has
  passed its IV check, and a forged or altered element can only make
  the client drop it, which the server could do by withholding it.  It
  is per element, not per batch, because the steady state of a query is
  a memo hit: a fetched slice interleaves ~7 groups at ~2 elements each,
  so a per-group batch spends more on bucketing the slice, setting the
  batch up and re-sorting its output than the hits themselves cost,
  while a miss (a few microseconds of hashing and decoding) does not
  notice one call;
* a bounded memo makes re-skims of hot elements O(dict lookup).  It
  maps a ciphertext either to ``decode(verified plaintext)`` or, for an
  element dropped on sight, to its unverified term number as a plain
  ``int``.  A hit — a decoded value, or a number that is not the wanted
  one — skips keystream, IV check and decode alike: the paper's Zipf
  workload fetches the same head slices over and over (every concurrent
  query shares the hot terms), and a ciphertext is immutable — same
  bytes, same plaintext, same number, same decoded value.  A memoised
  number equal to the wanted one is *not* a hit: that element is
  verified and decoded then, like a cold candidate, and its entry
  becomes the decoded value.  So only what passed the IV check *and*
  its decoder is ever returned, and ``memo_hits`` counts exactly the
  elements answered without a keystream.  The memo lives inside the
  per-group cipher, which principals only obtain through the
  membership-checked key service and which dies with its membership on
  revoke;
* :meth:`StreamCipher.try_decrypt` is the raw open (verified bytes, no
  memo) the key service's directory sealer uses, and
  :meth:`~StreamCipher.try_decrypt_many` a comprehension over it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable
from hmac import compare_digest as _compare_digest
from typing import Any, TypeVar

from repro.crypto.prf import derive_key

#: The synthetic IV: keystream nonce and authentication tag in one.
IV_SIZE = 16
#: One keystream block: a BLAKE2b-512 digest, the longest one-block body.
BLOCK_SIZE = 64

_T = TypeVar("_T")


class StreamCipher:
    """Seal and open byte strings under one group master key.

    ``memo_capacity`` bounds the skim's memo (entries, FIFO-evicted in
    halves); ``0`` disables memoisation entirely.

    ``memo_hits`` counts skims answered straight from the memo — a
    plain attribute bumped per hit (so what was served before a decoder
    raised stays counted) that the client's telemetry reads and
    differences once per round, so the cipher itself stays free of any
    registry dependency.
    """

    __slots__ = ("_keystream", "_siv", "_memo", "_memo_capacity", "memo_hits")

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
        # ciphertext -> decode(verified plaintext), or the unverified term
        # number (an int) of an element skim dropped on sight
        self._memo: dict[bytes, Any] = {}
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
        and :meth:`skim` inline the one-block case."""
        blocks = []
        for counter in range(-(-size // BLOCK_SIZE)):
            block = self._keystream()
            block.update(iv + counter.to_bytes(8, "big") if counter else iv)
            blocks.append(block.digest())
        return int.from_bytes(b"".join(blocks), "big") >> (
            len(blocks) * BLOCK_SIZE - size
        ) * 8

    def try_decrypt(self, ciphertext: bytes) -> bytes | None:
        """Open ONE ciphertext: its verified plaintext, or ``None``
        instead of raising where authentication fails.  No memo is read
        or written."""
        if len(ciphertext) < IV_SIZE:
            return None
        iv = ciphertext[:IV_SIZE]
        body = ciphertext[IV_SIZE:]
        size = len(body)
        plaintext = (int.from_bytes(body, "big") ^ self._stream(iv, size)).to_bytes(
            size, "big"
        )
        siv = self._siv()
        siv.update(plaintext)
        return plaintext if _compare_digest(iv, siv.digest()) else None

    def try_decrypt_many(self, ciphertexts: Iterable[bytes]) -> list[bytes | None]:
        """:meth:`try_decrypt` per input, in input order."""
        try_one = self.try_decrypt
        return [try_one(ciphertext) for ciphertext in ciphertexts]

    def skim(
        self,
        ciphertext: bytes,
        number: int,
        field: tuple[int, int, int],
        decode: Callable[[bytes], _T],
    ) -> _T | None:
        """The skim kernel: ONE ciphertext, looked at for the posting of
        term *number*; ``None`` for an element dropped or refused.

        *field* says where the number sits and which numbers name terms:
        ``(shift, mask, count)`` — the number is ``plaintext >> shift &
        mask`` of the plaintext read as one big-endian integer, and the
        plan's terms are the numbers below ``count``.

        A memoised decoded value is returned at once, and so is ``None``
        for a memoised number other than *number* (both counted in
        ``memo_hits``).  Otherwise one keystream block opens the body
        and the number is read off it, unverified.  The number of
        another term of the plan drops the element there: it is
        memoised as that ``int``, and nothing is verified or decoded.
        Any other number — *number* itself, or one outside the plan —
        makes the element a candidate: the IV is recomputed over the
        plaintext and compared in constant time, and only a match is
        handed to *decode*, memoised and returned.  So *decode* never
        sees unauthenticated bytes, and an authentic element whose
        number is outside the plan reaches it.  What *decode* raises
        propagates and nothing is stored for that ciphertext.  A store
        of a new ciphertext into a full memo first drops its oldest half
        (dicts iterate in insertion order): amortised O(1) per store, no
        per-hit bookkeeping.

        A decoded value may be another term's posting (one verified when
        that term was queried), so the caller still filters on it; it is
        never an ``int``, which would read as a dropped element's
        number.  The memo holds what one decoder returned — the merge
        plan's decoder of the cipher's group, which the key service's
        keyring pairs with it.
        """
        memo = self._memo
        cached = memo.get(ciphertext)
        if cached is not None:
            if type(cached) is not int:
                self.memo_hits += 1
                return cached
            if cached != number:
                self.memo_hits += 1
                return None
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
        opened = int.from_bytes(body, "big") ^ stream
        shift, mask, count = field
        seen = opened >> shift & mask
        kept: Any
        if seen != number and seen < count:
            kept, stored = None, seen
        else:
            plaintext = opened.to_bytes(size, "big")
            siv = self._siv()
            siv.update(plaintext)
            if not _compare_digest(iv, siv.digest()):
                return None
            kept = stored = decode(plaintext)
        capacity = self._memo_capacity
        if capacity:
            if cached is None and len(memo) >= capacity:
                for stale in list(memo)[: capacity // 2 + 1]:
                    del memo[stale]
            memo[ciphertext] = stored
        return kept
