"""Authenticated counter-mode stream cipher over the crypto substrate.

Wire format of a ciphertext::

    nonce (16 bytes) || body (len(plaintext) bytes) || tag (16 bytes)

``body = plaintext XOR keystream(nonce)``; the tag is a truncated
HMAC-SHA256 over ``nonce || body`` under an independent MAC subkey, checked
on decryption (wrong-key or tampered ciphertexts raise
:class:`~repro.errors.AuthenticationError` instead of yielding garbage — a
querying client must be able to tell "not my group's element" apart from
data corruption).

Performance model — this cipher sits on the fetch hot path (a querying
client skims every readable element of every fetched slice), so every
layer of the per-element cost is flattened:

* the keystream is one :class:`~repro.crypto.prf.XofKeystream` squeeze
  (``SHAKE-256(enc_subkey || nonce)`` expanded to the body length in a
  single C call) instead of one HMAC invocation per 32 bytes;
* the XOR is a single arbitrary-precision integer operation
  (``int.from_bytes(a) ^ int.from_bytes(b)``), three C-level calls instead
  of one Python iteration per byte;
* the MAC answers from precomputed HMAC states
  (:class:`~repro.crypto.prf.Prf`), so no key schedule is re-run per tag;
* both subkey derivations happen once in ``__init__``, and the
  module-level one-shot :func:`encrypt`/:func:`decrypt` helpers keep a
  bounded cache of ciphers keyed by master key instead of re-deriving
  subkeys per call;
* :meth:`StreamCipher.try_decrypt_many` skims a whole fetched slice in
  one call with the verify/decrypt plumbing inlined, amortising the
  per-element attribute lookups and call dispatch, and takes the
  caller's plaintext decoder so verify, decrypt *and* decode are one
  pass;
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

from collections.abc import Callable, Iterable
from functools import lru_cache
from hmac import compare_digest as _compare_digest
from typing import Any, TypeVar, overload

from repro.crypto.prf import Prf, XofKeystream, derive_key
from repro.errors import AuthenticationError

NONCE_SIZE = 16
TAG_SIZE = 16

_T = TypeVar("_T")
_Decoder = Callable[[bytes], Any]


class StreamCipher:
    """Encrypt/decrypt byte strings under one group master key.

    ``memo_capacity`` bounds the verified-decoded memo (entries,
    FIFO-evicted in halves); ``0`` disables memoisation entirely.

    ``memo_hits`` counts skim decrypts answered straight from the memo
    — a plain attribute (one integer add on the hit path) that the
    client's telemetry instruments read and difference, so the cipher
    itself stays free of any registry dependency.
    """

    __slots__ = (
        "_enc",
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
        self._enc = XofKeystream(derive_key(master_key, "enc"))
        self._mac = Prf(derive_key(master_key, "mac"))
        # ciphertext -> _memo_decoder(verified plaintext); None = raw bytes
        self._memo: dict[bytes, Any] = {}
        self._memo_decoder: _Decoder | None = None
        self._memo_capacity = memo_capacity
        self.memo_hits = 0

    def _memoise(self, ciphertext: bytes, value: Any) -> None:
        """Remember a *verified*, decoded decryption, evicting oldest when full."""
        memo = self._memo
        if len(memo) >= self._memo_capacity:
            # Drop the oldest half in one sweep (dicts iterate in
            # insertion order); amortised O(1) per store, no per-hit
            # bookkeeping on the fast path.
            for stale in list(memo)[: self._memo_capacity // 2 + 1]:
                del memo[stale]
        memo[ciphertext] = value

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Encrypt *plaintext*; *nonce* must be unique per message.

        Nonces are caller-supplied (16 bytes) so that tests and simulations
        stay deterministic; :class:`NonceSequence` provides a safe default.
        """
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
        size = len(plaintext)
        stream = self._enc.keystream(nonce, size)
        body = (
            int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(size, "big")
        tag = self._mac.evaluate(nonce + body)[:TAG_SIZE]
        return nonce + body + tag

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and authenticate; raises :class:`AuthenticationError`."""
        if len(ciphertext) < NONCE_SIZE + TAG_SIZE:
            raise AuthenticationError("ciphertext too short")
        expected = self._mac.evaluate(ciphertext[:-TAG_SIZE])[:TAG_SIZE]
        if not _compare_digest(ciphertext[-TAG_SIZE:], expected):
            raise AuthenticationError("ciphertext failed integrity check")
        body = ciphertext[NONCE_SIZE:-TAG_SIZE]
        size = len(body)
        stream = self._enc.keystream(ciphertext[:NONCE_SIZE], size)
        return (
            int.from_bytes(body, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(size, "big")

    def try_decrypt(self, ciphertext: bytes) -> bytes | None:
        """Decrypt, returning ``None`` instead of raising on auth failure.

        The one-element, straight-line form of a decoder-less
        :meth:`try_decrypt_many`, under the same memo rules.
        """
        raw_memo = self._memo_decoder is None  # else a decoder's: go around it
        cached = self._memo.get(ciphertext) if raw_memo else None
        if cached is not None:
            self.memo_hits += 1
            return cached
        try:
            plaintext = self.decrypt(ciphertext)
        except AuthenticationError:
            return None
        if raw_memo and self._memo_capacity:
            self._memoise(ciphertext, plaintext)
        return plaintext

    @overload
    def try_decrypt_many(self, ciphertexts: Iterable[bytes]) -> list[bytes | None]: ...

    @overload
    def try_decrypt_many(
        self, ciphertexts: Iterable[bytes], decode: Callable[[bytes], _T]
    ) -> list[_T | None]: ...

    def try_decrypt_many(
        self, ciphertexts: Iterable[bytes], decode: _Decoder | None = None
    ) -> list[Any]:
        """Skim a batch: one entry per input, ``None`` where auth fails.

        The verify/decrypt plumbing is inlined against the precomputed
        hash states (package-private access into the PRF layer) so a
        fetched slice is skimmed without per-element call overhead, and
        re-skimmed hot elements are served straight from the memo.

        *decode* runs once per verified plaintext, never on unauthenticated
        bytes, and the memo keeps its result; what it raises propagates
        and nothing is stored for that ciphertext.  The memo serves only
        the decoder that filled it, compared by identity — pass one
        stable function, not a fresh closure or bound method per call.
        A new decoder empties the memo and takes it over; a raw caller
        (the snippet path shares these ciphers) goes around a decoder's
        memo instead of evicting it.
        """
        mac_inner = self._mac._inner
        mac_outer = self._mac._outer
        xof_copy = self._enc._state.copy
        compare = _compare_digest
        from_bytes = int.from_bytes
        floor = NONCE_SIZE + TAG_SIZE
        memo = self._memo
        memoise = self._memo_capacity > 0
        if decode is not self._memo_decoder:
            if decode is None:
                memo, memoise = {}, False
            else:
                memo.clear()
                self._memo_decoder = decode
        memo_get = memo.get
        out: list[Any] = []
        append = out.append
        hits = 0  # batch-local tally; one attribute add after the loop
        for ciphertext in ciphertexts:
            cached = memo_get(ciphertext)
            if cached is not None:
                hits += 1
                append(cached)
                continue
            if len(ciphertext) < floor:
                append(None)
                continue
            inner = mac_inner.copy()
            inner.update(ciphertext[:-TAG_SIZE])
            outer = mac_outer.copy()
            outer.update(inner.digest())
            if not compare(ciphertext[-TAG_SIZE:], outer.digest()[:TAG_SIZE]):
                append(None)
                continue
            body = ciphertext[NONCE_SIZE:-TAG_SIZE]
            size = len(body)
            xof = xof_copy()
            xof.update(ciphertext[:NONCE_SIZE])
            plaintext = (
                from_bytes(body, "big") ^ from_bytes(xof.digest(size), "big")
            ).to_bytes(size, "big")
            value = plaintext if decode is None else decode(plaintext)
            if memoise:
                self._memoise(ciphertext, value)
            append(value)
        self.memo_hits += hits
        return out

    def decrypt_many(self, ciphertexts: Iterable[bytes]) -> list[bytes]:
        """Decrypt a batch, raising on the first authentication failure.

        For callers that *own* every ciphertext (no skimming); anything
        unreadable is data corruption, not somebody else's element.
        """
        plaintexts = self.try_decrypt_many(ciphertexts)
        for plaintext in plaintexts:
            if plaintext is None:
                raise AuthenticationError("ciphertext failed integrity check")
        return plaintexts  # type: ignore[return-value]


class NonceSequence:
    """Deterministic unique nonces: ``PRF(counter)`` under a nonce subkey.

    Each inserting client owns one sequence; uniqueness holds as long as a
    (client key, counter) pair is never reused, which the monotonically
    increasing counter guarantees within a process.
    """

    def __init__(self, master_key: bytes, label: str = "nonce") -> None:
        self._prf = Prf(derive_key(master_key, label))
        self._counter = 0

    def next(self) -> bytes:
        nonce = self._prf.evaluate(self._counter.to_bytes(8, "big"))[:NONCE_SIZE]
        self._counter += 1
        return nonce


@lru_cache(maxsize=1024)
def cipher_for_key(master_key: bytes) -> StreamCipher:
    """THE cipher for *master_key* — cached, since ciphers are stateless.

    A :class:`StreamCipher` carries no per-message state (nonces are
    caller-supplied), so one shared instance per key is safe and saves the
    two subkey derivations plus the hash key schedules on every one-shot
    call.  The cache is bounded; a deployment has a handful of group keys.
    """
    return StreamCipher(master_key)


def encrypt(master_key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """One-shot helper around a cached :class:`StreamCipher`."""
    return cipher_for_key(master_key).encrypt(plaintext, nonce)


def decrypt(master_key: bytes, ciphertext: bytes) -> bytes:
    """One-shot helper around a cached :class:`StreamCipher`."""
    return cipher_for_key(master_key).decrypt(ciphertext)
