"""Result snippets: the second half of a §6.6 query response.

The paper prices a top-10 answer as posting elements *plus* "document
snippets [that] arrive in XML format … about 250 B including XML
formatting", and notes that "further optimization can be achieved by
adding search result checksums and caching them on the client (defined in
HTTP 1.0)".

This module implements that pipeline on the untrusted server:

* :class:`SnippetStore` — holds **encrypted** snippets keyed by an opaque
  snippet id = PRF(doc id) under the group key, so the server learns
  neither document identities nor snippet contents;
* checksum-conditional fetches — the client sends the checksum of the
  version it has cached; the server replies "not modified" (checksum
  match) with no body, or ships the encrypted snippet;
* :class:`SnippetClient` — resolves a query's doc ids to snippet ids,
  maintains the cache, and accounts transferred bytes for the §6.6 model.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass

from repro.crypto.cipher import NonceSequence, StreamCipher
from repro.crypto.keys import GroupKeyService
from repro.crypto.prf import Prf, derive_key
from repro.errors import AccessDeniedError

CHECKSUM_SIZE = 8  # bytes on the wire per conditional request

# Default snippet body size, the paper's constant (bytes incl. markup).
DEFAULT_SNIPPET_BYTES = 250


def _snippet_id(group_key: bytes, doc_id: str) -> bytes:
    """Opaque per-document snippet key: PRF(doc id) under the group key."""
    return Prf(derive_key(group_key, "snippet-id")).evaluate(doc_id.encode())[:16]


def _checksum(ciphertext: bytes) -> bytes:
    # Unkeyed public checksum over ciphertext only (the HTTP-1.0-style
    # revalidation tag §6.6) — no key material involved, so the raw hash
    # is deliberate, not a key-separation hazard.
    return hashlib.sha256(ciphertext).digest()[:CHECKSUM_SIZE]  # zlint: disable=crypto-construct


@dataclass(frozen=True)
class SnippetResponse:
    """One conditional-fetch outcome."""

    ciphertext: bytes | None  # None = "not modified", client cache is fresh
    checksum: bytes
    transferred_bytes: int


class SnippetStore:
    """Untrusted server-side snippet storage with conditional fetches."""

    def __init__(self, key_service: GroupKeyService) -> None:
        self._keys = key_service
        # snippet id -> (group, ciphertext, checksum)
        self._snippets: dict[bytes, tuple[str, bytes, bytes]] = {}

    @property
    def num_snippets(self) -> int:
        return len(self._snippets)

    def put(self, principal: str, group: str, snippet_id: bytes, ciphertext: bytes) -> None:
        """Store one encrypted snippet (group membership enforced)."""
        if not self._keys.is_member(principal, group):
            raise AccessDeniedError(principal, group)
        self._snippets[snippet_id] = (group, ciphertext, _checksum(ciphertext))

    def fetch(
        self, principal: str, snippet_id: bytes, cached_checksum: bytes | None = None
    ) -> SnippetResponse | None:
        """Conditional fetch: returns ``None`` for unknown/unreadable ids.

        With a matching *cached_checksum* the body is omitted ("not
        modified"); only the checksum travels.
        """
        entry = self._snippets.get(snippet_id)
        if entry is None:
            return None
        group, ciphertext, checksum = entry
        if not self._keys.is_member(principal, group):
            return None
        if cached_checksum is not None and cached_checksum == checksum:
            return SnippetResponse(
                ciphertext=None, checksum=checksum, transferred_bytes=CHECKSUM_SIZE
            )
        return SnippetResponse(
            ciphertext=ciphertext,
            checksum=checksum,
            transferred_bytes=len(ciphertext) + CHECKSUM_SIZE,
        )


class SnippetClient:
    """Group member publishing and fetching snippets with a local cache."""

    def __init__(
        self, principal: str, key_service: GroupKeyService, store: SnippetStore
    ) -> None:
        self.principal = principal
        self._keys = key_service
        self._store = store
        # snippet id -> (checksum, plaintext) — the HTTP-1.0-style cache.
        self._cache: dict[bytes, tuple[bytes, bytes]] = {}
        self.bytes_transferred = 0

    def _cipher(self, group: str) -> StreamCipher:
        # The key service's cipher, never a copy that could outlive a revoke.
        return self._keys.cipher_for(self.principal, group)

    def _nonce_sequence(self, group: str) -> NonceSequence:
        # The key service owns THE sequence per (principal, group): a
        # second SnippetClient for the same principal continues one
        # counter stream instead of restarting it, so its nonces stay
        # unique and not merely unique up to equal plaintexts.
        return self._keys.nonce_sequence(self.principal, group)

    def snippet_id(self, group: str, doc_id: str) -> bytes:
        """The opaque id both publisher and readers derive for a document."""
        return _snippet_id(self._keys.group_key(self.principal, group), doc_id)

    # -- publishing ------------------------------------------------------------

    def publish(self, group: str, doc_id: str, snippet_text: str) -> bytes:
        """Encrypt and upload a document's snippet; returns its id."""
        snippet_id = self.snippet_id(group, doc_id)
        plaintext = snippet_text.encode()
        ciphertext = self._cipher(group).encrypt(
            plaintext, self._nonce_sequence(group).next(plaintext)
        )
        self._store.put(self.principal, group, snippet_id, ciphertext)
        return snippet_id

    # -- fetching ----------------------------------------------------------------

    def fetch(self, group: str, doc_id: str) -> str | None:
        """Fetch (or revalidate) one snippet; ``None`` if unavailable."""
        snippet_id = self.snippet_id(group, doc_id)
        cached = self._cache.get(snippet_id)
        response = self._store.fetch(
            self.principal,
            snippet_id,
            cached_checksum=cached[0] if cached else None,
        )
        if response is None:
            return None
        self.bytes_transferred += response.transferred_bytes
        if response.ciphertext is None:
            assert cached is not None
            return cached[1].decode()
        plaintext = self._cipher(group).try_decrypt(response.ciphertext)
        if plaintext is None:
            return None
        self._cache[snippet_id] = (response.checksum, plaintext)
        return plaintext.decode()

    def fetch_many(self, hits: Iterable[tuple[str, str]]) -> list[str | None]:
        """Fetch snippets for ``(group, doc_id)`` pairs (a top-k result).

        Returns exactly what one :meth:`fetch` per pair would, but each
        distinct pair is fetched from the store once (duplicates in a
        result page share the response instead of re-transferring it) and
        the ciphertexts that do arrive are decrypted in one
        :meth:`~repro.crypto.cipher.StreamCipher.try_decrypt_many` batch
        per group — a top-k response's snippet skim costs one cipher call
        per group, not one per document.
        """
        hits = list(hits)
        results: list[str | None] = [None] * len(hits)
        # distinct (group, doc_id) -> result indices wanting it
        wanted: dict[tuple[str, str], list[int]] = {}
        for index, pair in enumerate(hits):
            wanted.setdefault(pair, []).append(index)
        # group -> [(result indices, snippet id, new checksum, ciphertext)]
        pending: dict[str, list[tuple[list[int], bytes, bytes, bytes]]] = {}
        for (group, doc_id), indices in wanted.items():
            snippet_id = self.snippet_id(group, doc_id)
            cached = self._cache.get(snippet_id)
            response = self._store.fetch(
                self.principal,
                snippet_id,
                cached_checksum=cached[0] if cached else None,
            )
            if response is None:
                continue
            self.bytes_transferred += response.transferred_bytes
            if response.ciphertext is None:
                assert cached is not None
                for index in indices:
                    results[index] = cached[1].decode()
            else:
                pending.setdefault(group, []).append(
                    (indices, snippet_id, response.checksum, response.ciphertext)
                )
        for group, items in pending.items():
            plaintexts = self._cipher(group).try_decrypt_many(
                [ciphertext for _, _, _, ciphertext in items]
            )
            for (indices, snippet_id, checksum, _), plaintext in zip(
                items, plaintexts
            ):
                if plaintext is None:
                    continue
                self._cache[snippet_id] = (checksum, plaintext)
                for index in indices:
                    results[index] = plaintext.decode()
        return results
