"""HMAC-SHA256 pseudo-random function and key derivation.

Performance model: a fresh ``hmac.new(key, ...)`` pays the HMAC key
schedule (masking the key with ipad/opad and compressing both 64-byte
blocks) on every call, plus the ``hmac`` module's per-object overhead.  A
:class:`Prf` therefore precomputes the two keyed SHA-256 states once at
construction and answers every :meth:`evaluate` from ``.copy()`` of those
states — six C-level hashlib calls per PRF block, no re-keying, byte
identical to ``hmac.new(key, message, sha256).digest()``.
"""

from __future__ import annotations

import hashlib

DIGEST_SIZE = hashlib.sha256().digest_size  # 32 bytes
_BLOCK_SIZE = 64  # SHA-256 compression block, the HMAC pad width
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class Prf:
    """A keyed PRF: ``F_key(message) -> 32 bytes`` via HMAC-SHA256."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("PRF key must be at least 16 bytes")
        # Standard HMAC key schedule, done exactly once: long keys are
        # hashed down, short keys zero-padded to the compression block.
        if len(key) > _BLOCK_SIZE:
            key = hashlib.sha256(key).digest()
        padded = key.ljust(_BLOCK_SIZE, b"\x00")
        self._inner = hashlib.sha256(padded.translate(_IPAD))
        self._outer = hashlib.sha256(padded.translate(_OPAD))

    def evaluate(self, message: bytes) -> bytes:
        """The PRF output block for *message*."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def evaluate_unit(self, message: bytes) -> float:
        """PRF output mapped to [0, 1) with 53-bit precision.

        Used for the deterministic pseudo-random TRS of terms unseen at
        training time (paper §5.1.1): the same term always maps to the same
        TRS, so concurrent inserting clients agree without coordination.
        """
        block = self.evaluate(message)
        mantissa = int.from_bytes(block[:8], "big") >> 11  # top 53 bits
        return mantissa / float(1 << 53)


def derive_key(master_key: bytes, label: str) -> bytes:
    """Derive an independent subkey from *master_key* for *label*.

    Used to separate the encryption key, the MAC key, and the
    unseen-term-TRS key of a group from one master secret.
    """
    if len(master_key) < 16:
        raise ValueError("master key must be at least 16 bytes")
    return Prf(master_key).evaluate(b"derive:" + label.encode())
