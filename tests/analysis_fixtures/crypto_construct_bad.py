"""Bad: ad-hoc cipher construction and raw hashing outside repro.crypto."""

import hashlib

from repro.crypto.cipher import StreamCipher


def encrypt_ad_hoc(key: bytes, plaintext: bytes) -> bytes:
    cipher = StreamCipher(key)  # its memo outlives a revoke: bypasses GroupKeyService
    digest = hashlib.sha256(plaintext).digest()  # raw hash outside the Prf surface
    return cipher.encrypt(plaintext + digest)
