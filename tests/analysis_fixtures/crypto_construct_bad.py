"""Bad: ad-hoc nonce/cipher construction and raw hashing outside repro.crypto."""

import hashlib

from repro.crypto.cipher import NonceSequence, StreamCipher


def encrypt_ad_hoc(key: bytes, plaintext: bytes) -> bytes:
    cipher = StreamCipher(key)  # restart hazard: bypasses GroupKeyService
    nonces = NonceSequence(key, label="rogue")  # restarts the counter stream
    digest = hashlib.sha256(plaintext).digest()  # raw hash outside the Prf surface
    return cipher.encrypt(plaintext + digest, nonces.next(plaintext + digest))
