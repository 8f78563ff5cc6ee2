"""Good: ciphers and nonce sequences come from the key service."""


def encrypt_sanctioned(keys, principal: str, group: str, plaintext: bytes) -> bytes:
    cipher = keys.cipher_for(principal, group)
    nonce = keys.nonce_sequence(principal, group).next(plaintext)
    return cipher.encrypt(plaintext, nonce)
