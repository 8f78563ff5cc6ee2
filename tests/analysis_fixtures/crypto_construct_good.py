"""Good: ciphers come from the key service."""


def encrypt_sanctioned(keys, principal: str, group: str, plaintext: bytes) -> bytes:
    return keys.cipher_for(principal, group).encrypt(plaintext)
