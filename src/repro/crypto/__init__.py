"""Cryptography substrate: PRF, authenticated stream cipher, group keys.

The paper treats posting-element encryption as a black box ("Zerber stores
ranking information as well as term and document identifiers within each
posting element in an encrypted form").  No external crypto package is
installable offline, so we build a PRF-based deterministic authenticated
stream cipher on ``hmac``/``hashlib`` from the standard library (SIV: a
keyed-BLAKE2b synthetic IV that is also the tag, and a keyed-BLAKE2b
keystream).  It exercises exactly the code path the paper needs —
encrypt on insert, decrypt + integrity-check on query, random-looking
incompressible ciphertext (§6.6) — and must not be mistaken for an
audited production cipher.

The layer is tuned for the fetch hot path: keyed hash states built once
and copied per element, a one-digest keystream per posting, a one-element
skim kernel that reads a posting's term number before it verifies, and a
bounded memo per group cipher — see
:mod:`repro.crypto.prf` and :mod:`repro.crypto.cipher` for the perf model.
The key service (:mod:`repro.crypto.keys`) is the only cache of ciphers.
"""

from repro.crypto.prf import Prf, derive_key
from repro.crypto.cipher import StreamCipher
from repro.crypto.keys import GroupKeyService

__all__ = [
    "Prf",
    "derive_key",
    "StreamCipher",
    "GroupKeyService",
]
