"""Group key management and access control (paper §2, §5.2).

Collaboration groups each own a symmetric master key.  The
:class:`GroupKeyService` models the trusted key-distribution component the
paper assumes (it is *not* the untrusted index server): it registers
groups, enrols principals, and hands a group's key only to its members.
The index server itself never sees keys — it checks membership claims via
:meth:`GroupKeyService.is_member` (authentication is out of the paper's
scope and modelled as reliable).

Performance model — the service is asked on every write and every
delivery round of every query, so what it hands out is cached, and every
cache answers to the live membership:

* one :class:`~repro.crypto.cipher.StreamCipher` (and with it the
  group's memo of decoded postings) per (principal, group), built on
  first use, handed out by :meth:`GroupKeyService.cipher_for` after a
  membership check on EVERY call and dropped on enroll/revoke;
* one *keyring* per principal (:meth:`GroupKeyService.keyring`): the
  ``group -> cipher`` index over those same cache slots that the read
  path fetches once per round instead of asking ``memberships()`` per
  slice and ``cipher_for()`` per group per slice.  It owns nothing —
  the ciphers are the cache's — and it is dropped on enroll/revoke
  *and* compared with ``Principal.groups`` on every call, so it cannot
  outlive a membership however the membership changed.  Callers get a
  copy and must not keep it past the round: the service is the only
  place a cipher or a ring may live between calls;
* one *membership snapshot* per principal
  (:meth:`GroupKeyService.membership_snapshot`), which a server asks
  for on every slice to check its readable view by: the same
  drop-on-change, compare-on-every-call discipline, so an unchanged
  membership costs one set comparison and builds nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.cipher import NonceSequence, StreamCipher
from repro.crypto.prf import Prf, derive_key
from repro.errors import AccessDeniedError, ConfigurationError


@dataclass
class Principal:
    """A user identity with group memberships."""

    name: str
    groups: set[str] = field(default_factory=set)


class GroupKeyService:
    """Registry of groups, keys, and memberships.

    Keys are derived deterministically from a service master secret so that
    simulations are reproducible; a deployment would generate them randomly.
    """

    def __init__(self, master_secret: bytes | None = None) -> None:
        if master_secret is None:
            master_secret = hashlib.sha256(b"repro-zerber-default-secret").digest()
        if len(master_secret) < 16:
            raise ConfigurationError("master secret must be at least 16 bytes")
        self._master = master_secret
        self._groups: dict[str, bytes] = {}
        self._principals: dict[str, Principal] = {}
        self._nonce_sequences: dict[tuple[str, str], NonceSequence] = {}
        # Hot-path object caches: building a StreamCipher (two subkey
        # derivations plus hash key schedules) or an unseen-term Prf per
        # call would dominate the skim path.  Membership is re-checked on
        # every lookup, so a hit can never outlive a revocation; entries
        # are additionally dropped on enroll/revoke (belt and braces).
        self._ciphers: dict[tuple[str, str], StreamCipher] = {}
        self._unseen_prfs: dict[tuple[str, str], Prf] = {}
        # principal -> {group: its _ciphers entry}: an index over the
        # cipher cache for the read path, not a second owner.
        self._keyrings: dict[str, dict[str, StreamCipher]] = {}
        # principal -> its memberships as last handed to a server;
        # compared with the live set on every call, like the keyrings.
        self._snapshots: dict[str, frozenset[str]] = {}

    # -- groups --------------------------------------------------------------

    def create_group(self, group: str) -> None:
        """Register a group and derive its master key."""
        if group in self._groups:
            raise ConfigurationError(f"group already exists: {group!r}")
        self._groups[group] = derive_key(self._master, f"group:{group}")

    def ensure_group(self, group: str) -> None:
        """Create *group* if it does not exist yet."""
        if group not in self._groups:
            self.create_group(group)

    def groups(self) -> set[str]:
        return set(self._groups)

    # -- principals ------------------------------------------------------------

    def register(self, name: str, groups: set[str] | None = None) -> Principal:
        """Register a principal, enrolling it in *groups* (created on demand)."""
        if name in self._principals:
            raise ConfigurationError(f"principal already exists: {name!r}")
        principal = Principal(name=name)
        self._principals[name] = principal
        for group in groups or set():
            self.enroll(name, group)
        return principal

    def enroll(self, name: str, group: str) -> None:
        """Add a principal to a group."""
        principal = self._principal(name)
        self.ensure_group(group)
        principal.groups.add(group)
        self._invalidate(name, group)

    def revoke(self, name: str, group: str) -> None:
        """Remove a principal from a group."""
        principal = self._principal(name)
        principal.groups.discard(group)
        self._invalidate(name, group)

    def _invalidate(self, name: str, group: str) -> None:
        """Drop cached crypto objects of one (principal, group) pair."""
        self._ciphers.pop((name, group), None)
        self._unseen_prfs.pop((name, group), None)
        self._keyrings.pop(name, None)
        self._snapshots.pop(name, None)

    def _principal(self, name: str) -> Principal:
        principal = self._principals.get(name)
        if principal is None:
            raise ConfigurationError(f"unknown principal: {name!r}")
        return principal

    def is_member(self, name: str, group: str) -> bool:
        """Membership check the index server performs before serving data."""
        principal = self._principals.get(name)
        return principal is not None and group in principal.groups

    def memberships(self, name: str) -> set[str]:
        """All groups of a principal."""
        return set(self._principal(name).groups)

    def membership_snapshot(self, name: str) -> frozenset[str]:
        """Current memberships as an immutable set; empty for unknowns.

        Servers compare snapshots to detect enroll/revoke between two
        requests (cached per-principal state must not outlive a
        revocation), so unlike :meth:`memberships` this never raises.

        Asked once per served slice, so an unchanged membership gets the
        *same* object back and no set is built: the cached snapshot is
        dropped on enroll/revoke and, like the keyring, compared with
        the live ``Principal.groups`` on EVERY call, so a change that
        went around :meth:`revoke` yields a new, unequal snapshot too.
        """
        principal = self._principals.get(name)
        if principal is None:
            return frozenset()
        snapshot = self._snapshots.get(name)
        if snapshot is None or snapshot != principal.groups:
            snapshot = self._snapshots[name] = frozenset(principal.groups)
        return snapshot

    # -- key handout -------------------------------------------------------------

    def group_key(self, principal: str, group: str) -> bytes:
        """The group master key, released only to members."""
        if not self.is_member(principal, group):
            raise AccessDeniedError(principal, group)
        return self._groups[group]

    def cipher_for(self, principal: str, group: str) -> StreamCipher:
        """THE ready-to-use cipher of a member of *group* — cached.

        Membership is checked on EVERY call, not just the cache miss, so a
        revoked principal loses access immediately; the cached
        :class:`StreamCipher` itself is stateless (nonces are
        caller-supplied), so sharing it across calls is safe.
        """
        if not self.is_member(principal, group):
            raise AccessDeniedError(principal, group)
        return self._cached_cipher(principal, group)

    def _cached_cipher(self, principal: str, group: str) -> StreamCipher:
        """The cache slot behind :meth:`cipher_for`; callers check membership."""
        cache_key = (principal, group)
        cipher = self._ciphers.get(cache_key)
        if cipher is None:
            cipher = StreamCipher(self._groups[group])
            self._ciphers[cache_key] = cipher
        return cipher

    def keyring(self, principal: str) -> dict[str, StreamCipher]:
        """Every cipher *principal* may use right now, by group.

        The read path's one key-service call per delivery round: the
        keys are the readable set and the values are the very ciphers
        :meth:`cipher_for` hands out, so their memos are shared with it
        and die with it.  The cached ring is dropped on enroll/revoke
        and, like every lookup here, re-validated against the live
        ``Principal.groups`` on EVERY call, so a membership change that
        went around :meth:`revoke` is seen too.  Raises what
        :meth:`memberships` raises for an unknown principal.

        The caller gets a copy: its ``get`` stays a C-speed dict lookup
        per fetched element (a read-only proxy dispatches a method call
        each time) and writing to it changes nothing here.  Use it for
        the round it was fetched for and let it go — a ring kept longer
        would outlive a revocation.
        """
        groups = self._principal(principal).groups
        ring = self._keyrings.get(principal)
        if ring is None or ring.keys() != groups:
            ring = {group: self._cached_cipher(principal, group) for group in groups}
            self._keyrings[principal] = ring
        return dict(ring)

    def nonce_sequence(self, principal: str, group: str) -> NonceSequence:
        """THE nonce sequence of a (member, group) pair — a singleton.

        A principal's nonces are ``PRF(counter || plaintext)`` under a key
        derived only from the group key and the principal's name (see
        :class:`NonceSequence`).  The key service (shared by every client
        of a deployment) owns one cached sequence per pair, so within a
        deployment the counter never repeats and nonces are unique.  A
        service rebuilt from the same secret — a restored dump — starts
        the counter again, and then a nonce repeats only for an equal
        plaintext, as the identical ciphertext: uniqueness holds across
        restarts up to equal plaintexts.  Clients must still draw nonces
        from here instead of building their own sequence.
        """
        # Membership is checked on EVERY call, not just the cache miss: a
        # revoked principal must lose access immediately (cached state
        # never outlives a revocation).  The cache entry itself survives a
        # revoke so that a later re-enroll resumes the counter instead of
        # restarting it.
        if not self.is_member(principal, group):
            raise AccessDeniedError(principal, group)
        cache_key = (principal, group)
        sequence = self._nonce_sequences.get(cache_key)
        if sequence is None:
            sequence = NonceSequence(
                self.group_key(principal, group), label=f"nonce:{principal}"
            )
            self._nonce_sequences[cache_key] = sequence
        return sequence

    def unseen_term_prf(self, principal: str, group: str) -> Prf:
        """The keyed PRF members use to assign TRS to training-unseen terms.

        Keyed per group so that adversaries cannot precompute the TRS of
        candidate terms, but shared by all members so concurrent inserts of
        the same term agree (paper §5.1.1).  Cached per (principal, group)
        with membership re-checked every call, like :meth:`cipher_for`.
        """
        if not self.is_member(principal, group):
            raise AccessDeniedError(principal, group)
        cache_key = (principal, group)
        prf = self._unseen_prfs.get(cache_key)
        if prf is None:
            prf = Prf(derive_key(self._groups[group], "unseen-trs"))
            self._unseen_prfs[cache_key] = prf
        return prf
