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
  group's skim memo of decoded postings) per (principal, group), built on
  first use, handed out by :meth:`GroupKeyService.cipher_for` after a
  membership check on EVERY call and dropped on enroll/revoke;
* one *keyring* per principal (:meth:`GroupKeyService.keyring`): the
  ``group -> (cipher, decoder)`` index over those same cache slots that
  the read path fetches once per round instead of asking
  ``memberships()`` per slice and ``cipher_for()`` per group per slice.
  Each decoder resolves document numbers through its group's
  :class:`DocumentDirectory`, so the ring hands out the names with the
  keys and a revoke takes both.  It owns nothing — the ciphers are the
  cache's, the decoders the merge plan's — and it is dropped on
  enroll/revoke *and* compared with ``Principal.groups`` on every call,
  so it cannot outlive a membership however the membership changed.
  Callers get a copy and must not keep it past the round: the service
  is the only place a cipher or a ring may live between calls;
* one *membership snapshot* per principal
  (:meth:`GroupKeyService.membership_snapshot`), which a server asks
  for on every slice to check its readable view by: the same
  drop-on-change, compare-on-every-call discipline, so an unchanged
  membership costs one set comparison and builds nothing.

Document directories — a posting names its document by a 4-byte number
(:mod:`repro.index.postings`), and the service keeps one append-only
:class:`DocumentDirectory` per group that says which doc id a number
is.  A writer mints or looks up its document's number once per document
(:meth:`GroupKeyService.document_number`, membership-checked); a reader
resolves numbers only through the decoders of its keyring, each bound to
its own group's directory, so a number can never name another group's
document.  A dump stores each directory sealed under a subkey of its
group's key (:meth:`GroupKeyService.sealed_directories` /
:meth:`~GroupKeyService.install_directories`), never in the clear.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.crypto.cipher import StreamCipher
from repro.crypto.prf import Prf, derive_key
from repro.errors import AccessDeniedError, ConfigurationError

if TYPE_CHECKING:
    from repro.index.merge import MergePlan
    from repro.index.postings import PostingElement

#: What a keyring holds per group: the group's cipher and the merge
#: plan's decoder bound to the group's directory.
Opener = tuple[StreamCipher, "Callable[[bytes], PostingElement]"]


class DocumentDirectory:
    """One group's document numbers: which doc id a posting names.

    Append-only: a doc id gets the next number, dense from 0, the first
    time it is written, and keeps it for the directory's life — written
    again, deleted, written again — so a number is never reused.
    ``names[n]`` is the doc id numbered ``n``, the very string every
    element decoded through this directory carries.  A posting holds
    the number in 4 bytes, so a directory holds at most ``2**32`` names.
    """

    __slots__ = ("names", "_numbers")

    LIMIT = 2**32

    def __init__(self, names: Iterable[str] = ()) -> None:
        self.names: list[str] = []
        self._numbers: dict[str, int] = {}
        for name in names:
            if name in self._numbers:
                raise ConfigurationError(f"doc id numbered twice: {name!r}")
            self.number(name)

    def number(self, doc_id: str) -> int:
        """*doc_id*'s number, minted on first use."""
        number = self._numbers.get(doc_id)
        if number is None:
            number = len(self.names)
            if number >= self.LIMIT:
                raise ConfigurationError("document directory is full (2**32 ids)")
            self._numbers[doc_id] = number
            self.names.append(doc_id)
        return number


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
        self._directories: dict[str, DocumentDirectory] = {}
        self._principals: dict[str, Principal] = {}
        # Hot-path object caches: building a StreamCipher (two subkey
        # derivations plus hash key schedules) or an unseen-term Prf per
        # call would dominate the skim path.  Membership is re-checked on
        # every lookup, so a hit can never outlive a revocation; entries
        # are additionally dropped on enroll/revoke (belt and braces).
        self._ciphers: dict[tuple[str, str], StreamCipher] = {}
        self._unseen_prfs: dict[tuple[str, str], Prf] = {}
        # principal -> (plan, {group: (its _ciphers entry, the plan's
        # decoder of the group's directory)}): an index over the cipher
        # cache for the read path, not a second owner.
        self._keyrings: dict[str, tuple[MergePlan, dict[str, Opener]]] = {}
        # principal -> its memberships as last handed to a server;
        # compared with the live set on every call, like the keyrings.
        self._snapshots: dict[str, frozenset[str]] = {}

    # -- groups --------------------------------------------------------------

    def create_group(self, group: str) -> None:
        """Register a group and derive its master key."""
        if group in self._groups:
            raise ConfigurationError(f"group already exists: {group!r}")
        self._groups[group] = derive_key(self._master, f"group:{group}")
        self._directories[group] = DocumentDirectory()

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
        revoked principal loses access immediately.  Sealing is
        deterministic (SIV), so the cached :class:`StreamCipher` holds
        no write state and sharing it across calls is safe; its only
        state is the skim's memo of decoded postings, which dies with the cache
        slot on enroll/revoke.
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

    def keyring(self, principal: str, plan: MergePlan) -> dict[str, Opener]:
        """Every ``(cipher, decoder)`` pair *principal* may use right
        now, by group.

        The read path's one key-service call per delivery round: the
        keys are the readable set, the ciphers are the very ones
        :meth:`cipher_for` hands out (their memos are shared with it and
        die with it) and each decoder is *plan*'s decoder of the group's
        :class:`DocumentDirectory` — the only way a reader resolves a
        document number, and only within the element's own group.  The
        cached ring is dropped on enroll/revoke and, like every lookup
        here, re-validated against the live ``Principal.groups`` (and
        *plan*) on EVERY call, so a membership change that went around
        :meth:`revoke` is seen too.  Raises what :meth:`memberships`
        raises for an unknown principal.

        The caller gets a copy: its ``get`` stays a C-speed dict lookup
        per fetched element (a read-only proxy dispatches a method call
        each time) and writing to it changes nothing here.  Use it for
        the round it was fetched for and let it go — a ring kept longer
        would outlive a revocation.
        """
        groups = self._principal(principal).groups
        cached = self._keyrings.get(principal)
        if cached is None or cached[0] is not plan or cached[1].keys() != groups:
            decoder = plan.decoder
            ring = {
                group: (
                    self._cached_cipher(principal, group),
                    decoder(self._directories[group]),
                )
                for group in groups
            }
            self._keyrings[principal] = (plan, ring)
        else:
            ring = cached[1]
        return dict(ring)

    # -- document directories ------------------------------------------------------

    def document_number(self, principal: str, group: str, doc_id: str) -> int:
        """The number *doc_id* goes by in *group*'s postings, minted on
        its first write; a writer asks once per document.  Members only,
        checked on EVERY call."""
        if not self.is_member(principal, group):
            raise AccessDeniedError(principal, group)
        return self._directories[group].number(doc_id)

    def _directory_sealer(self, group: str) -> StreamCipher:
        """The cipher a dump seals *group*'s directory with, under a
        subkey of the group key that no posting cipher derives (the key
        :meth:`create_group` would derive, for a group not created
        yet)."""
        group_key = self._groups.get(group) or derive_key(self._master, f"group:{group}")
        return StreamCipher(derive_key(group_key, "directory"))

    def sealed_directories(self) -> dict[str, bytes]:
        """Every non-empty directory, by group, sealed under its group's
        directory subkey: what a dump stores in place of the names.

        Sealing is deterministic, so one directory seals to the same
        bytes every time.  The trusted side of a save: no principal
        involved, nothing leaves in the clear.
        """
        sealed: dict[str, bytes] = {}
        for group, directory in sorted(self._directories.items()):
            if directory.names:
                sealed[group] = self._directory_sealer(group).encrypt(
                    json.dumps(directory.names).encode()
                )
        return sealed

    def install_directories(self, sealed: Mapping[str, bytes]) -> None:
        """Take in the directories a dump stored, all or nothing.

        A directory that fails its tag was sealed under another secret: it
        is left out, as its elements will fail theirs.  One that opens
        must agree with every number the service already holds for its
        group — the longer of the two is kept, and a group the service
        does not know yet is created — or nothing is installed and a
        :class:`ConfigurationError` names the group.
        """
        opened: dict[str, list[str]] = {}
        for group, blob in sealed.items():
            plaintext = self._directory_sealer(group).try_decrypt(blob)
            if plaintext is None:
                continue
            try:
                names = json.loads(plaintext)
            except ValueError:
                names = None
            if not isinstance(names, list) or not all(
                isinstance(name, str) for name in names
            ):
                raise ConfigurationError(
                    f"the document directory of group {group!r} is malformed"
                )
            directory = self._directories.get(group)
            held = directory.names if directory is not None else []
            common = min(len(held), len(names))
            if held[:common] != names[:common]:
                raise ConfigurationError(
                    f"the document directory of group {group!r} disagrees "
                    "with the numbers this key service holds"
                )
            DocumentDirectory(names)  # refuses a doc id numbered twice
            opened[group] = names[len(held):]
        for group, tail in opened.items():
            self.ensure_group(group)
            number = self._directories[group].number
            for name in tail:
                number(name)

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
