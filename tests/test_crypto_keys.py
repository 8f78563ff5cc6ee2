"""Unit tests for group key management and access control."""

import pytest

from repro.crypto.keys import DocumentDirectory, GroupKeyService
from repro.errors import AccessDeniedError, ConfigurationError, ProtocolError
from repro.index.merge import MergePlan
from repro.index.postings import PostingElement
from tests.conftest import posting_bytes

PLAN = MergePlan(groups=(("a",),), r=2.0)


@pytest.fixture()
def service():
    svc = GroupKeyService(master_secret=b"m" * 32)
    svc.create_group("g1")
    svc.create_group("g2")
    svc.register("alice", {"g1"})
    svc.register("bob", {"g1", "g2"})
    return svc


class TestGroups:
    def test_groups_listed(self, service):
        assert service.groups() == {"g1", "g2"}

    def test_duplicate_group_rejected(self, service):
        with pytest.raises(ConfigurationError):
            service.create_group("g1")

    def test_ensure_group_idempotent(self, service):
        service.ensure_group("g1")
        service.ensure_group("g3")
        assert "g3" in service.groups()

    def test_short_master_secret_rejected(self):
        with pytest.raises(ConfigurationError):
            GroupKeyService(master_secret=b"tiny")


class TestPrincipals:
    def test_membership(self, service):
        assert service.is_member("alice", "g1")
        assert not service.is_member("alice", "g2")

    def test_unknown_principal_not_member(self, service):
        assert not service.is_member("mallory", "g1")

    def test_duplicate_principal_rejected(self, service):
        with pytest.raises(ConfigurationError):
            service.register("alice")

    def test_register_creates_groups_on_demand(self, service):
        service.register("carol", {"brand-new"})
        assert service.is_member("carol", "brand-new")

    def test_enroll_and_revoke(self, service):
        service.enroll("alice", "g2")
        assert service.is_member("alice", "g2")
        service.revoke("alice", "g2")
        assert not service.is_member("alice", "g2")

    def test_enroll_unknown_principal(self, service):
        with pytest.raises(ConfigurationError):
            service.enroll("nobody", "g1")

    def test_memberships(self, service):
        assert service.memberships("bob") == {"g1", "g2"}


class TestKeyHandout:
    def test_member_gets_key(self, service):
        key = service.group_key("alice", "g1")
        assert len(key) == 32

    def test_non_member_denied(self, service):
        with pytest.raises(AccessDeniedError):
            service.group_key("alice", "g2")

    def test_same_key_for_all_members(self, service):
        assert service.group_key("alice", "g1") == service.group_key("bob", "g1")

    def test_different_groups_different_keys(self, service):
        assert service.group_key("bob", "g1") != service.group_key("bob", "g2")

    def test_deterministic_across_instances(self):
        a = GroupKeyService(master_secret=b"s" * 32)
        a.register("u", {"g"})
        b = GroupKeyService(master_secret=b"s" * 32)
        b.register("u", {"g"})
        assert a.group_key("u", "g") == b.group_key("u", "g")

    def test_cipher_for_member(self, service):
        cipher = service.cipher_for("alice", "g1")
        assert cipher.try_decrypt(cipher.encrypt(b"x")) == b"x"

    def test_cipher_for_non_member_denied(self, service):
        with pytest.raises(AccessDeniedError):
            service.cipher_for("alice", "g2")

    def test_cipher_for_is_cached(self, service):
        assert service.cipher_for("alice", "g1") is service.cipher_for(
            "alice", "g1"
        )

    def test_cipher_cache_does_not_outlive_revocation(self, service):
        service.cipher_for("bob", "g2")  # warm the cache
        service.revoke("bob", "g2")
        with pytest.raises(AccessDeniedError):
            service.cipher_for("bob", "g2")
        # Re-enrolling restores access and yields a working cipher again.
        service.enroll("bob", "g2")
        cipher = service.cipher_for("bob", "g2")
        assert cipher.try_decrypt(cipher.encrypt(b"x")) == b"x"

    def test_cached_ciphers_interoperate_across_members(self, service):
        ciphertext = service.cipher_for("alice", "g1").encrypt(b"shared")
        assert service.cipher_for("bob", "g1").try_decrypt(ciphertext) == b"shared"

    def test_a_service_rebuilt_from_the_secret_seals_the_same_bytes(self, service):
        """Sealing is deterministic per group key, so a restart changes no
        ciphertext: what the old service sealed, the new one seals too."""
        rebuilt = GroupKeyService(master_secret=b"m" * 32)
        rebuilt.register("carol", {"g1"})
        sealed = service.cipher_for("alice", "g1").encrypt(b"posting")
        assert rebuilt.cipher_for("carol", "g1").encrypt(b"posting") == sealed

    def test_one_groups_cipher_refuses_anothers_elements(self, service):
        sealed = service.cipher_for("bob", "g2").encrypt(b"posting")
        assert service.cipher_for("bob", "g1").try_decrypt(sealed) is None
        assert sealed != service.cipher_for("bob", "g1").encrypt(b"posting")

    def test_unseen_term_prf_is_cached(self, service):
        assert service.unseen_term_prf("alice", "g1") is service.unseen_term_prf(
            "alice", "g1"
        )

    def test_unseen_term_prf_cache_does_not_outlive_revocation(self, service):
        service.unseen_term_prf("bob", "g2")
        service.revoke("bob", "g2")
        with pytest.raises(AccessDeniedError):
            service.unseen_term_prf("bob", "g2")

    def test_unseen_term_prf_shared_within_group(self, service):
        prf_a = service.unseen_term_prf("alice", "g1")
        prf_b = service.unseen_term_prf("bob", "g1")
        assert prf_a.evaluate_unit(b"term") == prf_b.evaluate_unit(b"term")

    def test_unseen_term_prf_group_separated(self, service):
        prf_1 = service.unseen_term_prf("bob", "g1")
        prf_2 = service.unseen_term_prf("bob", "g2")
        assert prf_1.evaluate_unit(b"term") != prf_2.evaluate_unit(b"term")


class TestKeyring:
    """The read path's one lookup: group -> (cipher, decoder) for
    everything the principal may open right now, owned and cached by the
    key service."""

    def test_keys_are_the_memberships_and_values_the_cipher_for_ciphers(self, service):
        ring = service.keyring("bob", PLAN)
        assert ring.keys() == service.memberships("bob") == {"g1", "g2"}
        assert all(ring[g][0] is service.cipher_for("bob", g) for g in ring)
        for group in ring:
            number = service.document_number("bob", group, f"{group}-doc")
            data = posting_bytes(PostingElement("a", "x", 1, 2), 0, number)
            assert ring[group][1](data) == PostingElement("a", f"{group}-doc", 1, 2)
        assert service.keyring("alice", PLAN).keys() == {"g1"}

    def test_unknown_principal_raises_what_memberships_raises(self, service):
        with pytest.raises(ConfigurationError) as from_memberships:
            service.memberships("mallory")
        with pytest.raises(ConfigurationError) as from_keyring:
            service.keyring("mallory", PLAN)
        assert str(from_keyring.value) == str(from_memberships.value)

    def test_handed_out_mapping_is_a_copy(self, service):
        """A copy, not a read-only view: the skim's per-element ``get``
        stays a plain dict lookup, and writing to it changes nothing."""
        ring = service.keyring("bob", PLAN)
        genuine = ring["g2"]
        ring["g2"] = ring["g1"]  # swap a cipher
        ring["g9"] = genuine  # grant a group
        del ring["g1"]  # drop one
        again = service.keyring("bob", PLAN)
        assert again is not ring and again.keys() == {"g1", "g2"}
        assert again["g2"] == genuine
        assert not service.is_member("bob", "g9")

    def test_revoke_drops_the_group_and_reenroll_starts_cold(self, service):
        stale, decode = service.keyring("bob", PLAN)["g2"]
        number = service.document_number("bob", "g2", "d")
        ciphertext = stale.encrypt(posting_bytes(PostingElement("a", "d", 1, 2), 0, number))
        first = stale.skim(ciphertext, 0, PLAN.term_field, decode)
        assert first.doc_id == "d"
        assert stale.skim(ciphertext, 0, PLAN.term_field, decode) is first
        assert stale.memo_hits == 1
        service.revoke("bob", "g2")
        assert service.keyring("bob", PLAN).keys() == {"g1"}
        service.enroll("bob", "g2")
        fresh = service.keyring("bob", PLAN)["g2"][0]
        assert fresh is not stale and fresh.memo_hits == 0 and not fresh._memo
        assert fresh is service.cipher_for("bob", "g2")

    def test_membership_change_that_bypassed_revoke_is_seen(self, service):
        """``ring.keys() == principal.groups`` on every call, not only
        after an ``_invalidate``."""
        bob = service._principal("bob")
        assert service.keyring("bob", PLAN).keys() == {"g1", "g2"}
        bob.groups.discard("g2")
        assert service.keyring("bob", PLAN).keys() == {"g1"}
        bob.groups.add("g2")
        assert service.keyring("bob", PLAN).keys() == {"g1", "g2"}

    def test_ring_is_cached_between_membership_changes(self, service):
        built = []
        original = service._cached_cipher

        def counting(principal, group):
            built.append((principal, group))
            return original(principal, group)

        service._cached_cipher = counting
        for _ in range(3):
            service.keyring("bob", PLAN)
        assert sorted(built) == [("bob", "g1"), ("bob", "g2")]
        service.enroll("bob", "g3")
        service.keyring("bob", PLAN)
        assert len(built) == 5  # one rebuild over the three groups
        other = MergePlan(groups=(("b",), ("a",)), r=2.0)
        number = service.document_number("bob", "g1", "doc")
        data = posting_bytes(PostingElement("b", "doc", 1, 2), 0, number)
        assert service.keyring("bob", other)["g1"][1](data).term == "b"
        assert len(built) == 8  # a ring serves the plan it was built for
        assert service.keyring("bob", PLAN)["g1"][1](data).term == "a"


def _sealed(service, names, group="g1", writer="alice"):
    for name in names:
        service.document_number(writer, group, name)
    return service.sealed_directories()


class TestDocumentDirectory:
    """A posting names its document by a number per group: minted by a
    member's first write, resolved only through that group's decoder."""

    def test_numbers_are_dense_per_group_and_kept_on_rewrite(self, service):
        assert [service.document_number("alice", "g1", d) for d in "xyx"] == [0, 1, 0]
        assert service.document_number("bob", "g2", "y") == 0  # per group
        assert service.document_number("bob", "g1", "z") == 2  # any member
        assert service._directories["g1"].names == ["x", "y", "z"]

    def test_minting_is_membership_checked(self, service):
        with pytest.raises(AccessDeniedError):
            service.document_number("alice", "g2", "x")
        service.document_number("bob", "g2", "x")
        service.revoke("bob", "g2")
        with pytest.raises(AccessDeniedError):
            service.document_number("bob", "g2", "x")  # a lookup, too

    def test_a_directory_refuses_a_doc_id_numbered_twice(self):
        with pytest.raises(ConfigurationError):
            DocumentDirectory(["a", "b", "a"])

    def test_a_revoke_takes_the_names_with_the_keys(self, service):
        """The only way a reader resolves a number is its keyring's
        decoder, and a revoke removes the group's pair at once."""
        number = service.document_number("bob", "g2", "secret-doc")
        plaintext = posting_bytes(PostingElement("a", "secret-doc", 1, 2), 0, number)
        cipher, decode = service.keyring("bob", PLAN)["g2"]
        assert decode(cipher.try_decrypt(cipher.encrypt(plaintext))).doc_id == "secret-doc"
        service.revoke("bob", "g2")
        assert "g2" not in service.keyring("bob", PLAN)

    def test_a_number_resolves_only_in_its_own_group(self, service):
        """A member of g1 who forges a g1 element carrying a number of a
        g2 document gets a g1 name or a ProtocolError — never g2's id."""
        service.document_number("bob", "g2", "g2-only-a")
        forged_number = service.document_number("bob", "g2", "g2-only-b")
        service.document_number("alice", "g1", "g1-doc")
        cipher, decode = service.keyring("alice", PLAN)["g1"]
        forged = cipher.encrypt(posting_bytes(PostingElement("a", "x", 1, 2), 0, forged_number))
        with pytest.raises(ProtocolError):
            decode(cipher.try_decrypt(forged))
        in_range = cipher.encrypt(posting_bytes(PostingElement("a", "x", 1, 2), 0, 0))
        assert decode(cipher.try_decrypt(in_range)).doc_id == "g1-doc"


class TestSealedDirectories:
    def test_round_trip_into_a_service_rebuilt_from_the_secret(self, service):
        sealed = _sealed(service, ["a.txt", "dir/ü.txt"])
        assert set(sealed) == {"g1"}  # an empty directory is not stored
        assert b"a.txt" not in sealed["g1"] and "ü".encode() not in sealed["g1"]
        rebuilt = GroupKeyService(master_secret=b"m" * 32)
        rebuilt.install_directories(sealed)
        assert rebuilt._directories["g1"].names == ["a.txt", "dir/ü.txt"]
        assert service.sealed_directories() == sealed  # deterministic

    def test_a_directory_sealed_under_another_secret_is_left_out(self, service):
        sealed = _sealed(service, ["a"])
        other = GroupKeyService(master_secret=b"o" * 32)
        other.install_directories(sealed)
        assert "g1" not in other.groups()
        other.create_group("g1")
        other.install_directories(sealed)
        assert other._directories["g1"].names == []

    def test_agreeing_directories_keep_the_longer(self, service):
        sealed = _sealed(service, ["a", "b"])
        rebuilt = GroupKeyService(master_secret=b"m" * 32)
        rebuilt.register("w", {"g1"})
        rebuilt.document_number("w", "g1", "a")
        rebuilt.install_directories(sealed)
        assert rebuilt._directories["g1"].names == ["a", "b"]
        _sealed(rebuilt, ["c"], writer="w")
        rebuilt.install_directories(sealed)  # a shorter prefix changes nothing
        assert rebuilt._directories["g1"].names == ["a", "b", "c"]

    def test_a_disagreeing_directory_is_refused_and_nothing_installed(self, service):
        sealed = _sealed(service, ["a", "b"])
        sealed.update(_sealed(service, ["c"], group="g2", writer="bob"))
        rebuilt = GroupKeyService(master_secret=b"m" * 32)
        rebuilt.register("w", {"g1"})
        rebuilt.document_number("w", "g1", "b")  # number 0 names another doc
        with pytest.raises(ConfigurationError, match="g1"):
            rebuilt.install_directories(sealed)
        assert rebuilt._directories["g1"].names == ["b"]
        assert "g2" not in rebuilt.groups()
