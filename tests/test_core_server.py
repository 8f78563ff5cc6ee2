"""Unit tests for the untrusted Zerber+R index server."""

import pytest

from repro.core.protocol import BatchFetchRequest, FetchRequest, Receipt
from repro.core.replication import ReplicationOp
from repro.core.cluster import ServerCluster, validate_write_batch
from repro.core.server import ZerberRServer
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    ProtocolError,
    UnknownListError,
)
from repro.index.postings import STORED_ELEMENT_BITS, EncryptedPostingElement
from repro.persist.clusterstate import (
    replication_op_from_dict,
    replication_op_to_dict,
)
from tests.conftest import sealed, slices_batch


@pytest.fixture()
def keys():
    svc = GroupKeyService(master_secret=b"s" * 32)
    svc.register("alice", {"g1"})
    svc.register("bob", {"g2"})
    svc.register("root", {"g1", "g2"})
    return svc


@pytest.fixture()
def server(keys):
    return ZerberRServer(keys, num_lists=3)


def _element(group, trs, label=b"cipher"):
    return EncryptedPostingElement(ciphertext=sealed(label), group=group, trs=trs)


def _insert(server, list_id, element):
    """A shard takes what the cluster's gate passed, one batch at a time."""
    server.insert_many([(list_id, element)])


@pytest.fixture()
def cluster(keys):
    """The one-server cluster a system builds: its gate fronts the shard."""
    return ServerCluster(keys, num_lists=3, num_servers=1)


class TestInsert:
    def test_member_insert_accepted(self, cluster):
        cluster.insert("alice", 0, _element("g1", 0.5))
        assert cluster.list_length(0) == 1

    def test_non_member_insert_denied(self, cluster):
        with pytest.raises(AccessDeniedError):
            cluster.insert("alice", 0, _element("g2", 0.5))
        assert cluster.num_elements == 0

    def test_unknown_list(self, cluster):
        with pytest.raises(UnknownListError):
            cluster.insert("alice", 99, _element("g1", 0.5))

    def test_insert_keeps_trs_order(self, server):
        for trs in [0.2, 0.9, 0.5]:
            _insert(server, 0, _element("g1", trs))
        assert server.visible_trs_values(0) == [0.9, 0.5, 0.2]

    def test_num_elements(self, server):
        _insert(server, 0, _element("g1", 0.1))
        _insert(server, 1, _element("g2", 0.2))
        assert server.num_elements == 2

    @pytest.mark.parametrize(
        "refused, error",
        [
            ((1, _element("g2", 0.5)), AccessDeniedError),
            ((7, _element("g1", 0.5)), UnknownListError),
        ],
        ids=["foreign-group", "unknown-list"],
    )
    def test_a_refused_batch_insert_leaves_every_list_as_it_was(
        self, keys, refused, error
    ):
        cluster = ServerCluster(keys, num_lists=2, num_servers=1)
        cluster.insert("alice", 0, _element("g1", 0.7))
        request = FetchRequest(principal="alice", list_id=0, offset=0, count=5)
        served = cluster.fetch(request).elements  # caches alice's view of list 0
        with pytest.raises(error):
            cluster.insert_many("alice", [(0, _element("g1", 0.9)), refused])
        assert [cluster.list_length(i) for i in range(2)] == [1, 0]
        assert [cluster.primary_version(i) for i in range(2)] == [1, 0]
        assert cluster.fetch(request).elements == served
        assert cluster.view_stats().incremental_updates == 0


class _CountingKeys:
    """A key service stand-in that counts the membership questions."""

    def __init__(self, keys):
        self._keys = keys
        self.asked = []

    def is_member(self, principal, group):
        self.asked.append((principal, group))
        return self._keys.is_member(principal, group)


class TestWriteBatchGate:
    """``validate_write_batch`` is the one all-or-nothing gate of a batched
    insert, run once per batch by the cluster in front of the shards: the
    first offending element decides the refusal, nothing is mutated, and no
    question is put twice within a call."""

    def test_membership_once_per_group_and_list_id_once_per_id(self, keys):
        counting = _CountingKeys(keys)
        checked = []
        items = [
            (list_id, _element(group, 0.5))
            for list_id, group in [(0, "g1"), (2, "g2"), (0, "g2"), (2, "g1"), (1, "g1")]
        ]
        assert validate_write_batch(counting, "root", iter(items), checked.append) == items
        assert counting.asked == [("root", "g1"), ("root", "g2")]
        assert checked == [0, 2, 1]

    @pytest.mark.parametrize(
        "offending, error",
        [
            # Per element: membership, then list id.
            ([(7, _element("g2", 0.5))], AccessDeniedError),
            ([(7, _element("g1", 0.5))], UnknownListError),
            # Across elements: the first offender in batch order.
            ([(7, _element("g1", 0.5)), (0, _element("g2", 0.5))], UnknownListError),
            ([(0, _element("g2", 0.5)), (7, _element("g1", 0.5))], AccessDeniedError),
        ],
    )
    def test_first_offender_refuses_the_batch_and_nothing_is_mutated(
        self, keys, offending, error
    ):
        batch = [(0, _element("g1", 0.9)), (1, _element("g1", 0.8))] + offending
        cluster = ServerCluster(keys, num_lists=3, num_servers=3, replication=2)
        with pytest.raises(error):
            cluster.insert_many("alice", batch)
        assert cluster.num_elements == 0
        assert cluster.replication_stats.ops_logged == 0
        assert [cluster.primary_version(i) for i in range(3)] == [0, 0, 0]

    def test_each_question_is_put_once_per_batch(self, keys, monkeypatch):
        """The gate runs once, in the cluster, however many primaries the
        batch spans: a shard asks nothing of what it is handed."""
        asked = []
        is_member = GroupKeyService.is_member
        monkeypatch.setattr(
            GroupKeyService,
            "is_member",
            lambda service, principal, group: asked.append(group)
            or is_member(service, principal, group),
        )
        cluster = ServerCluster(keys, num_lists=3, num_servers=3, replication=2)
        batch = [(i, _element("g1", 0.1 * (i + 1))) for i in range(3)]
        assert cluster.insert_many("alice", batch) == 3
        assert len({cluster.replicas_of(i)[0] for i in range(3)}) == 3
        assert asked == ["g1"]


class TestDeleteBatchGate:
    """``locate_receipts`` is the delete side's gate, run at each primary
    before any delete op is recorded: each distinct group of a batch is
    put to the key service once, and a receipt of a group the principal
    is not in refuses the whole batch wherever it sits in it."""

    def test_a_foreign_receipt_last_in_the_batch_refuses_all_of_it(
        self, keys, monkeypatch
    ):
        cluster = ServerCluster(keys, num_lists=3, num_servers=1)
        items = [
            (list_id, _element("g1", 0.1 * (j + 1), b"r%d%d" % (list_id, j)))
            for list_id in range(3)
            for j in range(2)
        ] + [(2, _element("g2", 0.05, b"theirs"))]
        cluster.insert_many("root", items)
        receipts = [Receipt(l, e.ciphertext, e.trs) for l, e in items]
        asked = []
        is_member = GroupKeyService.is_member
        monkeypatch.setattr(
            GroupKeyService,
            "is_member",
            lambda service, principal, group: asked.append(group)
            or is_member(service, principal, group),
        )
        assert cluster.server(0).locate_receipts("root", receipts) == items
        assert asked == ["g1", "g2"]
        del asked[:]
        lists = [cluster.server(0).export_list(l) for l in range(3)]
        versions = [cluster.primary_version(l) for l in range(3)]
        logged = cluster.replication_stats.ops_logged
        with pytest.raises(AccessDeniedError):
            cluster.delete_many("alice", receipts)
        assert asked == ["g1", "g2"]
        assert [cluster.server(0).export_list(l) for l in range(3)] == lists
        assert [cluster.primary_version(l) for l in range(3)] == versions
        assert cluster.replication_stats.ops_logged == logged


class TestFetch:
    def _populate(self, server):
        for i, trs in enumerate([0.9, 0.8, 0.7, 0.6, 0.5]):
            group = "g1" if i % 2 == 0 else "g2"
            _insert(server, 0, _element(group, trs))

    def test_slice_and_exhaustion(self, server):
        self._populate(server)
        response = server.fetch(
            FetchRequest(principal="root", list_id=0, offset=0, count=3), 0
        )
        assert [e.trs for e in response.elements] == [0.9, 0.8, 0.7]
        assert not response.exhausted
        response2 = server.fetch(
            FetchRequest(principal="root", list_id=0, offset=3, count=3), 0
        )
        assert [e.trs for e in response2.elements] == [0.6, 0.5]
        assert response2.exhausted

    def test_access_control_filters_elements(self, server):
        self._populate(server)
        response = server.fetch(
            FetchRequest(principal="alice", list_id=0, offset=0, count=10), 0
        )
        assert [e.trs for e in response.elements] == [0.9, 0.7, 0.5]
        assert all(e.group == "g1" for e in response.elements)

    def test_a_batch_serves_each_slice_under_its_own_principal(self, server):
        """A coordinator envelope holds many principals' slices: each is
        answered from its own principal's readable view, in one call."""
        self._populate(server)
        alice, bob = FetchRequest("alice", 0, 0, 10), FetchRequest("bob", 0, 0, 10)
        server.clear_observations()
        mixed = server.batch_fetch(BatchFetchRequest((alice, bob)), [0, 0])
        trs = [[e.trs for e in r.elements] for r in mixed]
        assert trs == [[0.9, 0.7, 0.5], [0.8, 0.6]]
        singles = [server.fetch(alice, 0).elements, server.fetch(bob, 0).elements]
        assert [r.elements for r in mixed] == singles
        first, second = server.observations[:2]
        assert (first.principal, second.principal) == ("alice", "bob")
        assert first.batch_id == second.batch_id is not None

    def test_offsets_count_within_readable_view(self, server):
        self._populate(server)
        response = server.fetch(
            FetchRequest(principal="alice", list_id=0, offset=1, count=1), 0
        )
        assert [e.trs for e in response.elements] == [0.7]

    def test_cache_invalidated_on_insert(self, server):
        self._populate(server)
        server.fetch(FetchRequest(principal="alice", list_id=0, offset=0, count=1), 0)
        _insert(server, 0, _element("g1", 0.95))
        response = server.fetch(
            FetchRequest(principal="alice", list_id=0, offset=0, count=1), 0
        )
        assert response.elements[0].trs == 0.95

    def test_unknown_list(self, server):
        with pytest.raises(UnknownListError):
            server.fetch(FetchRequest(principal="root", list_id=9, offset=0, count=1), 0)

    def test_observations_recorded(self, server):
        self._populate(server)
        server.fetch(FetchRequest(principal="root", list_id=0, offset=0, count=2), 0)
        assert len(server.observations) == 1
        obs = server.observations[0]
        assert (obs.principal, obs.list_id, obs.offset, obs.count, obs.returned) == (
            "root",
            0,
            0,
            2,
            2,
        )

    def test_clear_observations(self, server):
        self._populate(server)
        server.fetch(FetchRequest(principal="root", list_id=0, offset=0, count=1), 0)
        server.clear_observations()
        assert server.observations == []

    def test_observation_log_is_bounded(self, server, monkeypatch):
        """The log keeps the newest N..2N fetches, oldest trimmed first."""
        capacity = 16
        monkeypatch.setattr(
            "repro.core.server.OBSERVATION_LOG_CAPACITY", capacity
        )
        self._populate(server)
        log = server.observations
        for i in range(3 * capacity):
            server.fetch(
                FetchRequest(principal="root", list_id=0, offset=i, count=1), 0
            )
            assert len(server.observations) < 2 * capacity
        assert server.observations is log  # trimmed in place, still the list
        kept = [obs.offset for obs in server.observations]
        assert len(kept) >= capacity
        assert kept == list(range(3 * capacity - len(kept), 3 * capacity))


class TestBatchFetch:
    def _populate(self, server):
        for i, trs in enumerate([0.9, 0.8, 0.7, 0.6, 0.5]):
            group = "g1" if i % 2 == 0 else "g2"
            _insert(server, i % 2, _element(group, trs, b"c%d" % i))

    def test_batch_matches_singleton_fetches(self, server):
        self._populate(server)
        batch = slices_batch("root", [(0, 0, 2), (1, 0, 2), (0, 2, 2)])
        batched = server.batch_fetch(batch, [0] * len(batch))
        assert len(batched) == 3
        for request, response in zip(batch.requests, batched.responses):
            single = server.fetch(request, 0)
            assert single.elements == response.elements
            assert single.exhausted == response.exhausted

    def test_batch_slices_share_batch_id(self, server):
        self._populate(server)
        server.clear_observations()
        server.batch_fetch(
            slices_batch("root", [(0, 0, 1), (1, 0, 1)]), [0, 0]
        )
        server.batch_fetch(slices_batch("root", [(0, 1, 1)]), [0])
        ids = [obs.batch_id for obs in server.observations]
        assert len(ids) == 3
        assert ids[0] == ids[1] is not None
        assert ids[2] not in (None, ids[0])

    def test_singleton_fetch_has_no_batch_id(self, server):
        self._populate(server)
        server.fetch(FetchRequest(principal="root", list_id=0, offset=0, count=1), 0)
        assert server.observations[-1].batch_id is None

    def test_batch_access_control_per_slice(self, server):
        self._populate(server)
        batched = server.batch_fetch(
            slices_batch("alice", [(0, 0, 10), (1, 0, 10)]), [0, 0]
        )
        for response in batched:
            assert all(e.group == "g1" for e in response.elements)

    def test_batch_unknown_list(self, server):
        with pytest.raises(UnknownListError):
            server.batch_fetch(slices_batch("root", [(9, 0, 1)]), [0])


class TestReadableViews:
    def _populate(self, server):
        for i, trs in enumerate([0.9, 0.8, 0.7, 0.6, 0.5]):
            group = "g1" if i % 2 == 0 else "g2"
            _insert(server, 0, _element(group, trs, b"c%d" % i))

    def _fetch(self, server, principal, count=10):
        return server.fetch(
            FetchRequest(principal=principal, list_id=0, offset=0, count=count), 0
        )

    def test_insert_patches_view_without_rebuild(self, server):
        self._populate(server)
        self._fetch(server, "alice")  # warm the view
        builds = server.view_stats.full_builds
        for i in range(20):
            _insert(server, 0, _element("g1", (i % 10) / 10.0, b"new%d" % i))
            response = self._fetch(server, "alice", count=30)
            trs = [e.trs for e in response.elements]
            assert trs == sorted(trs, reverse=True)
        assert server.view_stats.full_builds == builds
        assert server.view_stats.incremental_updates >= 20

    def test_delete_patches_view_without_rebuild(self, server):
        self._populate(server)
        self._fetch(server, "alice")
        builds = server.view_stats.full_builds
        assert server.delete_element("alice", Receipt(0, sealed(b"c2"), 0.7))
        response = self._fetch(server, "alice")
        assert [e.trs for e in response.elements] == [0.9, 0.5]
        assert server.view_stats.full_builds == builds

    def test_unreadable_mutation_keeps_view_fresh(self, server):
        # A g2 insert must not invalidate alice's (g1-only) cached view.
        self._populate(server)
        self._fetch(server, "alice")
        builds = server.view_stats.full_builds
        _insert(server, 0, _element("g2", 0.99, b"bob-new"))
        response = self._fetch(server, "alice")
        assert all(e.group == "g1" for e in response.elements)
        assert server.view_stats.full_builds == builds

    def test_lru_eviction_bounds_cached_views(self, keys):
        server = ZerberRServer(keys, num_lists=1)
        server._views.capacity = 2  # the index's bound; 256 needs 257 principals
        _insert(server, 0, _element("g1", 0.5, b"a"))
        for principal in ["alice", "bob", "root"]:
            server.fetch(
                FetchRequest(principal=principal, list_id=0, offset=0, count=1), 0
            )
        assert len(server._views) == 2
        assert server.view_stats.evictions == 1
        # The evicted (oldest) principal rebuilds on its next fetch.
        builds = server.view_stats.full_builds
        server.fetch(FetchRequest(principal="alice", list_id=0, offset=0, count=1), 0)
        assert server.view_stats.full_builds == builds + 1

    def test_revocation_invalidates_cached_view(self, keys, server):
        # A cached view must not outlive a revocation: the next fetch
        # rebuilds under the new memberships and withholds g1 elements.
        self._populate(server)
        assert len(self._fetch(server, "alice").elements) == 3
        keys.revoke("alice", "g1")
        response = self._fetch(server, "alice")
        assert response.elements == ()
        assert server.view_stats.stale_rebuilds >= 1
        # Re-enrollment restores visibility on the very next fetch too.
        keys.enroll("alice", "g1")
        assert len(self._fetch(server, "alice").elements) == 3

    def test_a_view_hit_builds_no_membership_set(self, keys, server, monkeypatch):
        """Freshness is re-validated per slice by comparing, not by
        copying: every hit is answered the snapshot the view holds."""
        self._populate(server)
        self._fetch(server, "root")  # build
        probe, answers = GroupKeyService.membership_snapshot, []

        def recording(service, name):
            answers.append(probe(service, name))
            return answers[-1]

        monkeypatch.setattr(GroupKeyService, "membership_snapshot", recording)
        hits = server.view_stats.hits
        for offset in range(4):
            server.fetch(FetchRequest("root", 0, offset, 2), 0)
        assert server.view_stats.hits == hits + 4 and len(answers) == 4
        (view,) = server._views._views.values()
        assert all(answer is view.memberships for answer in answers)
        assert view.memberships == {"g1", "g2"}

    def test_membership_changed_around_the_service_is_seen_by_the_next_slice(
        self, keys, server
    ):
        """``Principal.groups`` edited directly — no ``revoke()`` /
        ``enroll()`` to drop a cache — must cost exactly one rebuild and
        take effect on the very next slice."""
        self._populate(server)
        assert {e.group for e in self._fetch(server, "root").elements} == {"g1", "g2"}
        groups = keys._principal("root").groups
        for lost, kept in (("g1", "g2"), ("g2", None)):
            rebuilds = server.view_stats.stale_rebuilds
            groups.discard(lost)
            response = self._fetch(server, "root")
            assert {e.group for e in response.elements} == ({kept} if kept else set())
            assert server.view_stats.stale_rebuilds == rebuilds + 1
            self._fetch(server, "root")
            assert server.view_stats.stale_rebuilds == rebuilds + 1  # a hit again
        rebuilds = server.view_stats.stale_rebuilds
        groups.add("g1")
        response = self._fetch(server, "root")
        assert [e.ciphertext for e in response.elements] == [
            sealed(b"c0"),
            sealed(b"c2"),
            sealed(b"c4"),
        ]
        assert server.view_stats.stale_rebuilds == rebuilds + 1

    def test_revoke_and_reenroll_keep_serving_the_cached_view(self, keys, server):
        # The membership is the same set again: the view is still right,
        # and it takes the service's new snapshot object on its next hit.
        self._populate(server)
        self._fetch(server, "alice")
        keys.revoke("alice", "g1")
        keys.enroll("alice", "g1")
        builds = server.view_stats.full_builds
        for _ in range(2):
            assert len(self._fetch(server, "alice").elements) == 3
        assert server.view_stats.full_builds == builds
        view = server._views._views[(0, "alice")]
        assert view.memberships is keys.membership_snapshot("alice")

    def test_unknown_principal_is_served_an_empty_exhausted_slice(self, server):
        self._populate(server)
        for _ in range(2):
            response = self._fetch(server, "mallory")
            assert response.elements == () and response.exhausted

    def test_external_mutation_falls_back_to_rebuild(self, server):
        # Direct list edits (no server notification) bump the version, so
        # the stale view is rebuilt, never served.
        self._populate(server)
        self._fetch(server, "alice")
        merged = server._lists[0]
        merged.elements.clear()
        del merged._neg_trs_keys[:]
        merged.version += 1
        response = self._fetch(server, "alice")
        assert response.elements == ()
        assert response.exhausted


class TestReplicatedDelete:
    """The follower side of a delete op: addressed by TRS, decided by ciphertext."""

    def _tied(self, server):
        for trs, payload in [
            (0.9, b"top"),
            (0.5, b"tie-a"),
            (0.5, b"tie-b"),
            (0.5, b"tie-c"),
            (0.1, b"low"),
        ]:
            server.apply_replicated_insert(0, _element("g1", trs, payload))
        return server

    def _labels(self, server):
        return [e.ciphertext.rstrip(b".") for e in server.export_list(0)]

    def test_delete_returns_the_removed_element(self, server):
        self._tied(server)
        receipt = Receipt(0, sealed(b"tie-b"), 0.5)
        removed = server.delete_element("alice", receipt)
        assert (removed.ciphertext, removed.trs) == (sealed(b"tie-b"), 0.5)
        assert server.delete_element("alice", receipt) is None

    def test_only_the_matching_element_of_a_tie_run_goes(self, server):
        self._tied(server)
        alice = FetchRequest(principal="alice", list_id=0, offset=0, count=10)
        server.fetch(alice, 0)  # a cached view the delete must patch
        assert server.apply_replicated_delete(0, _element("g1", 0.5, b"tie-b"))
        assert self._labels(server) == [b"top", b"tie-a", b"tie-c", b"low"]
        assert [e.ciphertext for e in server.fetch(alice, 0).elements] == (
            [e.ciphertext for e in server.export_list(0)]
        )
        assert server._lists[0].keys_in_sync()

    @pytest.mark.parametrize(
        "element",
        [_element("g1", 0.5, b"imported-past"), _element("g1", 0.9, b"tie-c")],
        ids=["absent", "other-trs"],
    )
    def test_a_miss_is_tolerated_and_changes_nothing(self, server, element):
        """An element absent from the run of its TRS is a miss, also when
        its ciphertext is stored under another TRS."""
        self._tied(server)
        version = server._lists[0].version
        assert not server.apply_replicated_delete(0, element)
        assert server._lists[0].version == version
        assert len(self._labels(server)) == 5

    def test_a_delete_op_round_trips_through_the_element_codec(self, server):
        op = ReplicationOp(6, "delete", _element("g1", 0.5, b"tie-c"))
        entry = replication_op_to_dict(op)
        assert set(entry) == {"s", "k", "e"}
        assert replication_op_from_dict(entry, "dump") == op
        self._tied(server)
        assert server.apply_replicated_ops([(0, [op])]) == 1
        assert b"tie-c" not in self._labels(server)
        # The v8 shape, a bare ciphertext and its TRS, has no element.
        v8 = {"s": 6, "k": "delete", "c": entry["e"]["c"], "t": 0.5}
        with pytest.raises(ConfigurationError, match="no element payload"):
            replication_op_from_dict(v8, "dump")


class TestAdversaryView:
    def test_visible_group_tags(self, server):
        _insert(server, 1, _element("g1", 0.4))
        assert server.visible_group_tags(1) == ["g1"]

    def test_storage_accounting(self, server):
        _insert(server, 0, _element("g1", 0.4))
        _insert(server, 1, _element("g2", 0.6))
        assert server.storage_bits() == 2 * STORED_ELEMENT_BITS

    def test_invalid_num_lists(self, keys):
        with pytest.raises(ProtocolError):
            ZerberRServer(keys, num_lists=0)
