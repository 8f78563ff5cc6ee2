"""Unit tests for the sharded multi-server deployment."""

import pytest

from repro.core.cluster import ServerCluster
from repro.core.protocol import BatchFetchRequest, FetchRequest
from repro.core.server import ZerberRServer
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    ConfigurationError,
    CryptoError,
    ProtocolError,
    UnavailableError,
    UnknownListError,
)
from repro.index.postings import EncryptedPostingElement


@pytest.fixture()
def keys():
    svc = GroupKeyService(master_secret=b"c" * 32)
    svc.register("u", {"g"})
    return svc


def _element(trs, payload=b"cipher"):
    return EncryptedPostingElement(ciphertext=payload, group="g", trs=trs)


class TestTopology:
    def test_validation(self, keys):
        with pytest.raises(ConfigurationError):
            ServerCluster(keys, num_lists=4, num_servers=0)
        with pytest.raises(ConfigurationError):
            ServerCluster(keys, num_lists=4, num_servers=2, replication=3)
        with pytest.raises(ProtocolError):
            ServerCluster(keys, num_lists=0, num_servers=1)

    def test_replicas_distinct(self, keys):
        cluster = ServerCluster(keys, num_lists=10, num_servers=4, replication=2)
        for list_id in range(10):
            replicas = cluster.replicas_of(list_id)
            assert len(set(replicas)) == 2

    def test_round_robin_primary(self, keys):
        cluster = ServerCluster(keys, num_lists=8, num_servers=4)
        assert cluster.replicas_of(0)[0] == 0
        assert cluster.replicas_of(5)[0] == 1

    def test_unknown_list(self, keys):
        cluster = ServerCluster(keys, num_lists=4, num_servers=2)
        with pytest.raises(UnknownListError):
            cluster.replicas_of(99)


class TestDataPlane:
    def test_insert_replicated(self, keys):
        cluster = ServerCluster(keys, num_lists=4, num_servers=3, replication=2)
        cluster.insert("u", 1, _element(0.5))
        holders = [
            i for i in range(3) if cluster.server(i).num_elements == 1
        ]
        assert len(holders) == 2

    def test_logical_element_count_deduplicates(self, keys):
        cluster = ServerCluster(keys, num_lists=4, num_servers=2, replication=2)
        cluster.insert("u", 0, _element(0.5))
        cluster.insert("u", 1, _element(0.6, b"other"))
        assert cluster.num_elements == 2

    def test_bulk_load_and_fetch(self, keys):
        cluster = ServerCluster(keys, num_lists=3, num_servers=2)
        items = [(0, _element(t, str(t).encode())) for t in (0.2, 0.9, 0.5)]
        assert cluster.bulk_load("u", items) == 3
        response = cluster.fetch(
            FetchRequest(principal="u", list_id=0, offset=0, count=3)
        )
        assert [e.trs for e in response.elements] == [0.9, 0.5, 0.2]

    def test_failover_to_replica(self, keys):
        cluster = ServerCluster(keys, num_lists=2, num_servers=2, replication=2)
        cluster.insert("u", 0, _element(0.7))
        primary = cluster.replicas_of(0)[0]
        cluster.fail_server(primary)
        response = cluster.fetch(
            FetchRequest(principal="u", list_id=0, offset=0, count=1)
        )
        assert response.elements[0].trs == 0.7

    def test_all_replicas_down(self, keys):
        cluster = ServerCluster(keys, num_lists=2, num_servers=2, replication=1)
        cluster.insert("u", 0, _element(0.7))
        cluster.fail_server(cluster.replicas_of(0)[0])
        with pytest.raises(ProtocolError):
            cluster.fetch(FetchRequest(principal="u", list_id=0, offset=0, count=1))
        cluster.restore_server(cluster.replicas_of(0)[0])
        assert cluster.fetch(
            FetchRequest(principal="u", list_id=0, offset=0, count=1)
        ).elements

    def test_all_replicas_down_names_the_list(self, keys):
        cluster = ServerCluster(keys, num_lists=3, num_servers=2, replication=2)
        cluster.insert("u", 1, _element(0.7))
        for server_index in cluster.replicas_of(1):
            cluster.fail_server(server_index)
        with pytest.raises(UnavailableError) as excinfo:
            cluster.fetch(FetchRequest(principal="u", list_id=1, offset=0, count=1))
        assert excinfo.value.list_id == 1
        assert excinfo.value.num_replicas == 2
        assert "list 1" in str(excinfo.value)
        # UnavailableError specialises the old undifferentiated failure, so
        # legacy ProtocolError handlers keep working.
        assert isinstance(excinfo.value, ProtocolError)

    def test_insert_many_batches_per_server(self, keys, monkeypatch):
        """Replicated multi-insert costs one call per touched primary."""
        cluster = ServerCluster(keys, num_lists=4, num_servers=3, replication=2)
        calls = []
        replicated = []
        original = ZerberRServer.insert_many
        original_apply = ZerberRServer.apply_replicated_insert

        def counting_insert_many(self, principal, items):
            items = list(items)
            calls.append(len(items))
            return original(self, principal, items)

        def counting_apply(self, list_id, element):
            replicated.append(list_id)
            return original_apply(self, list_id, element)

        monkeypatch.setattr(ZerberRServer, "insert_many", counting_insert_many)
        monkeypatch.setattr(
            ZerberRServer, "apply_replicated_insert", counting_apply
        )
        items = [
            (list_id, _element(0.1 * (i + 1), b"im%d" % i))
            for i, list_id in enumerate([0, 1, 2, 3, 0, 1])
        ]
        assert cluster.insert_many("u", items) == 6
        # 6 elements over 3 primaries: one call per primary, not one per
        # element; each follower copy arrives through the log.
        assert len(calls) == 3
        assert sum(calls) == 6
        assert sorted(replicated) == [0, 0, 1, 1, 2, 3]
        # Contents landed exactly as per-element replicated inserts would.
        assert cluster.num_elements == 6

    def test_insert_many_rejected_batch_touches_no_server(self, keys):
        """Validation failures must not leave replicas divergent."""
        cluster = ServerCluster(keys, num_lists=2, num_servers=2, replication=2)
        bad_group = EncryptedPostingElement(
            ciphertext=b"bad", group="not-a-group", trs=0.5
        )
        with pytest.raises(CryptoError):
            cluster.insert_many("u", [(0, _element(0.9)), (1, bad_group)])
        assert cluster.num_elements == 0
        with pytest.raises(ProtocolError):
            cluster.insert_many(
                "u",
                [
                    (0, _element(0.9)),
                    (1, EncryptedPostingElement(ciphertext=b"x", group="g", trs=None)),
                ],
            )
        assert cluster.num_elements == 0

    def test_bulk_load_rejected_batch_touches_no_server(self, keys):
        """bulk_load gets the same all-or-nothing validation as insert_many."""
        cluster = ServerCluster(keys, num_lists=2, num_servers=3, replication=2)
        bad = EncryptedPostingElement(
            ciphertext=b"bad", group="not-a-group", trs=0.5
        )
        with pytest.raises(CryptoError):
            cluster.bulk_load("u", [(0, _element(0.9)), (1, bad)])
        assert cluster.num_elements == 0

    def test_view_stats_aggregates_across_servers(self, keys):
        cluster = ServerCluster(keys, num_lists=4, num_servers=2)
        for list_id in range(4):
            cluster.insert("u", list_id, _element(0.5, b"vs%d" % list_id))
        for list_id in range(4):
            cluster.fetch(
                FetchRequest(principal="u", list_id=list_id, offset=0, count=1)
            )
            cluster.fetch(
                FetchRequest(principal="u", list_id=list_id, offset=0, count=1)
            )
        aggregated = cluster.view_stats()
        per_server = [cluster.server(i).view_stats for i in range(2)]
        assert aggregated.full_builds == sum(s.full_builds for s in per_server)
        assert aggregated.hits == sum(s.hits for s in per_server)
        assert aggregated.full_builds == 4  # one cold build per list
        assert aggregated.hits == 4  # one warm hit per list


class TestBatchFetchCluster:
    def _populated(self, keys, num_servers=2, replication=1):
        cluster = ServerCluster(
            keys, num_lists=4, num_servers=num_servers, replication=replication
        )
        for list_id in range(4):
            for j, trs in enumerate([0.9, 0.6, 0.3]):
                cluster.insert(
                    "u", list_id, _element(trs, b"l%dj%d" % (list_id, j))
                )
        return cluster

    def test_batch_spans_shards(self, keys):
        cluster = self._populated(keys)
        batch = BatchFetchRequest.for_slices(
            "u", [(0, 0, 2), (1, 0, 2), (2, 1, 2), (3, 0, 1)]
        )
        batched = cluster.batch_fetch(batch)
        assert len(batched) == 4
        for request, response in zip(batch.requests, batched.responses):
            single = cluster.fetch(request)
            assert single.elements == response.elements
            assert single.exhausted == response.exhausted

    def test_one_sub_batch_per_touched_server(self, keys):
        cluster = self._populated(keys)
        batch = BatchFetchRequest.for_slices(
            "u", [(0, 0, 1), (2, 0, 1), (1, 0, 1), (3, 0, 1)]
        )
        cluster.batch_fetch(batch)
        # Lists 0/2 shard to server 0, lists 1/3 to server 1; each server
        # must have served its two slices as ONE batch (same batch_id).
        for server_index in range(2):
            observations = cluster.observations_at(server_index)
            assert len(observations) == 2
            assert observations[0].batch_id == observations[1].batch_id
            assert observations[0].batch_id is not None

    def test_batch_failover_to_live_replica(self, keys):
        cluster = self._populated(keys, num_servers=2, replication=2)
        primary = cluster.replicas_of(0)[0]
        cluster.fail_server(primary)
        batched = cluster.batch_fetch(
            BatchFetchRequest.for_slices("u", [(0, 0, 1), (1, 0, 1)])
        )
        assert [r.elements[0].trs for r in batched] == [0.9, 0.9]
        # Nothing was served by the failed primary.
        assert all(
            obs.batch_id is not None
            for obs in cluster.observations_at((primary + 1) % 2)
        )

    def test_batch_fails_when_all_replicas_down(self, keys):
        cluster = self._populated(keys, num_servers=2, replication=1)
        cluster.fail_server(cluster.replicas_of(0)[0])
        with pytest.raises(ProtocolError):
            cluster.batch_fetch(
                BatchFetchRequest.for_slices("u", [(0, 0, 1), (1, 0, 1)])
            )
        # Lists on the surviving server still batch-fetch fine.
        batched = cluster.batch_fetch(
            BatchFetchRequest.for_slices("u", [(1, 0, 1), (3, 0, 1)])
        )
        assert len(batched) == 2


class TestAdversaryModel:
    def test_visible_fraction_single_server(self, keys):
        cluster = ServerCluster(keys, num_lists=100, num_servers=4)
        fraction = cluster.visible_fraction([0])
        assert fraction == pytest.approx(0.25)

    def test_visible_fraction_grows_with_replication(self, keys):
        plain = ServerCluster(keys, num_lists=100, num_servers=4, replication=1)
        replicated = ServerCluster(keys, num_lists=100, num_servers=4, replication=2)
        assert replicated.visible_fraction([0]) > plain.visible_fraction([0])

    def test_visible_fraction_all_servers(self, keys):
        cluster = ServerCluster(keys, num_lists=10, num_servers=3)
        assert cluster.visible_fraction([0, 1, 2]) == pytest.approx(1.0)

    def test_unknown_server_rejected(self, keys):
        cluster = ServerCluster(keys, num_lists=10, num_servers=2)
        with pytest.raises(ConfigurationError):
            cluster.visible_fraction([5])

    def test_observations_per_server(self, keys):
        cluster = ServerCluster(keys, num_lists=4, num_servers=2)
        cluster.insert("u", 0, _element(0.5))
        cluster.fetch(FetchRequest(principal="u", list_id=0, offset=0, count=1))
        primary = cluster.replicas_of(0)[0]
        other = (primary + 1) % 2
        assert len(cluster.observations_at(primary)) == 1
        assert cluster.observations_at(other) == []
