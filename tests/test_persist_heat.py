"""Stats-amnesia fix: per-list fetch heat survives a cluster restart.

The placement daemon steers by ``list_heat`` / ``per_server_load``;
before PR 9 a restart zeroed both, so a freshly restored cluster made
cold placement decisions until the heat re-accumulated.  The snapshot
now carries an optional per-server ``"heat"`` section (a v2 extension:
old dumps without it still load, they just come back cold).
"""

from __future__ import annotations

import random

import pytest

from repro.core.cluster import ServerCluster
from repro.core.protocol import BatchFetchRequest, CoalescedBatchRequest, FetchRequest
from repro.crypto.keys import GroupKeyService
from repro.errors import ConfigurationError, ProtocolError, UnknownListError
from repro.index.postings import EncryptedPostingElement
from repro.persist import cluster_from_dict, cluster_to_dict, load_cluster, save_cluster


def _keys():
    svc = GroupKeyService(master_secret=b"f" * 32)
    svc.register("u", {"g"})
    return svc


def _save(cluster, path):
    from repro.core.rstf import RstfModel
    from repro.index.merge import MergePlan

    plan = MergePlan(groups=tuple((f"t{i}",) for i in range(3)), r=2.0)
    save_cluster(path, cluster, plan, RstfModel({}))


def _load(path):
    restored, _, _ = load_cluster(path, _keys())
    return restored


def _warm_cluster():
    cluster = ServerCluster(_keys(), num_lists=3, num_servers=2, replication=2)
    for i in range(4):
        cluster.insert(
            "u",
            i % 3,
            EncryptedPostingElement(
                ciphertext=b"el-%d" % i, group="g", trs=(i + 1) / 10.0
            ),
        )
    for _ in range(5):
        cluster.fetch(FetchRequest(principal="u", list_id=0, offset=0, count=2))
    cluster.fetch(FetchRequest(principal="u", list_id=1, offset=0, count=2))
    return cluster


class TestHeatRoundTrip:
    def test_fetch_heat_survives_restart(self, tmp_path):
        cluster = _warm_cluster()
        path = tmp_path / "snap.json"
        _save(cluster, path)
        restored = _load(path)
        assert restored.list_heat() == cluster.list_heat()
        assert restored.per_server_load() == cluster.per_server_load()

    def test_heat_keeps_accumulating_after_restore(self, tmp_path):
        cluster = _warm_cluster()
        path = tmp_path / "snap.json"
        _save(cluster, path)
        restored = _load(path)
        before = restored.list_heat()[0]
        restored.fetch(FetchRequest(principal="u", list_id=0, offset=0, count=1))
        assert restored.list_heat()[0] == before + 1

    def test_the_running_load_total_is_the_summed_per_list_heat(self, tmp_path):
        """``per_server_load()`` reads a running total per server; it
        must equal the per-list counters it used to sum — after reads
        through every call shape, and after a restore re-derives it."""

        def summed(cluster):
            return [
                sum(cluster.server(s).fetch_counts.values())
                for s in range(cluster.num_servers)
            ]

        cluster = ServerCluster(
            _keys(), num_lists=3, num_servers=3, replication=2, read_strategy="rotate"
        )
        rng = random.Random(5)
        for step in range(200):
            slices = [
                (rng.randrange(3), rng.randrange(3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ]
            batch = BatchFetchRequest.for_slices("u", slices)
            shape = rng.randrange(3)
            if shape == 0:
                cluster.fetch(batch.requests[0])
            elif shape == 1:
                cluster.batch_fetch(batch)
            else:
                server = cluster.route(slices[0][0])
                held = tuple(
                    r for r in batch.requests if server in cluster.replicas_of(r.list_id)
                )
                cluster.serve_envelope(
                    server,
                    CoalescedBatchRequest(
                        batches=(BatchFetchRequest("u", held),),
                        slice_ids=tuple(range(len(held))),
                        epoch=cluster.placement_epoch,
                    ),
                )
            assert cluster.per_server_load() == summed(cluster), step
        assert min(cluster.per_server_load()) > 0
        path = tmp_path / "snap.json"
        _save(cluster, path)
        restored = _load(path)
        assert restored.per_server_load() == summed(restored) == summed(cluster)
        restored.fetch(FetchRequest("u", 0, 0, 1))
        assert restored.per_server_load() == summed(restored)
        assert sum(restored.per_server_load()) == sum(summed(cluster)) + 1

    def test_old_dump_without_heat_restores_cold(self):
        cluster = _warm_cluster()
        data = cluster_to_dict(cluster)
        for server_data in data["servers"]:
            server_data.pop("heat")
        restored = cluster_from_dict(data, _keys())
        assert all(heat == 0 for heat in restored.list_heat().values())
        assert all(load == 0 for load in restored.per_server_load())

    def test_heat_section_shape_is_stable(self):
        data = cluster_to_dict(_warm_cluster())
        for server_data in data["servers"]:
            heat = server_data["heat"]
            assert set(heat) == {"fetch_counts", "calls"}
            assert all(isinstance(k, str) for k in heat["fetch_counts"])


class TestHeatValidation:
    def test_negative_calls_rejected(self):
        data = cluster_to_dict(_warm_cluster())
        data["servers"][0]["heat"]["calls"] = -1
        with pytest.raises(ConfigurationError):
            cluster_from_dict(data, _keys())

    def test_negative_count_rejected(self):
        data = cluster_to_dict(_warm_cluster())
        data["servers"][0]["heat"]["fetch_counts"] = {"0": -2}
        with pytest.raises(ConfigurationError):
            cluster_from_dict(data, _keys())

    def test_unknown_list_id_rejected(self):
        data = cluster_to_dict(_warm_cluster())
        data["servers"][0]["heat"]["fetch_counts"] = {"99": 1}
        with pytest.raises(ConfigurationError):
            cluster_from_dict(data, _keys())

    def test_non_numeric_count_rejected(self):
        data = cluster_to_dict(_warm_cluster())
        data["servers"][0]["heat"]["fetch_counts"] = {"0": "many"}
        with pytest.raises(ConfigurationError):
            cluster_from_dict(data, _keys())

    def test_restore_heat_validates_directly(self):
        cluster = _warm_cluster()
        server = cluster.server(0)
        with pytest.raises(ProtocolError):
            server.restore_heat({0: 1}, calls=-1)
        with pytest.raises(ProtocolError):
            server.restore_heat({0: -1}, calls=0)
        with pytest.raises(UnknownListError):
            server.restore_heat({99: 1}, calls=1)
