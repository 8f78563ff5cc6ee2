"""Unit tests for the static round-robin placement and its validation.

A list's replica *set* is fixed when the cluster is built; a failover
election only reorders it (the winner first, the deposed primary kept
as a follower), and nothing ever hands a list back or moves it.
"""

from collections import Counter

import pytest

from repro.core.cluster import (
    ServerCluster,
    round_robin_placement,
    validate_placement,
)
from repro.core.protocol import FetchRequest
from repro.crypto.keys import GroupKeyService
from repro.errors import ConfigurationError, ProtocolError
from repro.index.postings import EncryptedPostingElement
from tests.conftest import sealed

# (num_lists, num_servers, replication)
SHAPES = [(1, 1, 1), (7, 3, 1), (7, 3, 2), (7, 3, 3), (10, 4, 2), (4, 10, 3)]


def _keys():
    keys = GroupKeyService(master_secret=b"p" * 32)
    keys.register("u", {"g"})
    return keys


def _filled(num_lists=6, num_servers=3, replication=2, **kwargs):
    cluster = ServerCluster(
        _keys(),
        num_lists=num_lists,
        num_servers=num_servers,
        replication=replication,
        **kwargs,
    )
    for i in range(3 * num_lists):
        element = EncryptedPostingElement(sealed(b"s-%02d" % i), "g", (i + 1) / 100.0)
        cluster.insert("u", i % num_lists, element)
    return cluster


def _contents(cluster):
    return {
        list_id: [
            e.ciphertext
            for e in cluster.fetch(FetchRequest("u", list_id, 0, 100)).elements
        ]
        for list_id in range(cluster.num_lists)
    }


class TestRoundRobinLayout:
    def test_matches_seed_modulo_rule(self):
        placement = round_robin_placement(
            num_lists=10, num_servers=4, replication=2
        )
        for list_id, replicas in enumerate(placement):
            assert replicas == (list_id % 4, (list_id + 1) % 4)

    def test_cluster_is_laid_out_round_robin(self):
        keys = GroupKeyService(master_secret=b"p" * 32)
        cluster = ServerCluster(keys, num_lists=7, num_servers=3, replication=2)
        assert cluster.placement_table() == round_robin_placement(7, 3, 2)
        assert cluster.placement_epoch == 0

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rows_hold_consecutive_distinct_servers(self, shape):
        num_lists, num_servers, replication = shape
        placement = round_robin_placement(num_lists, num_servers, replication)
        assert len(placement) == num_lists
        for list_id, replicas in enumerate(placement):
            assert len(set(replicas)) == len(replicas) == replication
            assert replicas[0] == list_id % num_servers
            for rank in range(1, replication):
                assert replicas[rank] == (replicas[rank - 1] + 1) % num_servers

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_rank_is_spread_evenly(self, shape):
        num_lists, num_servers, replication = shape
        placement = round_robin_placement(num_lists, num_servers, replication)
        for rank in range(replication):
            held = Counter(replicas[rank] for replicas in placement)
            counts = [held.get(s, 0) for s in range(num_servers)]
            assert max(counts) - min(counts) <= 1, (rank, counts)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_passes_its_own_validation(self, shape):
        num_lists, num_servers, replication = shape
        placement = round_robin_placement(num_lists, num_servers, replication)
        as_lists = [list(replicas) for replicas in placement]
        assert (
            validate_placement(as_lists, num_lists, num_servers, replication)
            == placement
        )


class TestValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigurationError):
            validate_placement([(0,)], num_lists=2, num_servers=2, replication=1)
        with pytest.raises(ConfigurationError):
            validate_placement(
                [(0,), (1, 0)], num_lists=2, num_servers=2, replication=1
            )

    def test_rejects_duplicate_or_unknown_servers(self):
        with pytest.raises(ConfigurationError):
            validate_placement([(1, 1)], num_lists=1, num_servers=2, replication=2)
        with pytest.raises(ConfigurationError):
            validate_placement([(5,)], num_lists=1, num_servers=2, replication=1)

    def test_rejects_a_negative_server_index(self):
        with pytest.raises(ConfigurationError, match="unknown server"):
            validate_placement([(-1,)], num_lists=1, num_servers=2, replication=1)

    def test_rejects_extra_lists_and_names_the_bad_row(self):
        with pytest.raises(ConfigurationError, match="covers 3 lists"):
            validate_placement(
                [(0,), (1,), (0,)], num_lists=2, num_servers=2, replication=1
            )
        with pytest.raises(ConfigurationError, match="list 1 "):
            validate_placement(
                [(0, 1), (0, 0)], num_lists=2, num_servers=2, replication=2
            )

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(num_lists=2, num_servers=0, replication=1), ConfigurationError),
            (dict(num_lists=2, num_servers=2, replication=0), ConfigurationError),
            (dict(num_lists=2, num_servers=2, replication=3), ConfigurationError),
            (dict(num_lists=0, num_servers=2, replication=1), ProtocolError),
        ],
        ids=["no-servers", "no-replicas", "more-replicas-than-servers", "no-lists"],
    )
    def test_cluster_refuses_an_impossible_layout(self, kwargs, error):
        with pytest.raises(error):
            ServerCluster(_keys(), **kwargs)

    def test_restore_topology_installs_an_elected_order(self):
        cluster = ServerCluster(_keys(), num_lists=3, num_servers=3, replication=2)
        elected = [(1, 0), (1, 2), (0, 2)]
        cluster.restore_topology(elected, epoch=4)
        assert cluster.placement_table() == elected
        assert cluster.placement_epoch == 4
        assert cluster.replicas_of(2) == [0, 2]

    def test_restore_topology_refuses_bad_input_and_keeps_the_old_table(self):
        cluster = ServerCluster(_keys(), num_lists=3, num_servers=3, replication=2)
        before = cluster.placement_table()
        with pytest.raises(ConfigurationError):
            cluster.restore_topology(before, epoch=-1)
        with pytest.raises(ConfigurationError):
            cluster.restore_topology([(0, 1), (1, 2), (2, 7)], epoch=1)
        assert cluster.placement_table() == before
        assert cluster.placement_epoch == 0


class TestStaticLayoutUnderFailover:
    def test_a_fault_free_cluster_never_moves_a_list(self):
        cluster = _filled(lag=1, failover_after=1, read_consistency="one")
        for step in range(20):
            cluster.replication_tick()
            cluster.fetch(FetchRequest("u", step % 6, 0, 2))
            cluster.insert(
                "u",
                step % 6,
                EncryptedPostingElement(sealed(b"t-%02d" % step), "g", 0.5),
            )
        assert cluster.placement_table() == round_robin_placement(6, 3, 2)
        assert cluster.placement_epoch == 0
        assert cluster.failover_history() == []

    def test_an_election_reorders_but_keeps_the_replica_set(self):
        cluster = _filled(failover_after=1)
        before = cluster.placement_table()
        cluster.fail_server(0)
        cluster.replication_tick()
        cluster.replication_tick()
        after = cluster.placement_table()
        for old, new in zip(before, after):
            assert sorted(new) == sorted(old)
            if old[0] == 0:
                assert new == (old[1], 0)  # winner first, deposed kept
            else:
                assert new == old

    def test_one_epoch_bump_per_election_batch(self):
        cluster = _filled(failover_after=1)
        led = [l for l in range(6) if cluster.replicas_of(l)[0] == 0]
        assert len(led) == 2
        cluster.fail_server(0)
        cluster.replication_tick()
        cluster.replication_tick()
        assert sorted(e.list_id for e in cluster.failover_history()) == led
        assert cluster.placement_epoch == 1

    def test_a_restored_server_is_not_handed_its_lists_back(self):
        cluster = _filled(failover_after=1)
        cluster.fail_server(0)
        cluster.replication_tick()
        cluster.replication_tick()
        elected = cluster.placement_table()
        cluster.restore_server(0)
        cluster.run_replication_until_quiet()
        for _ in range(10):
            cluster.replication_tick()
        assert cluster.placement_table() == elected
        assert cluster.placement_epoch == 1
        assert all(
            cluster.applied_version(l, 0) == cluster.primary_version(l)
            for l in range(6)
            if 0 in cluster.replicas_of(l)
        )

    def test_an_election_changes_no_answer_and_no_size(self):
        cluster = _filled(failover_after=1)
        contents = _contents(cluster)
        size = cluster.num_elements
        fraction = cluster.visible_fraction([1])
        cluster.fail_server(0)
        cluster.replication_tick()
        cluster.replication_tick()
        assert cluster.placement_epoch == 1
        assert _contents(cluster) == contents
        assert cluster.num_elements == size
        assert cluster.visible_fraction([1]) == fraction

    def test_no_election_without_a_reachable_follower(self):
        cluster = _filled(replication=1, failover_after=1)
        cluster.fail_server(0)
        for _ in range(3):
            cluster.replication_tick()
        assert cluster.placement_table() == round_robin_placement(6, 3, 1)
        assert cluster.placement_epoch == 0
        assert cluster.failover_history() == []

    def test_a_paused_follower_is_passed_over(self):
        cluster = _filled(num_lists=3, replication=3, lag=3, failover_after=1)
        cluster.pause_follower(1)
        cluster.insert("u", 0, EncryptedPostingElement(sealed(b"late"), "g", 0.99))
        cluster.fail_server(0)
        cluster.replication_tick()
        cluster.replication_tick()
        assert cluster.replicas_of(0) == [2, 0, 1]
        assert cluster.applied_version(0, 2) == cluster.primary_version(0)
        assert sealed(b"late") in _contents(cluster)[0]
