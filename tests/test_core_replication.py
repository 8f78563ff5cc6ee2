"""Unit tests for the replication subsystem (logs, lag, consistency)."""

import heapq
import random
from collections import deque
from dataclasses import replace as dataclass_replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import SystemConfig, ZerberRSystem
from repro.core.cluster import ServerCluster
from repro.core.protocol import FetchRequest, Receipt
from repro.core.replication import (
    DeliveryOutlook,
    ReadConsistency,
    ReplicationLog,
    ReplicationManager,
    ReplicationOp,
    WriteConsistency,
)
from repro.core.server import ZerberRServer
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    QuorumUnavailableError,
    QuorumWriteUnavailableError,
    UnavailableError,
)
from repro.index.postings import EncryptedPostingElement
from repro.obs.instruments import ReplicationInstruments, Telemetry
from repro.text.analysis import DocumentStats
from tests.conftest import sealed
from tests.test_core_client import _frames_entered


@pytest.fixture()
def keys():
    svc = GroupKeyService(master_secret=b"r" * 32)
    svc.register("u", {"g"})
    return svc


def _element(trs, payload=sealed(b"cipher")):
    return EncryptedPostingElement(ciphertext=payload, group="g", trs=trs)


def _fetch(cluster, list_id, count=8, consistency=None):
    """One slice of *list_id*; a *consistency* given becomes the
    cluster's read level first (the one place a level lives)."""
    if consistency is not None:
        cluster.read_consistency = ReadConsistency.coerce(consistency)
    return cluster.fetch(
        FetchRequest(principal="u", list_id=list_id, offset=0, count=count)
    )


class TestConfig:
    def test_lag_validation(self, keys):
        with pytest.raises(ConfigurationError):
            ServerCluster(keys, num_lists=1, num_servers=2, lag=-1)
        cluster = ServerCluster(keys, num_lists=1, num_servers=2, lag=3)
        assert cluster.replication_manager.lag == 3

    def test_consistency_coercion(self):
        assert ReadConsistency.coerce(None) is ReadConsistency.PRIMARY
        assert ReadConsistency.coerce("one") is ReadConsistency.ONE
        assert ReadConsistency.coerce("QUORUM") is ReadConsistency.QUORUM
        with pytest.raises(ConfigurationError):
            ReadConsistency.coerce("eventual")

    def test_anti_entropy_validation(self, keys):
        with pytest.raises(ConfigurationError):
            ServerCluster(
                keys, num_lists=2, num_servers=2, anti_entropy_every=0
            )


class TestZeroLagIsALag:
    """The one write path, pinned by what a caller can observe: at lag 0
    every replica holds every acknowledged op when the write call returns,
    at every W, and the cluster answers like one server fed the same ops."""

    LISTS = 3

    def _script(self, rng):
        """~40 seeded write calls as ``(method, args)``; ciphertexts are
        unique, deletes name a live receipt two times in three."""
        live, serial = [], 0

        def batch(size):
            nonlocal serial
            items = []
            for _ in range(size):
                serial += 1
                list_id = rng.randrange(self.LISTS)
                # Few distinct TRS values: ties must order alike everywhere.
                element = _element(rng.randrange(8) / 8, sealed(b"c%d" % serial))
                items.append((list_id, element))
            live.extend(Receipt(lid, e.ciphertext, e.trs) for lid, e in items)
            return items

        for _ in range(40):
            kind = rng.choice(["insert", "insert_many", "delete"])
            if kind == "insert":
                ((list_id, element),) = batch(1)
                yield "insert", (list_id, element)
            elif kind == "delete":
                if live and rng.random() < 2 / 3:
                    receipt = live.pop(rng.randrange(len(live)))
                else:
                    receipt = Receipt(rng.randrange(self.LISTS), sealed(b"no-such"), 0.5)
                yield "delete_element", (receipt,)
            else:
                yield kind, (batch(rng.randrange(5)),)

    @pytest.mark.parametrize("replication", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_replica_holds_every_acknowledged_op(
        self, keys, replication, seed
    ):
        rng = random.Random(seed)
        telemetry = Telemetry()
        cluster = ServerCluster(
            keys,
            num_lists=self.LISTS,
            num_servers=3,
            replication=replication,
            telemetry=telemetry,
        )
        reference = ZerberRServer(keys, num_lists=self.LISTS)
        writes = telemetry.registry.get("cluster_writes_total")
        repl = cluster.replication_manager
        for method, args in self._script(rng):
            level = rng.choice(["one", "quorum", "all"])
            cluster.write_consistency = WriteConsistency.coerce(level)
            got = getattr(cluster, method)("u", *args)
            # The reference shard takes what the cluster's gate passed.
            if method == "delete_element":
                assert got is (reference.delete_element("u", *args) is not None)
            elif method == "insert":
                reference.insert_many([args])
            else:
                assert got == getattr(reference, method)(*args)
            for list_id in range(self.LISTS):
                head = cluster.primary_version(list_id)
                held = reference.export_list(list_id)
                for server_index in cluster.replicas_of(list_id):
                    assert cluster.server(server_index).export_list(list_id) == held
                    assert cluster.applied_version(list_id, server_index) == head
                request = FetchRequest("u", list_id, offset=0, count=1000)
                expected = reference.fetch(request, 0)
                for consistency in ReadConsistency:
                    cluster.read_consistency = consistency
                    response = cluster.fetch(request)
                    assert response.replica_version == head
                    assert response.elements == expected.elements
                    assert response.exhausted == expected.exhausted
            assert cluster.replication_backlog() == {}
            assert set(repl.log_lengths().values()) == {0}
            assert repl.outstanding_deliveries() == 0
            assert repl.stats.write_ack_syncs == 0
            assert repl.stats.stale_reads_detected == 0
            assert repl.stats.ops_logged == writes.total()
            assert repl.stats.ops_logged == sum(
                cluster.primary_version(lid) for lid in range(self.LISTS)
            )


class TestSingleReplicaLog:
    def test_log_of_a_single_replica_list_is_truncated_as_recorded(self, keys):
        """No follower will ever apply (and so truncate) these ops."""
        cluster = ServerCluster(
            keys, num_lists=2, num_servers=2, replication=1, lag=1
        )
        for i in range(10):
            cluster.insert("u", i % 2, _element(0.05 * i, sealed(b"s%d" % i)))
        assert cluster.delete_element("u", Receipt(0, sealed(b"s0"), 0.0))
        assert cluster.insert_many("u", [(1, _element(0.9, sealed(b"bulk")))]) == 1
        assert cluster.primary_version(0) == 6
        assert cluster.replication_manager.log_lengths() == {0: 0, 1: 0}
        # ... whatever unrelated server is down at the time.
        cluster.fail_server(cluster.replicas_of(1)[0])
        cluster.insert("u", 0, _element(0.7, sealed(b"later")))
        assert cluster.replication_manager.log_lengths() == {0: 0, 1: 0}

    def test_default_deployment_retains_no_log(self, micro_corpus):
        from repro import SystemConfig, ZerberRSystem

        system = ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=8))
        cluster, _ = system.deploy_cluster(num_servers=2)
        assert cluster.replication_stats.ops_logged == cluster.num_elements > 0
        assert set(cluster.replication_manager.log_lengths().values()) == {0}


class TestSynchronousDefault:
    def test_sync_delete_versions_only_on_removal(self, keys):
        cluster = ServerCluster(keys, num_lists=2, num_servers=2, replication=2)
        cluster.insert("u", 0, _element(0.5))
        assert not cluster.delete_element(
            "u", Receipt(0, sealed(b"no-such-receipt"), 0.5)
        )
        assert cluster.primary_version(0) == 1
        assert cluster.delete_element("u", Receipt(0, sealed(b"cipher"), 0.5))
        assert cluster.primary_version(0) == 2


class TestLagAndConvergence:
    def _lagged(self, keys, lag=2, **kwargs):
        return ServerCluster(
            keys, num_lists=2, num_servers=2, replication=2, lag=lag, **kwargs
        )

    def test_write_acks_at_primary_and_drains_by_ticks(self, keys):
        cluster = self._lagged(keys, lag=2)
        cluster.insert("u", 0, _element(0.9, sealed(b"a")))
        primary, follower = cluster.replicas_of(0)
        assert cluster.server(primary).list_length(0) == 1
        assert cluster.server(follower).list_length(0) == 0
        assert cluster.replication_backlog() == {(0, follower): 1}
        cluster.replication_tick()
        assert cluster.server(follower).list_length(0) == 0  # 1 of 2 ticks
        cluster.replication_tick()
        assert cluster.server(follower).list_length(0) == 1
        assert cluster.replication_backlog() == {}
        assert cluster.replication_stats.follower_ops_applied == 1

    def test_ops_apply_in_log_order(self, keys):
        cluster = self._lagged(keys, lag=1)
        cluster.insert("u", 0, _element(0.9, sealed(b"a")))
        cluster.insert("u", 0, _element(0.8, sealed(b"b")))
        assert cluster.delete_element("u", Receipt(0, sealed(b"a"), 0.9))
        cluster.insert("u", 0, _element(0.7, sealed(b"c")))
        cluster.run_replication_until_quiet()
        primary, follower = cluster.replicas_of(0)
        assert [e.ciphertext for e in cluster.server(follower).export_list(0)] == [
            e.ciphertext for e in cluster.server(primary).export_list(0)
        ] == [sealed(b"b"), sealed(b"c")]

    def test_every_follower_trails_by_the_lag(self, keys):
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=3, replication=3, lag=2
        )
        cluster.pause_follower(2)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        cluster.replication_tick()
        assert [cluster.applied_version(0, s) for s in (1, 2)] == [0, 0]
        cluster.replication_tick()
        assert [cluster.applied_version(0, s) for s in (1, 2)] == [1, 0]
        cluster.resume_follower(2)
        cluster.replication_tick()
        assert cluster.applied_version(0, 2) == 1

    def test_paused_follower_holds_then_drains(self, keys):
        cluster = self._lagged(keys, lag=0)
        follower = cluster.replicas_of(0)[1]
        cluster.pause_follower(follower)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        assert cluster.replication_manager.outstanding_deliveries() == 1
        for _ in range(5):
            cluster.replication_tick()
        assert cluster.applied_version(0, follower) == 0
        cluster.resume_follower(follower)
        cluster.replication_tick()
        assert cluster.applied_version(0, follower) == 1
        assert cluster.replication_manager.outstanding_deliveries() == 0

    @pytest.mark.parametrize(
        "partitioned", [False, True], ids=["down", "restored-while-partitioned"]
    )
    def test_failed_server_receives_nothing_until_restore(self, keys, partitioned):
        """A down follower receives nothing until it is restored.  One
        that is also partitioned and restored while still partitioned
        stays unreachable to every user of the cluster's one
        reachability predicate — routing, the QUORUM ack roster, delivery
        and its failover timer — until it is resumed."""
        cluster = ServerCluster(
            keys,
            num_lists=1,
            num_servers=3,
            replication=3,
            lag=1,
            write_consistency="quorum",
            failover_after=10,
        )
        primary, follower, other = cluster.replicas_of(0)
        cluster.fail_server(follower)
        if partitioned:
            cluster.pause_follower(follower)
        cluster.replication_tick()  # its failover timer starts at tick 1
        if partitioned:
            cluster.restore_server(follower)
            cluster.fail_server(primary)  # both followers at the head, v0
            assert cluster.route(0) == other
            cluster.restore_server(primary)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        # The QUORUM ack is forced at the other follower, not at this one.
        versions = [cluster.applied_version(0, s) for s in (primary, follower, other)]
        assert versions == [1, 0, 1]
        for _ in range(3):
            cluster.replication_tick()
        assert cluster.applied_version(0, follower) == 0
        assert cluster.replication_manager.delivery_outlook(follower).held == 1
        assert cluster.unreachable_since() == {follower: 1}
        if partitioned:
            cluster.fail_server(other)
            with pytest.raises(QuorumWriteUnavailableError) as refused:
                cluster.insert("u", 0, _element(0.6, sealed(b"y")))
            roster = refused.value
            assert (
                roster.live_replicas,
                roster.down_replicas,
                roster.paused_replicas,
            ) == ((primary,), (other,), (follower,))
            cluster.restore_server(other)
            cluster.resume_follower(follower)
        else:
            cluster.restore_server(follower)
        cluster.replication_tick()
        assert cluster.applied_version(0, follower) == 1
        assert cluster.unreachable_since() == {}

    def test_zero_lag_write_with_dead_follower_drains_after_restore(self, keys):
        """The dead follower's copy waits in the log and arrives on the
        first tick after the restore."""
        cluster = self._lagged(keys, lag=0)
        primary, follower = cluster.replicas_of(0)
        cluster.fail_server(follower)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        assert cluster.server(primary).list_length(0) == 1
        assert cluster.server(follower).list_length(0) == 0
        assert cluster.replication_backlog() == {(0, follower): 1}
        cluster.restore_server(follower)
        cluster.replication_tick()
        assert cluster.server(follower).list_length(0) == 1
        assert cluster.replication_manager.outstanding_deliveries() == 0

    def test_a_batch_replicates_through_log(self, keys):
        """A whole upload (what a deploy sends) reaches the follower
        through the log only, one tick behind the primary."""
        cluster = self._lagged(keys, lag=1)
        items = [(0, _element(0.1 * i, sealed(b"b%d" % i))) for i in range(1, 6)]
        assert cluster.insert_many("u", items) == 5
        primary, follower = cluster.replicas_of(0)
        assert cluster.server(primary).list_length(0) == 5
        assert cluster.server(follower).list_length(0) == 0
        cluster.run_replication_until_quiet()
        assert [e.ciphertext for e in cluster.server(follower).export_list(0)] == [
            e.ciphertext for e in cluster.server(primary).export_list(0)
        ]


class TestReadConsistency:
    def _stale_follower_cluster(self, keys):
        """Primary down, follower one insert behind."""
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=2, replication=2, lag=8
        )
        cluster.insert("u", 0, _element(0.5, sealed(b"old")))
        cluster.run_replication_until_quiet(max_ticks=10)
        cluster.insert("u", 0, _element(0.9, sealed(b"new")))
        primary = cluster.replicas_of(0)[0]
        cluster.fail_server(primary)
        return cluster

    def test_one_returns_stale_fast(self, keys):
        cluster = self._stale_follower_cluster(keys)
        response = _fetch(cluster, 0, consistency="one")
        assert [e.ciphertext for e in response.elements] == [sealed(b"old")]
        assert response.replica_version == 1
        assert cluster.primary_version(0) == 2
        stats = cluster.replication_stats
        assert stats.stale_reads_detected == 1
        assert cluster.replication_manager.max_staleness_seen == 1
        # ... but the divergence was repaired behind the response.
        follower = cluster.replicas_of(0)[1]
        assert cluster.applied_version(0, follower) == 2
        assert stats.repair_ops == 1

    def test_primary_re_serves_after_repair(self, keys):
        cluster = self._stale_follower_cluster(keys)
        response = _fetch(cluster, 0, consistency="primary")
        # Strong even though the primary is down: the follower was caught
        # up from the log and the slice re-served.
        assert [e.ciphertext for e in response.elements] == [
            sealed(b"new"),
            sealed(b"old"),
        ]
        assert response.replica_version == 2
        assert cluster.replication_stats.read_reserves == 1

    def test_primary_serves_stale_when_unrepairable(self, keys):
        cluster = self._stale_follower_cluster(keys)
        follower = cluster.replicas_of(0)[1]
        cluster.pause_follower(follower)  # partitioned AND primary down
        response = _fetch(cluster, 0, consistency="primary")
        assert [e.ciphertext for e in response.elements] == [sealed(b"old")]
        assert response.replica_version == 1

    def test_quorum_serves_version_max(self, keys):
        cluster = ServerCluster(
            keys,
            num_lists=1,
            num_servers=3,
            replication=3,
            lag=1,
        )
        cluster.pause_follower(1)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        cluster.replication_tick()  # server 2 catches up; server 1 is held
        cluster.resume_follower(1)  # back, still at v0 until the next tick
        cluster.fail_server(cluster.replicas_of(0)[0])
        response = _fetch(cluster, 0, consistency="quorum")
        assert response.replica_version == 1
        assert [e.ciphertext for e in response.elements] == [sealed(b"x")]
        assert cluster.replication_stats.version_probes >= 2
        # Served by the version-max member (2), not placement's first (1):
        # nothing had to be re-served.
        assert cluster.replication_stats.read_reserves == 0

    def test_quorum_needs_live_majority(self, keys):
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=3, replication=3
        )
        cluster.insert("u", 0, _element(0.5))
        cluster.fail_server(0)
        cluster.fail_server(1)
        with pytest.raises(QuorumUnavailableError) as excinfo:
            _fetch(cluster, 0, consistency="quorum")
        assert excinfo.value.needed == 2
        assert len(excinfo.value.live_replicas) == 1
        # Still an UnavailableError subtype for legacy handlers.
        assert isinstance(excinfo.value, UnavailableError)
        # ONE-consistency reads survive on the last live replica.
        assert _fetch(cluster, 0, consistency="one").elements

    def test_a_one_server_cluster_stamps_every_response(self, keys):
        """The paper's single server is a one-server cluster: its replies
        carry the list's version like any replica's."""
        cluster = ServerCluster(keys, num_lists=1, num_servers=1)
        cluster.insert("u", 0, _element(0.5))
        assert _fetch(cluster, 0).replica_version == 1


class TestAntiEntropy:
    def test_sweep_bounds_staleness_of_unread_lists(self, keys):
        cluster = ServerCluster(
            keys,
            num_lists=2,
            num_servers=2,
            replication=2,
            lag=100,
            anti_entropy_every=3,
        )
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        cluster.insert("u", 1, _element(0.6, sealed(b"y")))
        for _ in range(2):
            cluster.replication_tick()
        assert cluster.replication_backlog()  # lag far from elapsed
        cluster.replication_tick()  # third tick: sweep fires
        assert cluster.replication_backlog() == {}
        stats = cluster.replication_stats
        assert stats.anti_entropy_runs == 1
        assert stats.anti_entropy_ops == 2

    def test_sweep_skips_partitioned_followers(self, keys):
        cluster = ServerCluster(
            keys,
            num_lists=1,
            num_servers=2,
            replication=2,
            lag=100,
            anti_entropy_every=1,
        )
        follower = cluster.replicas_of(0)[1]
        cluster.pause_follower(follower)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        cluster.replication_tick()
        assert cluster.applied_version(0, follower) == 0
        cluster.resume_follower(follower)
        cluster.replication_tick()
        assert cluster.applied_version(0, follower) == 1


class TestGappedPrimary:
    """A restored dump may name a primary below the log head; a write must
    catch it up from the log first, not stamp over the gap."""

    def _gapped(self, keys):
        live, cluster = (
            ServerCluster(keys, num_lists=1, num_servers=2, replication=2, lag=100)
            for _ in range(2)
        )
        live.insert("u", 0, _element(0.9, sealed(b"acked")))  # head 1, server 1 owed
        repl = live.replication_manager
        head, base, ops = repl.log_snapshot(0)
        # The dump names the lagging replica primary; the run at base 0 is empty.
        cluster.restore_topology([(1, 0)], epoch=1)
        cluster.replication_manager.restore_list_state(
            0, head, base, [], ops, repl.applied_snapshot(0)
        )
        assert cluster.applied_version(0, 1) == 0 < cluster.primary_version(0)
        return cluster

    def test_write_keeps_gap_ops(self, keys):
        cluster = self._gapped(keys)
        cluster.insert("u", 0, _element(0.5, sealed(b"later")))
        assert [e.ciphertext for e in cluster.server(1).export_list(0)] == [
            sealed(b"acked"),
            sealed(b"later"),
        ]
        assert cluster.applied_version(0, 1) == cluster.primary_version(0) == 2

    def test_write_refused_at_unreachable_gapped_primary(self, keys):
        cluster = self._gapped(keys)
        cluster.pause_follower(1)  # gapped primary, now unreachable
        with pytest.raises(UnavailableError):
            cluster.insert("u", 0, _element(0.5, sealed(b"later")))
        # Nothing was logged or applied for the refused write.
        assert cluster.primary_version(0) == 1
        assert cluster.server(1).list_length(0) == 0


class TestReadRouting:
    def _cluster(self, keys, **kwargs):
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=3, replication=3, **kwargs
        )
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        return cluster

    def test_reads_go_to_the_primary(self, keys):
        cluster = self._cluster(keys)
        for consistency in ("one", "primary", "one", "primary"):
            _fetch(cluster, 0, count=1, consistency=consistency)
        primary = cluster.replicas_of(0)[0]
        loads = cluster.per_server_load()
        assert loads[primary] == 4
        assert sum(loads) == 4

    def test_primary_reads_skip_a_stale_first_follower(self, keys):
        cluster = self._cluster(keys, lag=10)
        # A QUORUM write while follower 1 is partitioned forces follower 2
        # to the head; follower 1 stays an op behind.
        cluster.pause_follower(1)
        cluster.write_consistency = WriteConsistency.QUORUM
        cluster.insert("u", 0, _element(0.9, sealed(b"new")))
        cluster.resume_follower(1)
        cluster.fail_server(0)
        assert cluster.applied_version(0, 1) < cluster.primary_version(0)
        assert cluster.applied_version(0, 2) == cluster.primary_version(0)
        # With the primary down, PRIMARY reads pass over the stale first
        # follower and never need a re-serve.
        for _ in range(4):
            response = _fetch(cluster, 0, consistency="primary")
            assert response.replica_version == cluster.primary_version(0)
            assert [e.ciphertext for e in response.elements] == [
                sealed(b"new"),
                sealed(b"x"),
            ]
        assert cluster.per_server_load() == [0, 0, 4]
        assert cluster.replication_stats.read_reserves == 0
        # A ONE read takes the first live follower as it stands: it has
        # not received even the first write yet.
        response = _fetch(cluster, 0, consistency="one")
        assert (response.replica_version, response.elements) == (0, ())
        assert cluster.per_server_load() == [0, 1, 4]


class TestRouteValidation:
    def test_an_unknown_level_is_refused_by_the_constructor(self, keys):
        # The constructor is the one place a level's spelling is read.
        with pytest.raises(ConfigurationError, match="gossip"):
            ServerCluster(keys, num_lists=1, num_servers=1, read_consistency="gossip")
        with pytest.raises(ConfigurationError, match="gossip"):
            ServerCluster(keys, num_lists=1, num_servers=1, write_consistency="gossip")

    def test_applied_version_unknown_holder_rejected(self, keys):
        cluster = ServerCluster(keys, num_lists=2, num_servers=2, replication=1)
        holder = cluster.replicas_of(0)[0]
        other = (holder + 1) % 2
        with pytest.raises(ProtocolError):
            cluster.applied_version(0, other)


class TestWriteAccounting:
    def _quorum_cluster(self, keys, lag, telemetry):
        return ServerCluster(
            keys,
            num_lists=1,
            num_servers=3,
            replication=3,
            lag=lag,
            write_consistency="quorum",
            telemetry=telemetry,
        )

    @pytest.mark.parametrize("lag", [0, 2])
    def test_missed_receipt_mutates_logs_and_counts_nothing(self, keys, lag):
        telemetry = Telemetry()
        cluster = self._quorum_cluster(keys, lag, telemetry)
        writes = telemetry.registry.get("cluster_writes_total")
        cluster.insert("u", 0, _element(0.5, sealed(b"kept")))
        repl = cluster.replication_manager

        def state():
            return (
                writes.total(),
                cluster.primary_version(0),
                repl.stats.ops_logged,
                repl.stats.write_ack_syncs,
                repl.outstanding_deliveries(),
                repl.log_lengths(),
                [cluster.server(s)._lists[0].version for s in range(3)],
            )

        before = state()
        assert before[0] == 1.0
        missing = Receipt(0, sealed(b"no-such-receipt"), 0.5)
        assert cluster.delete_element("u", missing) is False
        assert state() == before
        # The receipt that does match is one acknowledged write more.
        assert cluster.delete_element("u", Receipt(0, sealed(b"kept"), 0.5)) is True
        assert writes.total() == 2.0

    def test_logged_delete_carries_the_removed_element(self, keys):
        cluster = self._quorum_cluster(keys, 2, None)
        element = _element(0.25, sealed(b"x"))
        cluster.insert("u", 0, element)
        cluster.delete_element("u", Receipt(0, sealed(b"x"), 0.25))
        *_, op = cluster.replication_manager.log_snapshot(0)[2]
        assert op.kind == "delete" and op.element is element

    def test_lagged_soak_leaves_replicas_equal_to_the_primary(self, keys):
        """Inserts and deletes among shared TRS values, delivered late and
        partly forced by quorum acks: every replica ends element-for-element
        equal to the primary, in the primary's order."""
        cluster = self._quorum_cluster(keys, 2, None)
        live: list[Receipt] = []
        for step in range(240):
            if step % 40 == 10:
                cluster.pause_follower(2)
            elif step % 40 == 30:
                cluster.resume_follower(2)
            if step % 3 == 2 and live:
                victim = live.pop((step * 7) % len(live))
                assert cluster.delete_element("u", victim)
            else:
                element = _element((step % 5) / 4, sealed(b"e%d" % step))
                cluster.insert("u", 0, element)
                live.append(Receipt(0, element.ciphertext, element.trs))
            if step % 2:
                cluster.replication_tick()
        cluster.run_replication_until_quiet()
        assert cluster.replication_backlog() == {}
        primary = cluster.server(cluster.replicas_of(0)[0]).export_list(0)
        assert sorted(e.ciphertext for e in primary) == sorted(
            r.ciphertext for r in live
        )
        for server_index in cluster.replicas_of(0)[1:]:
            assert cluster.server(server_index).export_list(0) == primary


class TestLogSlicing:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 6)), max_size=40
        )
    )
    def test_ops_between_slices_what_a_filter_would_select(self, steps):
        """The retained ops stay the contiguous run (base, head] through
        appends and truncations, so the index slice and a filter over
        the whole log agree on every window."""
        log = ReplicationLog(0)
        for code, amount in steps:
            if code <= 1:
                element = _element(0.5, sealed(b"c"))
                log.extend([ReplicationOp(log.head_seq + 1, "delete", element)])
            else:
                log.truncate_to(log.base_seq + amount)
            retained = log.iter_ops()
            assert [op.seq for op in retained] == list(
                range(log.base_seq + 1, log.head_seq + 1)
            )
            for after in range(log.base_seq, log.head_seq + 2):
                for upto in range(log.base_seq - 1, log.head_seq + 2):
                    assert log.ops_between(after, upto) == [
                        op for op in retained if after < op.seq <= upto
                    ]
        with pytest.raises(ProtocolError):
            log.ops_between(log.base_seq - 1, log.head_seq)


# -- the delivery scheduler ---------------------------------------------------


class _PerPairManager(ReplicationManager):
    """The scheduler the buckets replaced, kept as the abstract model the
    new one refines: a FIFO of ``(due, upto, recorded)`` records per
    (list, follower), one heap entry per FIFO that is not held, ``sync``
    emptying the pair's FIFO and every application dropping the records
    it satisfied.  It shares the logs, versions and stats accounting with
    the manager under test and nothing of its scheduling."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._due = {}
        self._pair_schedule = []
        self._held_pairs = set()

    def _enqueue(self, log, followers, upto_seq, records):
        due = self.tick_count + self.lag
        for server_index in followers:
            key = (log.list_id, server_index)
            queue = self._due.get(key)
            if queue is None:
                queue = self._due[key] = deque()
                heapq.heappush(self._pair_schedule, (due, *key))
            queue.extend([(due, upto_seq, self.tick_count)] * records)

    def deliver_due(self):
        total = 0
        for key in [k for k in self._held_pairs if self._deliverable(k[1])]:
            total += self._drain(key)
        schedule = self._pair_schedule
        while schedule and schedule[0][0] <= self.tick_count:
            due, list_id, server_index = heapq.heappop(schedule)
            key = (list_id, server_index)
            queue = self._due.get(key)
            if not queue or queue[0][0] != due:
                continue  # dead entry: its queue was emptied since the push
            if self._deliverable(server_index):
                total += self._drain(key)
            else:
                self._held_pairs.add(key)
        self.stats.follower_ops_applied += total
        return total

    def _drain(self, key):
        self._held_pairs.discard(key)
        queue = self._due.get(key)
        if not queue:
            return 0
        upto = None
        while queue and queue[0][0] <= self.tick_count:
            _, upto, recorded = queue.popleft()
            self._obs.ack_latency.observe(float(self.tick_count - recorded))
        applied = 0
        log = self._logs[key[0]]
        if upto is not None and upto > log.applied[key[1]]:
            applied = self._apply_runs(key[1], [(log, upto)])
            while queue and queue[0][1] <= upto:
                queue.popleft()
        if queue:
            heapq.heappush(self._pair_schedule, (queue[0][0], *key))
        else:
            self._due.pop(key, None)
        return applied

    def _catch_up(self, server_index, logs, reason):
        logs = list(logs)
        behind = [log for log in logs if log.applied[server_index] < log.head_seq]
        applied = super()._catch_up(server_index, logs, reason)
        for log in behind:
            self._due.pop((log.list_id, server_index), None)
        return applied

    def force_acks(self, list_ids, consistency):
        for list_id in list_ids:
            replicas = self._replicas_of(list_id)
            needed = consistency.required_acks(len(replicas))
            head = self.head_version(list_id)
            versions = {s: self.applied_version(list_id, s) for s in replicas}
            acked = sum(1 for version in versions.values() if version >= head)
            stale = sorted(
                (
                    s
                    for s in replicas[1:]
                    if versions[s] < head and self._deliverable(s)
                ),
                key=lambda s: -versions[s],
            )
            for server_index in stale:
                if acked >= needed:
                    break
                if self.sync(list_id, server_index, reason="write-ack"):
                    acked += 1

    def restore_list_state(self, list_id, *state):
        for key in [k for k in self._due if k[0] == list_id]:
            del self._due[key]
        super().restore_list_state(list_id, *state)

    def outstanding_deliveries(self):
        return sum(len(queue) for queue in self._due.values())

    def pending_lag_ticks(self, list_id, server_index):
        queue = self._due.get((list_id, server_index))
        if not queue:
            return 0
        return max(0, queue[-1][0] - self.tick_count)


class _RecordingServer:
    """Stands in for a server: notes every op the manager applies to it,
    and every run it hands over in one call."""

    def __init__(self, index, world):
        self.index, self.world = index, world

    def apply_replicated_ops(self, runs):
        applied = 0
        for list_id, ops in runs:
            self.world.runs.append((list_id, self.index, [op.seq for op in ops]))
            for op in ops:
                self.world.note(list_id, self.index, op.element.ciphertext)
            applied += len(ops)
        return applied


SCHED_LISTS = 3
SCHED_SERVERS = 4
SYNC_REASONS = ("repair", "anti-entropy", "write-ack", "failover")


class _World:
    """One manager under test with the placement, liveness and partitions
    it is judged against; ``applications`` is every (tick, list, server,
    seq) it applied."""

    def __init__(
        self, manager_cls, lag, anti_entropy_every, spread=True, telemetry=False
    ):
        self.manager_cls = manager_cls
        self.lag, self.anti_entropy_every = lag, anti_entropy_every
        self.telemetry = Telemetry() if telemetry else None
        # Three replicas a list: rotated over the servers, or all on 0-2.
        self.placement = {
            list_id: [(list_id * spread + i) % SCHED_SERVERS for i in range(3)]
            for list_id in range(SCHED_LISTS)
        }
        self.alive = [True] * SCHED_SERVERS
        self.paused = set()
        self.alive_calls = 0
        self.applications: list[tuple[int, int, int, int]] = []
        # (list, server, seqs) per server call: the run it was handed.
        self.runs: list[tuple[int, int, list[int]]] = []
        self.servers = [_RecordingServer(i, self) for i in range(SCHED_SERVERS)]
        self.manager = self._new_manager()

    def _new_manager(self):
        return self.manager_cls(
            self.servers,
            replicas_of=lambda list_id: self.placement[list_id],
            reachable=self._is_reachable,
            num_lists=SCHED_LISTS,
            lag=self.lag,
            anti_entropy_every=self.anti_entropy_every,
            instruments=ReplicationInstruments(self.telemetry),
        )

    def _is_reachable(self, server_index):
        self.alive_calls += 1
        return self.alive[server_index] and server_index not in self.paused

    def pause(self, server_index):
        self.paused.add(server_index)

    def resume(self, server_index):
        self.paused.discard(server_index)

    def note(self, list_id, server_index, ciphertext):
        number = int(ciphertext.rstrip(b"."))  # the op's sealed(b"%d") label
        self.applications.append(
            (self.manager.tick_count, list_id, server_index, number)
        )

    # -- steps ---------------------------------------------------------------

    def record(self, list_id, delete):
        m = self.manager
        primary = self.placement[list_id][0]
        if m.applied_version(list_id, primary) < m.head_version(list_id):
            m.sync(list_id, primary, reason="write-catchup")
            if m.applied_version(list_id, primary) < m.head_version(list_id):
                return  # an unreachable gapped primary refuses the write
        payload = sealed(b"%d" % (m.head_version(list_id) + 1))
        if delete:
            m.record_delete([(list_id, _element(0.5, payload))])
        else:
            m.record_insert([(list_id, _element(0.5, payload))])

    def snapshot_restore(self):
        """A restart: a fresh manager reinstated from the durable state
        (the stand-in servers hold no list, so every run is empty)."""
        old, self.manager = self.manager, self._new_manager()
        self.manager.stats = old.stats
        self.manager.restore_clock(old.tick_count)
        for list_id in range(SCHED_LISTS):
            head, base, ops = old.log_snapshot(list_id)
            self.manager.restore_list_state(
                list_id, head, base, [], ops, old.applied_snapshot(list_id)
            )

    def step(self, code, a, b):
        m, list_id, server = self.manager, a % SCHED_LISTS, b % SCHED_SERVERS
        if code <= 3:
            self.record(list_id, delete=code == 3)
        elif code <= 6:
            m.tick()
        elif code == 7:
            m.deliver_due()
        elif code == 8:
            if server in self.placement[list_id]:
                m.sync(list_id, server, reason=SYNC_REASONS[(a + b) % 4])
        elif code == 9:
            self.pause(server)
        elif code == 10:
            self.resume(server)
        elif code == 11:
            self.alive[server] = False
        elif code == 12:
            self.alive[server] = True
        elif code == 13:
            self.snapshot_restore()
        else:
            level = WriteConsistency.QUORUM if code == 14 else WriteConsistency.ALL
            m.force_acks([list_id, (list_id + 1) % SCHED_LISTS], level)

    def observe(self):
        m = self.manager
        pairs = [(l, s) for l in range(SCHED_LISTS) for s in self.placement[l]]
        latency = None
        if self.telemetry is not None:
            series = self.telemetry.registry.get("replication_ack_latency_ticks")
            latency = (series.count(), series.sum())
        return {
            "ack_latency": latency,
            "applications": sorted(self.applications),
            "applied": {pair: m.applied_version(*pair) for pair in pairs},
            "pending_lag": {pair: m.pending_lag_ticks(*pair) for pair in pairs},
            "backlog": m.backlog(),
            "outstanding": m.outstanding_deliveries(),
            "log_lengths": m.log_lengths(),
            "stats": m.stats,
            "tick": m.tick_count,
        }


def _every_bucket_is_scheduled_or_held(manager):
    """The scheduler's invariant: each bucket sits in exactly one of the
    heap and the held table — no bucket is forgotten, no key is dead."""
    keys = manager._schedule + [
        (due, server) for server, dues in manager._held.items() for due in dues
    ]
    return sorted(keys) == sorted(manager._buckets) and len(set(keys)) == len(keys)


SCHEDULES = dict(
    steps=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 11), st.integers(0, 11)),
        max_size=90,
    ),
    lag=st.integers(0, 3),
    anti_entropy_every=st.sampled_from([None, 4, 7]),
)


class TestDeliveryScheduler:
    def _refines_the_per_pair_scheduler(self, steps, lag, anti_entropy_every, telemetry):
        new = _World(ReplicationManager, lag, anti_entropy_every, telemetry=telemetry)
        ref = _World(_PerPairManager, lag, anti_entropy_every, telemetry=telemetry)
        for number, (code, a, b) in enumerate(steps):
            new.step(code, a, b)
            ref.step(code, a, b)
            assert new.observe() == ref.observe(), (number, code, a, b)
            assert _every_bucket_is_scheduled_or_held(new.manager)
        # Healed and given time, both drain completely — and no bucket,
        # schedule entry or held key outlives the last due tick.
        for world in (new, ref):
            world.alive = [True] * SCHED_SERVERS
            for server in range(SCHED_SERVERS):
                world.resume(server)
            for _ in range(lag + 6):
                world.manager.tick()
        assert new.observe() == ref.observe()
        m = new.manager
        assert m.backlog() == {}
        assert m.outstanding_deliveries() == 0
        assert (m._buckets, m._schedule, m._held) == ({}, [], {})
        assert not any(log.pending for log in m._logs.values())
        # Each server call carried one non-empty, gap-free run of its log.
        for _, _, seqs in new.runs:
            assert seqs and seqs == list(range(seqs[0], seqs[0] + len(seqs)))

    @settings(max_examples=120, deadline=None)
    @given(**SCHEDULES)
    def test_due_index_matches_the_full_scan(self, steps, lag, anti_entropy_every):
        """Every application, version, backlog, outstanding count, pending
        lag, log length and stats field equals the per-pair reference
        after every step of a random schedule."""
        self._refines_the_per_pair_scheduler(
            steps, lag, anti_entropy_every, telemetry=False
        )

    @settings(max_examples=60, deadline=None)
    @given(**SCHEDULES)
    def test_buckets_observe_the_ack_latencies_the_records_would(
        self, steps, lag, anti_entropy_every
    ):
        """Telemetry on: the same, and the ``replication_ack_latency_ticks``
        series (count and sum) — one observation per delivered record."""
        self._refines_the_per_pair_scheduler(
            steps, lag, anti_entropy_every, telemetry=True
        )

    def _loaded(self, lag=3, queues=40):
        world = _World(ReplicationManager, lag, None, spread=False)
        for _ in range(queues):
            for list_id in range(SCHED_LISTS):
                world.record(list_id, delete=False)
        world.alive_calls = 0
        return world

    def test_nothing_due_consults_no_server(self):
        world = self._loaded()
        # One bucket per follower and tick, however many lists and ops.
        assert sorted(world.manager._buckets) == [(3, 1), (3, 2)]
        for _ in range(50):
            assert world.manager.deliver_due() == 0
        assert world.alive_calls == 0
        assert world.manager.outstanding_deliveries() == 2 * SCHED_LISTS * 40
        assert len(world.manager._schedule) == 2

    @pytest.mark.parametrize("outage", ["pause", "down"])
    def test_held_delivery_goes_out_on_the_first_call_after_recovery(self, outage):
        world = self._loaded(lag=1, queues=2)
        m = world.manager
        if outage == "pause":
            world.pause(2)
        else:
            world.alive[2] = False
        applied = m.tick()  # everything comes due; server 2 is unreachable
        assert applied == 2 * SCHED_LISTS
        assert m._held == {2: [1]}
        assert m.reachable_backlog() == {}
        assert m.delivery_outlook(2) == DeliveryOutlook(None, 0, 1)
        # While the outage lasts a call costs one liveness check per
        # *server* with something held — not per list behind it — and
        # moves nothing.
        world.alive_calls = 0
        assert m.deliver_due() == 0
        assert world.alive_calls == 1
        # Nobody tells the manager about the recovery ...
        if outage == "pause":
            world.resume(2)
        else:
            world.alive[2] = True
        # ... and the very next call, without a tick, delivers.
        assert m.deliver_due() == 2 * SCHED_LISTS
        assert m.backlog() == {}
        assert (m._held, m._buckets, m._schedule) == ({}, {}, [])

    def test_a_long_outage_is_asked_about_once_per_round(self):
        """Held buckets pile up under their server's name: however long
        the outage, a round asks about the server once, and the recovery
        delivers the backlog oldest first."""
        world = _World(ReplicationManager, 1, None, spread=False)
        m = world.manager
        world.alive[2] = False
        for _ in range(25):
            world.record(0, delete=False)
            m.tick()
        assert len(m._held[2]) == 25 and m.delivery_outlook(2).held == 25
        world.alive_calls = 0
        assert m.deliver_due() == 0
        assert world.alive_calls == 1
        world.alive[2] = True
        world.applications.clear()
        assert m.deliver_due() == 25
        assert [seq for *_, seq in world.applications] == list(range(1, 26))
        assert m._held == {} and m.backlog() == {}

    def test_snapshot_mid_lag_delivers_exactly_the_outstanding_ops(self):
        world = _World(ReplicationManager, 2, None, spread=False)
        world.pause(2)
        for _ in range(3):
            world.record(0, delete=False)
        world.manager.tick()
        world.record(0, delete=True)
        world.manager.tick()  # tick 2: server 1 receives ops 1-3, 2's are held
        assert world.manager.backlog() == {(0, 1): 1, (0, 2): 4}
        world.snapshot_restore()
        m = world.manager
        assert m.backlog() == {(0, 1): 1, (0, 2): 4}
        assert _every_bucket_is_scheduled_or_held(m)
        assert m.delivery_outlook(1) == DeliveryOutlook(4, 1, 0)
        assert m.delivery_outlook(2) == DeliveryOutlook(4, 1, 0)
        world.applications.clear()
        m.tick()
        m.tick()  # tick 4: server 2's remainder comes due while paused
        assert m.delivery_outlook(2) == DeliveryOutlook(None, 0, 1)
        world.resume(2)
        m.tick()
        # Re-registered at the restored clock: each follower's remainder
        # arrives one lag after it (server 2's on the first tick it is
        # back), whole and in order, nothing twice.
        assert world.applications == [
            (4, 0, 1, 4),
            (5, 0, 2, 1),
            (5, 0, 2, 2),
            (5, 0, 2, 3),
            (5, 0, 2, 4),
        ]
        assert m.backlog() == {} and m.outstanding_deliveries() == 0

    def test_slack_below_every_replica_is_truncated_on_restore(self):
        """The log base sits at the minimum applied version — also after a
        restore from a dump that kept more — so only the replica *at* the
        base needs to look for something to truncate."""
        world = _World(ReplicationManager, 2, None, spread=False)
        for _ in range(3):
            world.record(0, delete=False)
        head, base, ops = world.manager.log_snapshot(0)
        assert (head, base, len(ops)) == (3, 0, 3)
        world.manager = m = world._new_manager()
        m.restore_list_state(0, head, base, [], ops, {0: 3, 1: 2, 2: 2})
        assert m.log_snapshot(0)[1] == 2 and m.log_lengths()[0] == 1
        m.sync(0, 1)
        assert m.log_lengths()[0] == 1  # server 2 still needs op 3
        m.sync(0, 2)
        assert m.log_lengths()[0] == 0

    # -- what a catch-up leaves scheduled ------------------------------------

    def _twins(self, lag):
        return [
            _World(cls, lag, None, spread=False)
            for cls in (ReplicationManager, _PerPairManager)
        ]

    def test_forced_ack_then_another_record_in_the_same_tick(self):
        """The forced follower's entry in this tick's bucket is dropped by
        the catch-up and re-created by the next record — one record owed,
        not two, and none delivered twice."""
        for world in self._twins(lag=2):
            m = world.manager
            world.record(0, delete=False)
            assert m.outstanding_deliveries() == 2
            m.force_acks([0], WriteConsistency.QUORUM)
            assert m.applied_version(0, 1) == 1
            assert (m.pending_lag_ticks(0, 1), m.pending_lag_ticks(0, 2)) == (0, 2)
            assert m.outstanding_deliveries() == 1
            world.record(0, delete=False)
            assert (m.pending_lag_ticks(0, 1), m.pending_lag_ticks(0, 2)) == (2, 2)
            assert m.outstanding_deliveries() == 3
            m.tick()
            m.tick()
            assert world.applications == [
                (0, 0, 1, 1),
                (2, 0, 1, 2),
                (2, 0, 2, 1),
                (2, 0, 2, 2),
            ]
            assert m.outstanding_deliveries() == 0 and m.backlog() == {}
            assert m.stats.write_ack_syncs == 1

    def test_partial_drain_under_a_pause(self):
        """Resumed between two due ticks, the follower receives the held
        bucket at once and keeps waiting for the one not yet due."""
        for world in self._twins(lag=2):
            m = world.manager
            world.pause(2)
            world.record(0, delete=False)  # due at 2
            m.tick()
            world.record(0, delete=False)  # due at 3
            world.record(1, delete=False)  # due at 3
            m.tick()  # tick 2: server 2's first delivery is held
            assert m.applied_version(0, 2) == 0
            assert m.pending_lag_ticks(0, 2) == 1
            world.resume(2)
            assert m.deliver_due() == 1
            assert m.applied_version(0, 2) == 1
            assert m.pending_lag_ticks(0, 2) == 1
            assert m.outstanding_deliveries() == 4
            m.tick()
            assert m.outstanding_deliveries() == 0 and m.backlog() == {}
            assert [a for a in world.applications if a[2] == 2] == [
                (2, 0, 2, 1),
                (3, 0, 2, 2),
                (3, 1, 2, 1),
            ]

    def test_a_refused_record_leaves_no_trace(self):
        """A gapped primary is refused before the op is appended: head,
        retained ops, backlog, what is scheduled and stats stay as they
        were — those of a sound list earlier in the same batch too."""
        world = _World(ReplicationManager, 2, None, spread=False)
        m = world.manager
        world.record(0, delete=False)
        assert m.backlog() == {(0, 1): 1, (0, 2): 1}
        world.placement[0] = [1, 0, 2]  # a replica at version 0 now leads

        def state():
            return (
                m.log_snapshot(0),
                m.log_snapshot(1),
                m.backlog(),
                m.outstanding_deliveries(),
                m.pending_lag_ticks(0, 0),
                m.pending_lag_ticks(0, 1),
                dataclass_replace(m.stats),
            )

        before = state()
        for record in (
            lambda: m.record_insert([(0, _element(0.5, sealed(b"2")))]),
            lambda: m.record_delete([(0, _element(0.5, sealed(b"1")))]),
            lambda: m.record_insert(
                [(1, _element(0.5, sealed(b"1"))), (0, _element(0.5, sealed(b"2")))]
            ),
        ):
            with pytest.raises(ProtocolError, match="cannot acknowledge op 2"):
                record()
            assert state() == before
        assert before[0][0] == 1 and before[2] == {(0, 1): 1, (0, 2): 1}


class _CountedLiveness(list):
    """A cluster's liveness table that counts how often it is consulted."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestWriteBatchWorkBound:
    """The replication plane's bookkeeping for one document is bounded by
    the servers it reaches, not by the lists it touches — counted."""

    LISTS, SERVERS = 12, 4

    @pytest.fixture()
    def counted(self, keys, monkeypatch):
        import repro.core.replication as replication

        cluster = ServerCluster(
            keys,
            num_lists=self.LISTS,
            num_servers=self.SERVERS,
            replication=3,
            lag=2,
            write_consistency="quorum",
        )
        repl = cluster.replication_manager
        counts = {"push": 0, "pop": 0, "dead": 0, "rounds": 0}
        push, pop = replication.heappush, replication.heappop
        deliver_due = repl.deliver_due

        def counting_push(heap, key):
            counts["push"] += 1
            push(heap, key)

        def counting_pop(heap):
            counts["pop"] += 1
            key = pop(heap)
            counts["dead"] += not repl._buckets.get(key)
            return key

        def counting_round():
            counts["rounds"] += 1
            return deliver_due()

        monkeypatch.setattr(replication, "heappush", counting_push)
        monkeypatch.setattr(replication, "heappop", counting_pop)
        monkeypatch.setattr(repl, "deliver_due", counting_round)
        cluster._alive = liveness = _CountedLiveness(cluster._alive)
        return cluster, counts, liveness

    def test_a_document_write_is_bounded_by_servers_not_lists(self, counted):
        cluster, counts, liveness = counted
        repl = cluster.replication_manager
        items = [
            (
                list_id,
                _element(
                    0.1 * copy + 0.01 * list_id, sealed(b"w%d-%d" % (list_id, copy))
                ),
            )
            for copy in range(2)
            for list_id in range(self.LISTS)
        ]
        assert cluster.insert_many("u", items) == 2 * self.LISTS
        assert liveness.reads <= 2 * self.SERVERS
        assert 1 <= counts["push"] <= self.SERVERS
        assert (counts["rounds"], counts["pop"]) == (1, 0)
        # One forced catch-up per touched list, two ops each.
        assert repl.stats.write_ack_syncs == self.LISTS
        assert repl.stats.write_ack_ops == 2 * self.LISTS
        assert repl.outstanding_deliveries() == 2 * self.LISTS

        liveness.reads = 0
        cluster.replication_tick()
        assert (counts["pop"], liveness.reads) == (0, 0)
        assert cluster.replication_tick() == 2 * self.LISTS
        assert 1 <= counts["pop"] <= self.SERVERS
        assert counts["dead"] == 0
        assert liveness.reads <= self.SERVERS
        assert cluster.replication_backlog() == {}
        assert repl.outstanding_deliveries() == 0


class TestWritePathFrameBudget:
    """The frames one document's write path enters, end to end, on the
    deployment shape of the ``mixed-write-read`` benchmark (replication
    3, lag 2, ``QUORUM`` writes): the client's insert of a document, a
    replication tick, the delete of its receipts and a second tick,
    which delivers the insert to the follower the ack did not force.

    Per element it pays the build (4 frames, :class:`TestWriteFrameBudget`
    in ``test_crypto_hotpath.py``), the locate at the primary and the
    per-op list calls at each replica; per touched list, one slice of the
    log per replica it reaches, one delivery entry per list and the
    client's version floor; per touched server, one
    ``apply_replicated_ops`` call for a primary's runs, a forced
    follower's, a delivery bucket's.  No call is made per (list,
    replica) pair at the server, nor per op at the log."""

    # 18 elements over 18 lists, four servers.  The count on CPython
    # 3.11, exact (3.12 inlines comprehensions and only reads lower): 838
    # since a write batch reaches each replica server in one call and is
    # recorded in one call (1 590 at the parent, where each replica of
    # each list took its own apply call and each op its own record call).
    FRAME_BUDGET = 838

    def test_frames_entered_by_one_document_write_stay_under_budget(
        self, micro_corpus
    ):
        system = ZerberRSystem.build(micro_corpus, SystemConfig(r=4.0, seed=5))
        cluster, _ = system.deploy_cluster(
            num_servers=4, replication=3, lag=2, write_consistency="quorum"
        )
        cluster.run_replication_until_quiet()
        client = system.client_for("superuser", server=cluster)
        source = list(micro_corpus)[1]
        counts = dict(micro_corpus.stats(source.doc_id).counts)
        doc = DocumentStats.from_counts("budget-doc", counts)

        def write():
            receipts = client.index_document_with_receipts(doc, source.group)
            cluster.replication_tick()
            assert client.delete_document(receipts) == len(receipts)
            cluster.replication_tick()
            return receipts

        # The first write mints the document's number; the second, the one
        # counted, writes the very same ciphertexts.
        receipts = write()
        assert len({receipt.list_id for receipt in receipts}) == len(receipts) == 18
        stats = cluster.replication_stats
        synced, logged = stats.write_ack_syncs, stats.ops_logged
        frames = _frames_entered(write)
        # One forced follower per list and write, one op per element and
        # write — and the counted write wrote what the first one did.
        assert stats.write_ack_syncs - synced == 2 * 18
        assert stats.ops_logged - logged == 2 * 18
        assert frames <= self.FRAME_BUDGET, frames
