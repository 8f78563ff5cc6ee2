"""The W×R consistency matrix: quorum writes, failover, staleness, sessions.

Companion to ``test_core_replication.py`` (the R side of the matrix and
the log machinery): this file exercises the write-side ack levels, the
primary-failover election, stale ``ONE`` reads, and the client session
guarantees (read-your-writes + monotonic reads), plus the dead-primary
routing matrix.
"""

import random

import pytest

from repro.core.client import ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.protocol import FetchRequest, Receipt
from repro.core.replication import ReadConsistency, WriteConsistency
from repro.core.rstf import RstfModel, train_rstf
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    QuorumUnavailableError,
    QuorumWriteUnavailableError,
    UnavailableError,
)
from repro.index.merge import MergePlan
from repro.index.postings import EncryptedPostingElement
from repro.text.analysis import DocumentStats
from tests.conftest import sealed


@pytest.fixture()
def keys():
    svc = GroupKeyService(master_secret=b"w" * 32)
    svc.register("u", {"g"})
    return svc


def _element(trs, payload=sealed(b"cipher")):
    return EncryptedPostingElement(ciphertext=payload, group="g", trs=trs)


def _fetch(cluster, list_id, count=8, consistency=None, min_version=0):
    """One slice of *list_id*; a *consistency* given becomes the
    cluster's read level first (the one place a level lives)."""
    if consistency is not None:
        cluster.read_consistency = ReadConsistency.coerce(consistency)
    return cluster.fetch(
        FetchRequest(
            principal="u",
            list_id=list_id,
            offset=0,
            count=count,
            min_version=min_version,
        )
    )


class TestWriteConsistencyEnum:
    def test_coercion(self):
        assert WriteConsistency.coerce(None) is WriteConsistency.ONE
        assert WriteConsistency.coerce("quorum") is WriteConsistency.QUORUM
        assert WriteConsistency.coerce("ALL") is WriteConsistency.ALL
        assert (
            WriteConsistency.coerce(WriteConsistency.QUORUM)
            is WriteConsistency.QUORUM
        )
        with pytest.raises(ConfigurationError):
            WriteConsistency.coerce("majority")

    def test_required_acks(self):
        assert WriteConsistency.ONE.required_acks(3) == 1
        assert WriteConsistency.QUORUM.required_acks(3) == 2
        assert WriteConsistency.QUORUM.required_acks(5) == 3
        assert WriteConsistency.ALL.required_acks(3) == 3
        assert WriteConsistency.QUORUM.required_acks(1) == 1


class TestQuorumWrites:
    def _cluster(self, keys, num_servers=3, replication=3, **kwargs):
        return ServerCluster(
            keys,
            num_lists=1,
            num_servers=num_servers,
            replication=replication,
            **kwargs,
        )

    def test_quorum_write_forces_acks_through_log(self, keys):
        cluster = self._cluster(keys, lag=10, write_consistency="quorum")
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        versions = sorted(
            cluster.applied_version(0, s) for s in cluster.replicas_of(0)
        )
        # Primary + one follower hold the op at ack time; the third copy
        # still arrives later through normal lag-driven delivery.
        assert versions == [0, 1, 1]
        stats = cluster.replication_stats
        assert stats.write_ack_syncs == 1
        assert stats.write_ack_ops == 1
        cluster.run_replication_until_quiet()
        assert all(
            cluster.applied_version(0, s) == 1 for s in cluster.replicas_of(0)
        )

    def test_all_write_forces_every_replica(self, keys):
        cluster = self._cluster(keys, lag=10, write_consistency="all")
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        assert all(
            cluster.applied_version(0, s) == 1 for s in cluster.replicas_of(0)
        )
        assert cluster.replication_backlog() == {}

    def test_quorum_ack_prefers_most_caught_up_follower(self, keys):
        cluster = self._cluster(keys, lag=10, write_consistency="quorum")
        cluster.pause_follower(1)
        cluster.insert("u", 0, _element(0.5, sealed(b"a")))
        cluster.resume_follower(1)  # server 2 at v1; server 1 at v0
        cluster.insert("u", 0, _element(0.6, sealed(b"b")))
        # The nearer follower (2) was synced for the ack, ahead of the one
        # placement lists first; 1 stays behind.
        assert cluster.applied_version(0, 2) == 2
        assert cluster.applied_version(0, 1) == 0

    def test_quorum_write_refused_before_mutation(self, keys):
        cluster = self._cluster(keys, lag=1)
        cluster.insert("u", 0, _element(0.5, sealed(b"a")))
        cluster.fail_server(1)
        cluster.fail_server(2)
        cluster.write_consistency = WriteConsistency.QUORUM
        with pytest.raises(QuorumWriteUnavailableError) as excinfo:
            cluster.insert("u", 0, _element(0.6, sealed(b"b")))
        err = excinfo.value
        assert err.list_id == 0
        assert err.needed == 2
        assert err.live_replicas == (0,)
        assert set(err.down_replicas) == {1, 2}
        assert err.paused_replicas == ()
        assert isinstance(err, QuorumUnavailableError)  # legacy handlers
        # Clean no-op refusal: nothing was logged or applied anywhere.
        assert cluster.primary_version(0) == 1
        assert cluster.server(0).list_length(0) == 1

    def test_paused_follower_is_not_ack_capable(self, keys):
        cluster = self._cluster(
            keys, num_servers=2, replication=2, lag=1, write_consistency="all"
        )
        cluster.pause_follower(1)
        with pytest.raises(QuorumWriteUnavailableError) as excinfo:
            cluster.insert("u", 0, _element(0.5))
        assert excinfo.value.paused_replicas == (1,)
        # A paused *primary* still applies writes inline (pausing only
        # blocks deliveries TO it), so it stays ack-capable.
        cluster.resume_follower(1)
        cluster.pause_follower(0)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        assert cluster.applied_version(0, 0) == 1
        assert cluster.applied_version(0, 1) == 1

    def test_one_write_keeps_durable_primary_idealisation(self, keys):
        cluster = self._cluster(keys, num_servers=2, replication=2, lag=1)
        cluster.fail_server(cluster.replicas_of(0)[0])
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))  # W=ONE still lands
        assert cluster.primary_version(0) == 1
        cluster.write_consistency = WriteConsistency.QUORUM
        with pytest.raises(QuorumWriteUnavailableError):
            cluster.insert("u", 0, _element(0.6))

    def test_cluster_default_write_consistency(self, keys):
        cluster = self._cluster(keys, lag=10, write_consistency="quorum")
        assert cluster.write_consistency is WriteConsistency.QUORUM
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        at_head = [
            s
            for s in cluster.replicas_of(0)
            if cluster.applied_version(0, s) == 1
        ]
        assert len(at_head) >= 2
        # Assigning ONE relaxes the setting back down.
        cluster.fail_server(cluster.replicas_of(0)[2])
        cluster.write_consistency = WriteConsistency.ONE
        cluster.insert("u", 0, _element(0.6, sealed(b"y")))

    def test_batch_writes_honor_consistency(self, keys):
        cluster = self._cluster(keys, lag=10, write_consistency="all")
        items = [(0, _element(0.1 * i, sealed(b"b%d" % i))) for i in range(1, 4)]
        assert cluster.insert_many("u", items) == 3
        assert all(
            cluster.applied_version(0, s) == 3 for s in cluster.replicas_of(0)
        )
        assert cluster.delete_element("u", Receipt(0, sealed(b"b1"), 0.1))
        assert all(
            cluster.applied_version(0, s) == 4 for s in cluster.replicas_of(0)
        )

    def test_acked_quorum_write_survives_primary_crash(self, keys):
        """The point of W=QUORUM: kill the primary right after the ack
        and the op is still served — no acked write lost."""
        cluster = self._cluster(
            keys, lag=10, write_consistency="quorum", read_consistency="quorum"
        )
        cluster.insert("u", 0, _element(0.9, sealed(b"acked")))
        cluster.fail_server(cluster.replicas_of(0)[0])
        response = _fetch(cluster, 0)
        assert [e.ciphertext for e in response.elements] == [sealed(b"acked")]


class TestMatrixUnderLag:
    """Every W×R cell under one seeded write/read mix — Zipf-skewed lists,
    a replication tick every third write, and one server at a time
    partitioned for half of every ten writes, so reads of the lists it
    leads go to followers — on a fresh cluster per cell, at lag 0 and at
    two lags above."""

    WRITES = ("one", "quorum", "all")
    READS = ("one", "primary", "quorum")
    LISTS = 8
    SERVERS = 4

    def _mix(self, keys, lag, write, read):
        """``(stale reads, writes held by no quorum when the call
        returned, forced ack syncs, refused writes)`` of one cell."""
        cluster = ServerCluster(
            keys,
            num_lists=self.LISTS,
            num_servers=self.SERVERS,
            replication=3,
            lag=lag,
            read_consistency=read,
            write_consistency=write,
        )
        rng = random.Random(7)
        zipf = [1.0 / (rank + 1) for rank in range(self.LISTS)]
        late_acks = refused = 0
        for serial in range(60):
            window, step = divmod(serial, 10)
            if step == 0:
                cluster.pause_follower(window % self.SERVERS)
            elif step == 5:
                cluster.resume_follower(window % self.SERVERS)
            (list_id,) = rng.choices(range(self.LISTS), zipf)
            try:
                element = _element(rng.random(), sealed(b"w%d" % serial))
                cluster.insert("u", list_id, element)
            except QuorumWriteUnavailableError:
                refused += 1  # ALL cannot reach a partitioned follower
            else:
                head = cluster.primary_version(list_id)
                replicas = cluster.replicas_of(list_id)
                holders = sum(
                    cluster.applied_version(list_id, s) >= head for s in replicas
                )
                late_acks += holders < len(replicas) // 2 + 1
            for _ in range(2):
                (list_id,) = rng.choices(range(self.LISTS), zipf)
                _fetch(cluster, list_id, count=5)
            if serial % 3 == 2:
                cluster.replication_tick()
        stats = cluster.replication_stats
        return stats.stale_reads_detected, late_acks, stats.write_ack_syncs, refused

    @pytest.mark.parametrize("lag", [0, 1, 4])
    def test_acks_syncs_and_staleness_in_every_cell(self, keys, lag):
        cell = {
            (write, read): self._mix(keys, lag, write, read)
            for write in self.WRITES
            for read in self.READS
        }
        for write in self.WRITES:
            # QUORUM reads are never staler than ONE reads of the same mix.
            assert cell[write, "quorum"][0] <= cell[write, "one"][0], write
        for (write, read), (stale, late_acks, syncs, refused) in cell.items():
            assert (refused > 0) == (write == "all"), (write, read)
            if lag == 0 or write == "all":
                assert stale == 0, (write, read)
            if lag == 0:  # every op is delivered in the call that records it
                assert (late_acks, syncs) == (0, 0), (write, read)
            elif write == "one":  # acks at the primary, the quorum forms later
                assert late_acks > 0 and syncs == 0, read
            else:  # acks forced through the log, at the write
                assert late_acks == 0 and syncs >= 1, (write, read)
        if lag:  # lag shows: ONE reads past a partitioned primary are stale
            assert cell["one", "one"][0] > 0


class TestFailoverElection:
    def _cluster(self, keys, **kwargs):
        kwargs.setdefault("failover_after", 2)
        kwargs.setdefault("lag", 1)
        return ServerCluster(
            keys, num_lists=1, num_servers=3, replication=3, **kwargs
        )

    def test_failover_after_validation(self, keys):
        with pytest.raises(ConfigurationError):
            ServerCluster(keys, num_lists=1, num_servers=1, failover_after=0)

    def test_primary_deposed_after_threshold(self, keys):
        cluster = self._cluster(keys)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        cluster.run_replication_until_quiet()
        old_primary = cluster.replicas_of(0)[0]
        epoch_before = cluster.placement_epoch
        cluster.fail_server(old_primary)
        cluster.replication_tick()  # timer starts
        assert cluster.replicas_of(0)[0] == old_primary  # below threshold
        cluster.replication_tick()
        cluster.replication_tick()  # tick - since >= 2: election fires
        new_primary = cluster.replicas_of(0)[0]
        assert new_primary != old_primary
        assert cluster.placement_epoch == epoch_before + 1
        assert cluster.applied_version(0, new_primary) == 1
        events = cluster.failover_history()
        assert len(events) == 1
        assert events[0].old_primary == old_primary
        assert events[0].new_primary == new_primary
        assert events[0].list_id == 0
        assert cluster.replication_stats.failovers == 1
        # The deposed server stays in the replica set, demoted.
        assert old_primary in cluster.replicas_of(0)

    def test_election_promotes_most_caught_up_replica(self, keys):
        cluster = ServerCluster(
            keys,
            num_lists=1,
            num_servers=3,
            replication=3,
            lag=10,
            failover_after=2,
            write_consistency="quorum",
        )
        cluster.pause_follower(1)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        cluster.resume_follower(1)  # server 2 at v1, server 1 at v0
        assert cluster.applied_version(0, 2) == 1
        assert cluster.applied_version(0, 1) == 0
        cluster.fail_server(0)
        for _ in range(3):
            cluster.replication_tick()
        assert cluster.replicas_of(0)[0] == 2
        assert cluster.replication_stats.failover_ops == 0  # already at head

    def test_election_syncs_winner_to_head_first(self, keys):
        cluster = self._cluster(keys, lag=100)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))  # followers 100 ticks back
        cluster.fail_server(cluster.replicas_of(0)[0])
        for _ in range(3):
            cluster.replication_tick()
        new_primary = cluster.replicas_of(0)[0]
        assert cluster.applied_version(0, new_primary) == 1
        assert cluster.replication_stats.failover_ops == 1
        # Writes acknowledge at the elected primary from the old head.
        cluster.insert("u", 0, _element(0.6, sealed(b"y")))
        assert cluster.primary_version(0) == 2
        assert {
            e.ciphertext for e in cluster.server(new_primary).export_list(0)
        } == {sealed(b"x"), sealed(b"y")}

    def test_no_election_without_reachable_candidate(self, keys):
        cluster = self._cluster(keys)
        cluster.fail_server(0)
        cluster.pause_follower(1)
        cluster.fail_server(2)
        for _ in range(5):
            cluster.replication_tick()
        assert cluster.replicas_of(0)[0] == 0  # nobody to elect
        assert cluster.failover_history() == []

    def test_paused_primary_is_deposed_too(self, keys):
        cluster = self._cluster(keys)
        cluster.pause_follower(cluster.replicas_of(0)[0])
        for _ in range(3):
            cluster.replication_tick()
        assert cluster.replicas_of(0)[0] != 0
        assert cluster.unreachable_since()  # 0's timer still live

    def test_restored_old_primary_catches_up_as_follower(self, keys):
        cluster = self._cluster(keys)
        cluster.insert("u", 0, _element(0.5, sealed(b"a")))
        cluster.run_replication_until_quiet()
        old_primary = cluster.replicas_of(0)[0]
        cluster.fail_server(old_primary)
        for _ in range(3):
            cluster.replication_tick()
        cluster.insert("u", 0, _element(0.6, sealed(b"b")))  # lands on new primary
        cluster.restore_server(old_primary)
        cluster.run_replication_until_quiet()
        cluster.replication_tick()  # reachable again: timer clears
        assert old_primary not in cluster.unreachable_since()
        assert cluster.applied_version(0, old_primary) == 2
        new_primary = cluster.replicas_of(0)[0]
        assert [
            e.ciphertext for e in cluster.server(old_primary).export_list(0)
        ] == [
            e.ciphertext for e in cluster.server(new_primary).export_list(0)
        ]
        # No flap-back: the election is sticky until the NEW primary fails.
        assert cluster.replicas_of(0)[0] != old_primary

    def test_timer_resets_when_primary_recovers_in_time(self, keys):
        cluster = self._cluster(keys, failover_after=3)
        primary = cluster.replicas_of(0)[0]
        cluster.fail_server(primary)
        cluster.replication_tick()
        cluster.replication_tick()
        cluster.restore_server(primary)
        cluster.replication_tick()  # reachable again: timer cleared
        assert cluster.unreachable_since() == {}
        for _ in range(4):
            cluster.replication_tick()
        assert cluster.replicas_of(0)[0] == primary
        assert cluster.failover_history() == []

    def test_failover_disabled_by_default(self, keys):
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=2, replication=2, lag=1
        )
        assert cluster.failover_after is None
        cluster.fail_server(cluster.replicas_of(0)[0])
        for _ in range(10):
            cluster.replication_tick()
        assert cluster.replicas_of(0)[0] == 0
        assert cluster.check_failovers() == []  # direct call: no-op

    def test_restore_failover_state_rejects_unknown_server(self, keys):
        cluster = self._cluster(keys)
        with pytest.raises(ConfigurationError):
            cluster.restore_failover_state(unreachable_since={9: 1})


class TestSessionFloors:
    def _lagged(self, keys):
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=2, replication=2, lag=50
        )
        cluster.insert("u", 0, _element(0.5, sealed(b"old")))
        cluster.run_replication_until_quiet(max_ticks=60)
        cluster.insert("u", 0, _element(0.9, sealed(b"new")))
        cluster.insert("u", 0, _element(0.8, sealed(b"newer")))
        cluster.fail_server(cluster.replicas_of(0)[0])  # follower is 2 behind
        return cluster

    def test_floorless_one_read_serves_stale(self, keys):
        cluster = self._lagged(keys)
        response = _fetch(cluster, 0, consistency="one")
        assert response.replica_version == 1
        assert [e.ciphertext for e in response.elements] == [sealed(b"old")]
        stats = cluster.replication_stats
        assert (stats.floor_reserves, stats.read_reserves) == (0, 0)

    def test_a_floor_below_the_head_is_met_by_a_stale_replica(self, keys):
        cluster = self._lagged(keys)
        response = _fetch(cluster, 0, consistency="one", min_version=1)
        # The follower holds version 1 of 3: the floor holds, so nothing
        # is re-served even though the head is further on.
        assert response.replica_version == 1
        stats = cluster.replication_stats
        assert (stats.floor_reserves, stats.read_reserves) == (0, 0)
        assert stats.stale_reads_detected == 1

    def test_routing_prefers_a_replica_at_the_floor(self, keys):
        cluster = ServerCluster(
            keys,
            num_lists=1,
            num_servers=3,
            replication=3,
            lag=50,
            write_consistency="quorum",
        )
        cluster.pause_follower(1)
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        cluster.resume_follower(1)  # server 2 at head, server 1 at v0
        cluster.fail_server(0)
        for _ in range(4):
            response = _fetch(cluster, 0, consistency="one", min_version=1)
            assert response.replica_version == 1
        # The replica at the floor was routed to directly: no re-serves.
        assert cluster.replication_stats.floor_reserves == 0
        assert cluster.per_server_load() == [0, 0, 4]

    def test_best_effort_when_no_replica_at_the_floor_is_reachable(self, keys):
        cluster = self._lagged(keys)
        cluster.pause_follower(cluster.replicas_of(0)[1])
        response = _fetch(cluster, 0, consistency="one", min_version=3)
        # Primary down, follower partitioned: stale best-effort beats
        # failing a read the floor cannot possibly satisfy.
        assert response.replica_version == 1
        assert cluster.replication_stats.floor_reserves == 0

    def test_min_version_validation(self):
        with pytest.raises(ProtocolError):
            FetchRequest(
                principal="u", list_id=0, offset=0, count=1, min_version=-1
            )

    def test_floor_violation_repairs_and_reserves(self, keys):
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=2, replication=2, lag=50
        )
        cluster.insert("u", 0, _element(0.5, sealed(b"a")))
        cluster.insert("u", 0, _element(0.6, sealed(b"b")))
        cluster.fail_server(cluster.replicas_of(0)[0])
        request = FetchRequest(
            principal="u", list_id=0, offset=0, count=4, min_version=2
        )
        cluster.read_consistency = ReadConsistency.ONE
        response = cluster.fetch(request)
        assert response.replica_version == 2
        assert cluster.replication_stats.floor_reserves == 1

    def test_floor_above_head_is_clamped(self, keys):
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=2, replication=2, lag=50
        )
        cluster.insert("u", 0, _element(0.5, sealed(b"a")))
        cluster.fail_server(cluster.replicas_of(0)[0])
        request = FetchRequest(
            principal="u", list_id=0, offset=0, count=4, min_version=99
        )
        cluster.read_consistency = ReadConsistency.ONE
        response = cluster.fetch(request)
        assert response.replica_version == 1  # head, not 99


class TestClientSessionGuarantees:
    @pytest.fixture()
    def client_keys(self):
        svc = GroupKeyService(master_secret=b"s" * 32)
        svc.register("alice", {"g1"})
        return svc

    @pytest.fixture()
    def model(self):
        return RstfModel(
            {
                "apple": train_rstf([0.1, 0.2, 0.3, 0.5], sigma=20.0),
                "pear": train_rstf([0.05, 0.15, 0.4], sigma=20.0),
            }
        )

    @pytest.fixture()
    def plan(self):
        return MergePlan(groups=(("apple", "pear"),), r=2.0)

    def _client(self, client_keys, backend, model, plan):
        return ZerberRClient(
            principal="alice",
            key_service=client_keys,
            server=backend,
            rstf_model=model,
            merge_plan=plan,
        )

    def _doc(self, doc_id, counts):
        return DocumentStats.from_counts(doc_id, counts)

    def test_read_your_writes_through_dead_primary(self, client_keys, model, plan):
        cluster = ServerCluster(
            client_keys,
            num_lists=1,
            num_servers=2,
            replication=2,
            lag=50,
            read_consistency="one",
        )
        alice = self._client(client_keys, cluster, model, plan)
        alice.index_document_with_receipts(self._doc("d1", {"apple": 3}), "g1")
        assert alice.version_floor(0) == cluster.primary_version(0)
        cluster.fail_server(cluster.replicas_of(0)[0])
        # The surviving follower never received the write; alice's floor
        # forces repair + re-serve, so she still reads her own write.
        result = alice.query("apple", k=5)
        assert result.doc_ids() == ["d1"]
        assert cluster.replication_stats.floor_reserves >= 1

    def test_monotonic_reads_raise_the_floor(self, client_keys, model, plan):
        cluster = ServerCluster(
            client_keys,
            num_lists=1,
            num_servers=2,
            replication=2,
            lag=50,
            read_consistency="one",
        )
        writer = self._client(client_keys, cluster, model, plan)
        reader = self._client(client_keys, cluster, model, plan)
        writer.index_document_with_receipts(self._doc("d1", {"apple": 3}), "g1")
        assert reader.version_floor(0) == 0
        reader.query("apple", k=5)
        # The read's response version became the reader's floor: later
        # reads can never regress below what this one observed.
        assert reader.version_floor(0) == cluster.primary_version(0)

    def test_floors_only_ever_rise(self, client_keys, model, plan):
        cluster = ServerCluster(
            client_keys, num_lists=1, num_servers=2, replication=2, lag=1
        )
        alice = self._client(client_keys, cluster, model, plan)
        alice.index_document_with_receipts(self._doc("d1", {"apple": 3}), "g1")
        floor = alice.version_floor(0)
        assert floor is not None and floor >= 1
        alice._note_version(0, 0)  # a stale observation cannot lower it
        assert alice.version_floor(0) == floor

    def test_a_one_server_cluster_keeps_floors_too(self, client_keys, model, plan):
        """The paper's single server is a one-server cluster: its clients
        keep floors like any other, and a floor there is always met."""
        cluster = ServerCluster(client_keys, num_lists=1, num_servers=1)
        alice = self._client(client_keys, cluster, model, plan)
        alice.index_document_with_receipts(self._doc("d1", {"apple": 3}), "g1")
        assert alice.version_floor(0) == cluster.primary_version(0) == 1
        session = alice.open_multi_session(["apple"], k=2)
        for request in session.pending_requests():
            assert request.min_version == 1
        assert alice.query("apple", k=2).doc_ids() == ["d1"]
        assert cluster.replication_stats.floor_reserves == 0

    def test_delete_document_raises_floor(self, client_keys, model, plan):
        cluster = ServerCluster(
            client_keys, num_lists=1, num_servers=2, replication=2, lag=1
        )
        alice = self._client(client_keys, cluster, model, plan)
        receipts = alice.index_document_with_receipts(
            self._doc("d1", {"apple": 3}), "g1"
        )
        floor_after_insert = alice.version_floor(0)
        assert alice.delete_document(receipts) >= 1
        assert alice.version_floor(0) > floor_after_insert


class TestDeadPrimaryRoutingMatrix:
    """Every ReadConsistency level routes sanely with the primary down."""

    def _cluster(self, keys):
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=3, replication=3, lag=1
        )
        cluster.insert("u", 0, _element(0.5, sealed(b"x")))
        cluster.run_replication_until_quiet()
        cluster.fail_server(cluster.replicas_of(0)[0])
        return cluster

    @pytest.mark.parametrize("level", ["one", "primary", "quorum"])
    def test_dead_primary_served_by_followers(self, keys, level):
        cluster = self._cluster(keys)
        response = _fetch(cluster, 0, consistency=level)
        assert [e.ciphertext for e in response.elements] == [sealed(b"x")]
        assert response.replica_version == 1

    @pytest.mark.parametrize("level", ["one", "primary", "quorum"])
    def test_all_replicas_down_raises(self, keys, level):
        cluster = self._cluster(keys)
        for s in cluster.replicas_of(0)[1:]:
            cluster.fail_server(s)
        with pytest.raises(UnavailableError):
            _fetch(cluster, 0, consistency=level)

    def test_one_reads_go_to_the_first_live_follower(self, keys):
        cluster = self._cluster(keys)
        dead, first, second = cluster.replicas_of(0)
        for _ in range(9):
            _fetch(cluster, 0, count=1, consistency="one")
        loads = cluster.per_server_load()
        assert (loads[dead], loads[first], loads[second]) == (0, 9, 0)

    def test_one_reads_skip_a_paused_follower(self, keys):
        cluster = self._cluster(keys)
        dead, paused, second = cluster.replicas_of(0)
        cluster.pause_follower(paused)
        for _ in range(8):
            _fetch(cluster, 0, count=1, consistency="one")
        loads = cluster.per_server_load()
        assert (loads[dead], loads[paused], loads[second]) == (0, 0, 8)

    def test_consistency_levels_are_enums_everywhere(self, keys):
        cluster = self._cluster(keys)
        assert cluster.read_consistency is ReadConsistency.PRIMARY
        assert cluster.write_consistency is WriteConsistency.ONE


class TestFailoverAwareWriteRetry:
    """ROADMAP item-3 edge: a refused quorum write parks through the
    pending election instead of surfacing, then retries against the
    promoted primary (``ZerberRClient._write_with_failover_retry``)."""

    @pytest.fixture()
    def client_keys(self):
        svc = GroupKeyService(master_secret=b"s" * 32)
        svc.register("alice", {"g1"})
        return svc

    @pytest.fixture()
    def model(self):
        return RstfModel(
            {
                "apple": train_rstf([0.1, 0.2, 0.3, 0.5], sigma=20.0),
                "pear": train_rstf([0.05, 0.15, 0.4], sigma=20.0),
            }
        )

    @pytest.fixture()
    def plan(self):
        return MergePlan(groups=(("apple", "pear"),), r=2.0)

    def _client(self, client_keys, backend, model, plan):
        return ZerberRClient(
            principal="alice",
            key_service=client_keys,
            server=backend,
            rstf_model=model,
            merge_plan=plan,
        )

    def _cluster(self, client_keys, **kwargs):
        kwargs.setdefault("failover_after", 2)
        kwargs.setdefault("lag", 1)
        kwargs.setdefault("write_consistency", "quorum")
        return ServerCluster(
            client_keys, num_lists=1, num_servers=3, replication=3, **kwargs
        )

    def _doc(self, doc_id, counts):
        return DocumentStats.from_counts(doc_id, counts)

    def test_quorum_write_parks_until_election_then_succeeds(
        self, client_keys, model, plan
    ):
        cluster = self._cluster(client_keys)
        alice = self._client(client_keys, cluster, model, plan)
        alice.index_document_with_receipts(self._doc("d1", {"apple": 3}), "g1")
        cluster.run_replication_until_quiet()
        old_primary = cluster.replicas_of(0)[0]
        cluster.fail_server(old_primary)
        # The write parks: the retry loop drives replication ticks until
        # the election promotes a live follower, then goes through.
        alice.index_document_with_receipts(self._doc("d2", {"apple": 5}), "g1")
        new_primary = cluster.replicas_of(0)[0]
        assert new_primary != old_primary
        assert len(cluster.failover_history()) == 1
        result = alice.query("apple", k=5)
        assert sorted(result.doc_ids()) == ["d1", "d2"]

    def test_delete_parks_through_election_too(self, client_keys, model, plan):
        cluster = self._cluster(client_keys)
        alice = self._client(client_keys, cluster, model, plan)
        receipts = alice.index_document_with_receipts(
            self._doc("d1", {"apple": 3}), "g1"
        )
        cluster.run_replication_until_quiet()
        old_primary = cluster.replicas_of(0)[0]
        cluster.fail_server(old_primary)
        assert alice.delete_document(receipts) >= 1
        assert cluster.replicas_of(0)[0] != old_primary
        assert alice.query("apple", k=5).doc_ids() == []

    def test_surfaces_when_election_cannot_restore_quorum(
        self, client_keys, model, plan
    ):
        cluster = self._cluster(client_keys)
        alice = self._client(client_keys, cluster, model, plan)
        alice.index_document_with_receipts(self._doc("d1", {"apple": 3}), "g1")
        cluster.run_replication_until_quiet()
        replicas = cluster.replicas_of(0)
        cluster.fail_server(replicas[0])
        cluster.fail_server(replicas[1])
        # One live replica of three: even the promoted primary cannot
        # reach QUORUM=2, so the parked write surfaces honestly -- but
        # only after the election actually fired.
        with pytest.raises(QuorumWriteUnavailableError):
            alice.index_document_with_receipts(self._doc("d2", {"apple": 5}), "g1")
        assert len(cluster.failover_history()) == 1
        assert cluster.replicas_of(0)[0] == replicas[2]

    def test_no_parking_when_primary_is_reachable(
        self, client_keys, model, plan
    ):
        # An ack shortfall with a live primary is not election-fixable:
        # the refusal surfaces immediately, no replication ticks driven.
        cluster = self._cluster(client_keys, write_consistency="all")
        alice = self._client(client_keys, cluster, model, plan)
        cluster.fail_server(cluster.replicas_of(0)[2])
        ticks_before = cluster.replication_manager.tick_count
        with pytest.raises(QuorumWriteUnavailableError):
            alice.index_document_with_receipts(self._doc("d1", {"apple": 3}), "g1")
        assert cluster.replication_manager.tick_count == ticks_before

    def test_no_parking_without_failover_machinery(
        self, client_keys, model, plan
    ):
        cluster = self._cluster(client_keys, failover_after=None)
        alice = self._client(client_keys, cluster, model, plan)
        cluster.fail_server(cluster.replicas_of(0)[0])
        ticks_before = cluster.replication_manager.tick_count
        with pytest.raises(QuorumWriteUnavailableError):
            alice.index_document_with_receipts(self._doc("d1", {"apple": 3}), "g1")
        assert cluster.replication_manager.tick_count == ticks_before

    def test_down_primary_refuses_quorum_even_with_follower_acks(
        self, client_keys
    ):
        # The fail_server contract: W > 1 never leans on the durable-
        # primary idealisation.  Both followers are reachable, yet the
        # dead primary alone refuses the write.
        cluster = self._cluster(client_keys, failover_after=None)
        cluster.fail_server(cluster.replicas_of(0)[0])
        element = EncryptedPostingElement(sealed(b"ct"), group="g1", trs=0.5)
        with pytest.raises(QuorumWriteUnavailableError) as excinfo:
            cluster.insert("alice", 0, element)  # the cluster writes at QUORUM
        assert len(excinfo.value.live_replicas) == 2
        assert cluster.replicas_of(0)[0] in excinfo.value.down_replicas
