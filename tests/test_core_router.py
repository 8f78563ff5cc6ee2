"""Unit tests for the coordinator (cross-query slice coalescing)."""

import dataclasses

import pytest

from repro.core.client import ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.server import ZerberRServer
from repro.crypto.keys import GroupKeyService
from repro.errors import ConfigurationError, ProtocolError, UnavailableError
from repro.index.postings import EncryptedPostingElement
from repro.text.analysis import DocumentStats
from tests.conftest import sealed


@pytest.fixture()
def system(micro_corpus):
    from repro import SystemConfig, ZerberRSystem

    return ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=22))


@pytest.fixture()
def deployment(system):
    cluster, coordinator = system.deploy_cluster(num_servers=3)
    return system, cluster, coordinator


def _queries(system, num_queries, terms_per_query=2):
    terms = [
        t
        for t in system.vocabulary.terms_by_frequency()
        if system.vocabulary.document_frequency(t) >= 2
    ]
    queries = []
    for i in range(num_queries):
        start = (i * terms_per_query) % max(1, len(terms) - terms_per_query)
        queries.append(terms[start : start + terms_per_query])
    return queries


class TestCoalescing:
    def test_results_match_direct_path(self, deployment):
        system, cluster, coordinator = deployment
        queries = _queries(system, 6)
        client = system.client_for("superuser", server=cluster)
        direct = [client.query_multi_batched(q, 4) for q in queries]
        results = coordinator.run_queries([(client, q, 4) for q in queries])
        for d, r in zip(direct, results):
            assert r.ranked == d.ranked
            assert [t.elements_transferred for t in r.traces] == [
                t.elements_transferred for t in d.traces
            ]

    def test_fewer_server_calls_than_direct(self, deployment):
        system, cluster, coordinator = deployment
        queries = _queries(system, 6)
        client = system.client_for("superuser", server=cluster)
        before = cluster.total_calls
        for q in queries:
            client.query_multi_batched(q, 4)
        direct_calls = cluster.total_calls - before
        before = cluster.total_calls
        coordinator.run_queries([(client, q, 4) for q in queries])
        coalesced_calls = cluster.total_calls - before
        assert coalesced_calls * 2 <= direct_calls  # at least halved

    def test_identical_sessions_share_slices(self, deployment):
        system, cluster, coordinator = deployment
        query = _queries(system, 1)[0]
        client = system.client_for("superuser", server=cluster)
        coordinator.run_queries([(client, query, 4), (client, query, 4)])
        stats = coordinator.stats
        assert stats.slices_shared > 0
        assert stats.slices_sent < stats.slices_requested

    def test_distinct_principals_not_deduplicated(self, deployment):
        system, cluster, coordinator = deployment
        groups = set(system.corpus.groups())
        system.register_user("router-a", groups)
        system.register_user("router-b", groups)
        query = _queries(system, 1)[0]
        a = system.client_for("router-a", server=cluster)
        b = system.client_for("router-b", server=cluster)
        results = coordinator.run_queries([(a, query, 4), (b, query, 4)])
        assert coordinator.stats.slices_shared == 0
        assert results[0].ranked == results[1].ranked

    def test_one_envelope_per_touched_server_per_tick(self, deployment):
        system, cluster, coordinator = deployment
        queries = _queries(system, 5)
        client = system.client_for("superuser", server=cluster)
        coordinator.run_queries([(client, q, 4) for q in queries])
        assert (
            coordinator.stats.server_calls
            <= coordinator.stats.ticks * cluster.num_servers
        )

    def test_sessions_submitted_midway(self, deployment):
        system, cluster, coordinator = deployment
        queries = _queries(system, 2)
        client = system.client_for("superuser", server=cluster)
        first = coordinator.submit(client.open_multi_session(queries[0], 4))
        coordinator.tick()
        second = coordinator.submit(client.open_multi_session(queries[1], 4))
        coordinator.drain()
        direct = client.query_multi_batched(queries[1], 4)
        assert second.result().ranked == direct.ranked
        assert first.done

    def test_drain_settles_a_submitted_session(self, system):
        """``submit`` queues the session's first flush, so ``drain`` runs
        it to its end as ``tick`` does."""
        cluster, coordinator = system.deploy_cluster(num_servers=2, replication=2)
        client = system.client_for("superuser", server=cluster)
        term = system.vocabulary.terms_by_frequency()[0]
        session = coordinator.submit(client.open_multi_session([term], 3))
        assert coordinator.drain() >= 1
        assert session.done
        assert session.result().ranked == client.query_multi_batched([term], 3).ranked


class TestFailureAndEpoch:
    def test_unavailable_list_raises_named_error(self, deployment):
        system, cluster, coordinator = deployment
        query = _queries(system, 1)[0]
        list_id = system.merge_plan.list_of(query[0])
        for server_index in cluster.replicas_of(list_id):
            cluster.fail_server(server_index)
        client = system.client_for("superuser", server=cluster)
        coordinator.submit(client.open_multi_session(query, 4))
        with pytest.raises(UnavailableError) as excinfo:
            coordinator.tick()
        assert excinfo.value.list_id == list_id

    def test_a_flush_that_raises_counts_no_slice(self, deployment):
        """Three refused flushes count nothing; the one that serves counts."""
        system, cluster, coordinator = deployment
        client = system.client_for("superuser", server=cluster)
        coordinator.submit(client.open_multi_session(_queries(system, 1)[0], 4))
        for server_index in range(3):
            cluster.fail_server(server_index)
        for _ in range(3):
            with pytest.raises(UnavailableError):
                coordinator.tick()
        for server_index in range(3):
            cluster.restore_server(server_index)
        coordinator.drain()
        assert coordinator.stats.slices_requested == coordinator.stats.slices_sent == 2

    def test_an_election_between_two_shard_calls_of_one_flush(
        self, system, monkeypatch
    ):
        """A failover election lands between two shard-server calls of
        one flush.  Nothing pins the placement the flush was routed
        under: every slice is stamped with its replica's applied version
        and repaired or re-served under ``read_consistency``, so the
        results are the direct path's."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, replication=2, failover_after=1
        )
        queries = _queries(system, 4)
        client = system.client_for("superuser", server=cluster)
        direct = [client.query_multi_batched(q, 4) for q in queries]
        list_id = system.merge_plan.list_of(queries[0][0])
        victim = cluster.replicas_of(list_id)[0]
        cluster.fail_server(victim)
        cluster.replication_tick()  # the failover timer starts
        epoch = cluster.placement_epoch
        serve = ZerberRServer.batch_fetch
        ticked = []

        def serve_after_an_election(server, batch, *args):
            # The replication plane ticks before the flush's first shard
            # call: the timer has run out, so it elects.
            if not ticked:
                ticked.append(cluster.replication_tick())
                assert cluster.failover_history()
            return serve(server, batch, *args)

        monkeypatch.setattr(ZerberRServer, "batch_fetch", serve_after_an_election)
        results = coordinator.run_queries([(client, q, 4) for q in queries])
        assert [r.ranked for r in results] == [d.ranked for d in direct]
        assert ticked and cluster.failover_history()
        assert cluster.replicas_of(list_id)[0] != victim
        assert cluster.placement_epoch == epoch + 1


class TestFloorAwareRouting:
    """The coordinator routes a slice on its session's version floor,
    exactly like the direct path — not to any live replica, to be
    force-repaired and re-served under the floor afterwards.  The primary
    of one queried list is partitioned, so floor-blind routing would send
    that list's reads to a follower that trails the write."""

    COUNTERS = (
        "floor_reserves",
        "read_reserves",
        "read_repairs",
        "stale_reads_detected",
        "repair_ops",
    )

    def _writer_queries(self, system, micro_corpus, through_coordinator):
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, replication=3, lag=6, read_consistency="one"
        )
        cluster.run_replication_until_quiet()
        client = system.client_for("superuser", server=cluster)
        terms = system.vocabulary.terms_by_frequency()[:3]
        doc = DocumentStats.from_counts("written-here", dict.fromkeys(terms, 5))
        client.index_document_with_receipts(doc, sorted(micro_corpus.groups())[0])
        assert all(client.version_floor(system.merge_plan.list_of(t)) for t in terms)
        assert cluster.replication_backlog()  # the followers trail the write
        list_id = system.merge_plan.list_of(terms[0])
        cluster.pause_follower(cluster.replicas_of(list_id)[0])
        stale = cluster.route(list_id)
        assert cluster.applied_version(list_id, stale) < cluster.primary_version(list_id)
        before = dataclasses.replace(cluster.replication_stats)
        ranked = []
        for _ in range(6):
            if through_coordinator:
                (result,) = coordinator.run_queries([(client, terms, 5)])
            else:
                result = client.query_multi_batched(terms, 5)
            ranked.append(result.ranked)
        after = cluster.replication_stats
        moved = {
            name: getattr(after, name) - getattr(before, name) for name in self.COUNTERS
        }
        return ranked, moved

    def test_writer_reads_cost_the_coordinator_no_more_repairs_than_direct(
        self, system, micro_corpus
    ):
        direct, direct_moved = self._writer_queries(system, micro_corpus, False)
        driven, driven_moved = self._writer_queries(system, micro_corpus, True)
        assert driven == direct
        assert all(ranked[0][0] == "written-here" for ranked in direct)
        assert driven_moved == direct_moved == dict.fromkeys(self.COUNTERS, 0)

    def test_a_shared_slice_routes_on_the_highest_floor_of_its_wanters(
        self, system, micro_corpus
    ):
        """Two sessions of one principal want the same slice: the first
        has no floor on the list, the second's floor is its head.  The
        shared slice goes to the one follower at the head — one server
        call per flush — not to the first wanter's stale pick, to be
        repaired and re-served there."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, replication=3, lag=50, read_consistency="one"
        )
        writer = system.client_for("superuser", server=cluster)
        term = system.vocabulary.terms_by_frequency()[0]
        doc = DocumentStats.from_counts("written-here", {term: 5})
        writer.index_document_with_receipts(doc, sorted(micro_corpus.groups())[0])
        list_id = system.merge_plan.list_of(term)
        primary, stale, fresh = cluster.replicas_of(list_id)
        cluster.replication_manager.sync(list_id, fresh)
        cluster.fail_server(primary)
        head = cluster.primary_version(list_id)
        assert writer.version_floor(list_id) == head
        assert cluster.applied_version(list_id, stale) < head
        assert cluster.applied_version(list_id, fresh) == head
        reader = ZerberRClient(
            principal="superuser",
            key_service=system.key_service,
            server=cluster,
            rstf_model=system.rstf_model,
            merge_plan=system.merge_plan,
        )
        assert not reader.version_floor(list_id)
        before = dataclasses.replace(cluster.replication_stats)
        calls = [cluster.server(s).num_calls for s in range(3)]
        first = coordinator.submit(reader.open_multi_session([term], 5))
        second = coordinator.submit(writer.open_multi_session([term], 5))
        coordinator.drain()
        assert first.result().ranked == second.result().ranked
        assert second.result().ranked[0][0] == "written-here"
        served = [cluster.server(s).num_calls - calls[s] for s in range(3)]
        assert served[fresh] == coordinator.stats.server_calls
        assert served[fresh] == coordinator.stats.ticks
        assert served[stale] == 0
        after = cluster.replication_stats
        assert after.floor_reserves == before.floor_reserves
        assert after.read_repairs == before.read_repairs

    def test_route_narrows_one_to_replicas_at_the_floor(self):
        keys = GroupKeyService(master_secret=b"k" * 32)
        keys.register("u", {"g"})
        cluster = ServerCluster(
            keys,
            num_lists=1,
            num_servers=3,
            replication=3,
            lag=5,
            read_consistency="one",
        )
        cluster.insert(
            "u", 0, EncryptedPostingElement(ciphertext=sealed(b"c"), group="g", trs=0.5)
        )
        primary, follower, _ = cluster.replicas_of(0)
        assert cluster.route(0) == primary
        # Partitioned, the primary is passed over — unless it is the only
        # replica at the floor.
        cluster.pause_follower(primary)
        assert cluster.route(0) == follower
        assert cluster.route(0, min_version=1) == primary
        assert cluster.route(0, 0) == follower
        # No live replica meets the floor: the first live one serves.
        cluster.fail_server(primary)
        assert cluster.route(0, min_version=1) == follower


class TestSessionProtocol:
    def test_deliver_wrong_count_rejected(self, deployment):
        system, cluster, _ = deployment
        query = _queries(system, 1)[0]
        client = system.client_for("superuser", server=cluster)
        session = client.open_multi_session(query, 4)
        with pytest.raises(ProtocolError):
            session.deliver(())

    def test_result_before_done_rejected(self, deployment):
        system, cluster, _ = deployment
        query = _queries(system, 1)[0]
        client = system.client_for("superuser", server=cluster)
        session = client.open_multi_session(query, 4)
        with pytest.raises(ProtocolError):
            session.result()

    def test_run_queries_rejects_concurrent_reuse(self, deployment):
        system, cluster, coordinator = deployment
        query = _queries(system, 1)[0]
        client = system.client_for("superuser", server=cluster)
        coordinator.submit(client.open_multi_session(query, 4))
        with pytest.raises(ProtocolError):
            coordinator.run_queries([(client, query, 4)])

    def test_run_queries_bad_job_leaves_coordinator_usable(self, deployment):
        """A failing job must not park earlier jobs' sessions forever."""
        from repro.errors import UnknownTermError

        system, cluster, coordinator = deployment
        query = _queries(system, 1)[0]
        client = system.client_for("superuser", server=cluster)
        with pytest.raises(UnknownTermError):
            coordinator.run_queries(
                [(client, query, 4), (client, ["no-such-term"], 4)]
            )
        assert coordinator.active_sessions == 0
        direct = client.query_multi_batched(query, 4)
        results = coordinator.run_queries([(client, query, 4)])
        assert results[0].ranked == direct.ranked

    def test_session_on_other_backend_rejected(self, deployment):
        """A session bound to a different backend must not be scheduled."""
        system, cluster, coordinator = deployment
        query = _queries(system, 1)[0]
        single_server_client = system.client_for("superuser")
        session = single_server_client.open_multi_session(query, 4)
        with pytest.raises(ConfigurationError):
            coordinator.submit(session)
        assert coordinator.active_sessions == 0

    def test_duplicate_submit_rejected(self, deployment):
        system, cluster, coordinator = deployment
        query = _queries(system, 1)[0]
        client = system.client_for("superuser", server=cluster)
        session = coordinator.submit(client.open_multi_session(query, 4))
        with pytest.raises(ProtocolError):
            coordinator.submit(session)
        coordinator.drain()
        assert session.done

    def test_failed_run_does_not_wedge_coordinator(self, deployment):
        """An outage mid-run evicts the jobs so later runs can proceed."""
        system, cluster, coordinator = deployment
        queries = _queries(system, 2)
        down_list = system.merge_plan.list_of(queries[0][0])
        for server_index in cluster.replicas_of(down_list):
            cluster.fail_server(server_index)
        client = system.client_for("superuser", server=cluster)
        with pytest.raises(UnavailableError):
            coordinator.run_queries([(client, queries[0], 4)])
        assert coordinator.active_sessions == 0
        for server_index in range(cluster.num_servers):
            cluster.restore_server(server_index)
        results = coordinator.run_queries([(client, queries[1], 4)])
        assert results[0].ranked == client.query_multi_batched(queries[1], 4).ranked

    def test_done_at_submit_sessions_are_pruned(self, deployment):
        system, cluster, coordinator = deployment
        client = system.client_for("superuser", server=cluster)
        session = coordinator.submit(client.open_multi_session([], 4))
        assert session.done
        assert coordinator.tick() is False
        assert not coordinator._sessions
        assert coordinator.stats.sessions_completed == 1
        assert session.result().ranked == ()

    def test_client_for_caches_per_backend(self, deployment):
        """One client (one set of session floors) per (principal, backend)."""
        system, cluster, _ = deployment
        a = system.client_for("superuser", server=cluster)
        b = system.client_for("superuser", server=cluster)
        assert a is b
        assert system.client_for("superuser") is system.client_for("superuser")
        assert system.client_for("superuser") is not a
