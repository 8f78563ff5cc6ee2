"""Tests for the event-driven core: the coordinator's agenda, its one
intake (``submit``) and its one run-to-quiescence driver (``drain``),
round pipelining, backpressure, and the one cadence rule rounds follow
at every ``round_latency``."""

import gc
import weakref

import pytest

from repro.core.client import ClientQuerySession
from repro.core.cluster import ServerCluster
from repro.core.protocol import BackpressureSignal, ResponsePolicy
from repro.core.router import Coordinator
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ProtocolError,
    UnavailableError,
)
from tests.conftest import held_work, sealed


class TestTheAgenda:
    """The coordinator's own clock: one list of callables per tick, run
    first in, first out, then one replication tick per tick."""

    @staticmethod
    def _coordinator():
        keys = GroupKeyService(master_secret=b"a" * 32)
        keys.register("u", {"g"})
        return Coordinator(ServerCluster(keys, num_lists=1, num_servers=2))

    @pytest.fixture()
    def coordinator(self):
        return self._coordinator()

    def test_a_tick_runs_fifo_then_one_replication_tick(self, coordinator):
        fired = []
        replication_tick = coordinator.cluster.replication_tick

        def recording():
            fired.append(("replication", coordinator.now))
            replication_tick()

        coordinator.cluster.replication_tick = recording

        def chain():
            fired.append("first")
            coordinator._call_at(coordinator.now, lambda: fired.append("chained"))

        coordinator._call_at(1, chain)
        for i in range(3):
            coordinator._call_at(1, lambda i=i: fired.append(i))
        coordinator.advance(2)
        assert fired == [
            ("replication", 0),
            "first",
            0,
            1,
            2,
            "chained",
            ("replication", 1),
        ]
        assert coordinator.now == 2

    def test_ticks_run_in_tick_order(self, coordinator):
        fired = []
        for tick, name in ((3, "c"), (1, "a"), (2, "b")):
            coordinator._call_at(tick, lambda name=name: fired.append(name))
        coordinator.advance(4)
        assert fired == ["a", "b", "c"]
        assert coordinator.now == 4

    def test_a_past_tick_clamps_to_now(self, coordinator):
        coordinator.advance(10)
        fired = []
        coordinator._call_at(3, lambda: fired.append(coordinator.now))
        coordinator.advance(1)
        assert fired == [10]

    def test_every_advanced_tick_is_one_replication_tick_idle_ones_too(
        self, coordinator
    ):
        assert coordinator.drain() == 0
        coordinator.advance(5)
        assert coordinator.now == 5
        assert coordinator.cluster.replication_manager.tick_count == 5

    @pytest.mark.parametrize("ticks", [0, -1])
    def test_advance_refuses_a_non_positive_tick_count(self, coordinator, ticks):
        with pytest.raises(ConfigurationError):
            coordinator.advance(ticks)
        assert coordinator.now == 0
        assert coordinator.cluster.replication_manager.tick_count == 0

    def test_a_raise_leaves_the_rest_queued_and_the_clock_still(
        self, coordinator
    ):
        fired = []

        def boom():
            raise ProtocolError("boom")

        for fn in (lambda: fired.append("a"), boom, lambda: fired.append("c")):
            coordinator._call_at(0, fn)
        with pytest.raises(ProtocolError):
            coordinator.advance(1)
        assert (fired, coordinator.now) == (["a"], 0)
        coordinator.advance(1)
        assert (fired, coordinator.now) == (["a", "c"], 1)

    def test_a_dropped_deployment_is_freed_without_the_cycle_collector(self):
        """Nothing the agenda keeps once it is empty refers back to the
        coordinator or its cluster, so dropping the pair frees every
        element its servers hold at once."""
        coordinator = self._coordinator()
        coordinator._call_at(1, lambda: None)
        coordinator.advance(2)
        freed = weakref.ref(coordinator.cluster), weakref.ref(coordinator)
        gc.disable()
        try:
            del coordinator
            assert [ref() for ref in freed] == [None, None]
        finally:
            gc.enable()


@pytest.fixture()
def system(micro_corpus):
    from repro import SystemConfig, ZerberRSystem

    return ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=22))


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


class TestArrivalDrivenScheduling:
    def test_arrivals_match_direct_path(self, system):
        cluster, coordinator = system.deploy_cluster(num_servers=3)
        client = system.client_for("superuser", server=cluster)
        queries = _queries(system, 4)
        direct = [client.query_multi_batched(q, 4) for q in queries]
        sessions = [client.open_multi_session(q, 4) for q in queries]
        # Staggered submits on the virtual clock, one a tick.
        for session in sessions:
            coordinator.submit(session)
            coordinator.advance(1)
        coordinator.drain()
        for session, expected in zip(sessions, direct):
            assert session.done
            assert session.result().ranked == expected.ranked
        assert coordinator.stats.sessions_completed == len(sessions)

    def test_double_arrival_admits_once(self, system):
        """A parked session submitted again at a later tick is refused
        and held once: it completes once."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, round_latency=2
        )
        client = system.client_for("superuser", server=cluster)
        session = coordinator.submit(
            client.open_multi_session(_queries(system, 1)[0], 4)
        )
        coordinator.advance(1)
        with pytest.raises(ProtocolError):
            coordinator.submit(session)
        assert coordinator.active_sessions == 1
        coordinator.drain()
        assert session.done
        assert coordinator.stats.sessions_completed == 1


class TestRoundPipelining:
    def test_round_latency_preserves_results(self, system):
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, round_latency=2
        )
        client = system.client_for("superuser", server=cluster)
        queries = _queries(system, 4)
        direct = [client.query_multi_batched(q, 4) for q in queries]
        sessions = [client.open_multi_session(q, 4) for q in queries]
        for session in sessions:
            coordinator.submit(session)
            coordinator.advance(1)
        coordinator.drain()
        for session, expected in zip(sessions, direct):
            assert session.result().ranked == expected.ranked

    def test_staggered_arrivals_overlap_rounds(self, system):
        # With deliveries deferred 2 ticks, a session submitted mid-flight
        # builds its envelope while earlier rounds are still in the air.
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, round_latency=2
        )
        client = system.client_for("superuser", server=cluster)
        for q in _queries(system, 6):
            coordinator.submit(client.open_multi_session(q, 4))
            coordinator.advance(1)
        coordinator.drain()
        assert coordinator.stats.pipeline_overlap > 0

    def test_lockstep_never_overlaps(self, system):
        cluster, coordinator = system.deploy_cluster(num_servers=3)
        client = system.client_for("superuser", server=cluster)
        coordinator.run_queries(
            [(client, q, 4) for q in _queries(system, 6)]
        )
        assert coordinator.stats.pipeline_overlap == 0


class TestTickAndDrain:
    def test_tick_driver_advances_exactly_one_tick(self, system):
        cluster, coordinator = system.deploy_cluster(num_servers=2)
        client = system.client_for("superuser", server=cluster)
        coordinator.submit(
            client.open_multi_session(_queries(system, 1)[0], 4)
        )
        before = coordinator.now
        assert coordinator.tick() is True
        assert coordinator.now == before + 1
        assert cluster.replication_manager.tick_count == before + 1

    def test_idle_tick_does_not_advance_time(self, system):
        cluster, coordinator = system.deploy_cluster(num_servers=2)
        assert coordinator.tick() is False
        assert coordinator.now == 0
        assert cluster.replication_manager.tick_count == 0

    def test_drain_ticks_until_no_session_is_parked(self, system):
        """The replication tick is not session work: ``drain`` stops at
        the tick the last session ends in, and a queued callable of no
        session does not keep it going."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, round_latency=2
        )
        client = system.client_for("superuser", server=cluster)
        session = coordinator.submit(
            client.open_multi_session(_queries(system, 1)[0], 4)
        )
        ticks = coordinator.drain()
        assert session.done and ticks == coordinator.now >= 3
        assert cluster.replication_manager.tick_count == ticks
        coordinator._call_at(coordinator.now + 5, lambda: None)
        assert coordinator.drain() == 0

    def test_drain_picks_a_session_up_again_after_an_outage(self, system):
        """A flush that raised is not lost: the next tick queues a flush
        for every parked session, so ``drain`` finishes it once the
        servers are back."""
        cluster, coordinator = system.deploy_cluster(num_servers=3)
        client = system.client_for("superuser", server=cluster)
        query = _queries(system, 1)[0]
        session = coordinator.submit(client.open_multi_session(query, 4))
        for server_index in range(cluster.num_servers):
            cluster.fail_server(server_index)
        with pytest.raises(UnavailableError):
            coordinator.drain()
        assert coordinator.active_sessions == 1 and not session.done
        for server_index in range(cluster.num_servers):
            cluster.restore_server(server_index)
        assert coordinator.drain() >= 1
        assert session.done and coordinator.active_sessions == 0
        assert session.result().ranked == client.query_multi_batched(query, 4).ranked
        assert coordinator.stats.sessions_completed == 1

    def test_drain_raises_past_max_ticks(self, system):
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, round_latency=5
        )
        client = system.client_for("superuser", server=cluster)
        session = coordinator.submit(
            client.open_multi_session(_queries(system, 1)[0], 4)
        )
        with pytest.raises(ProtocolError, match="1 session"):
            coordinator.drain(max_ticks=2)
        assert coordinator.now == 2
        coordinator.drain()
        assert session.done

    def test_evicted_session_in_flight_delivery_noops(self, system):
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, round_latency=3
        )
        client = system.client_for("superuser", server=cluster)
        session = coordinator.submit(
            client.open_multi_session(_queries(system, 1)[0], 4)
        )
        coordinator.advance(1)  # flush dispatched; delivery at tick 3
        coordinator.evict(session)
        assert coordinator.drain() == 0  # nothing parked
        coordinator.advance(3)  # the deferred delivery fires as a no-op
        assert not session.done
        assert coordinator.stats.sessions_completed == 0


class TestBackpressure:
    def test_a_refused_submit_is_counted_once_and_held_nowhere(self, system):
        """200 submits at tick 0 against a bound of 2: 198 refusals, each
        counted once, none kept — no shed log, no retry on the agenda —
        and draining the two admitted sessions adds no shed."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, round_latency=1, max_queue_depth=2
        )
        client = system.client_for("superuser", server=cluster)
        query = _queries(system, 1)[0]
        refused, signals = [], []
        for _ in range(200):
            session = client.open_multi_session(query, 4)
            try:
                coordinator.submit(session)
            except BackpressureError as error:
                refused.append(weakref.ref(session))
                signals.append(error.signal)
        del session
        assert len(refused) == coordinator.stats.backpressure_sheds == 198
        assert signals[0] == BackpressureSignal(
            principal="superuser", tick=0, queue_depth=2, limit=2
        )
        assert held_work(coordinator) == (2, 1, {0})  # the admitted pair's flush
        gc.collect()
        assert all(ref() is None for ref in refused)
        assert not [
            name
            for name, value in vars(coordinator).items()
            if isinstance(value, list)
            and any(isinstance(item, BackpressureSignal) for item in value)
        ]
        coordinator.drain()
        assert coordinator.stats.sessions_completed == 2
        assert coordinator.stats.backpressure_sheds == 198

    def test_submit_sheds_past_queue_depth(self, system):
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, max_queue_depth=2
        )
        client = system.client_for("superuser", server=cluster)
        queries = _queries(system, 3)
        coordinator.submit(client.open_multi_session(queries[0], 4))
        coordinator.submit(client.open_multi_session(queries[1], 4))
        with pytest.raises(BackpressureError) as excinfo:
            coordinator.submit(client.open_multi_session(queries[2], 4))
        signal = excinfo.value.signal
        assert isinstance(signal, BackpressureSignal)
        assert signal.queue_depth == 2
        assert coordinator.stats.backpressure_sheds == 1
        # Nothing was parked; the accepted sessions still complete.
        assert coordinator.active_sessions == 2
        coordinator.drain()
        assert coordinator.stats.sessions_completed == 2

    def test_shed_without_retry_drops_the_arrival(self, system):
        """A refused session the caller does not resubmit never runs."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, max_queue_depth=1
        )
        client = system.client_for("superuser", server=cluster)
        queries = _queries(system, 2)
        kept = coordinator.submit(client.open_multi_session(queries[0], 4))
        dropped = client.open_multi_session(queries[1], 4)
        with pytest.raises(BackpressureError):
            coordinator.submit(dropped)
        coordinator.drain()
        assert kept.done
        assert not dropped.done
        assert coordinator.stats.backpressure_sheds == 1

    def test_a_refused_session_resubmitted_after_drain_completes(self, system):
        """Overload degrades into caller-owned deferred admission, not
        lost work: what was refused fits once the queue drains."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, max_queue_depth=2
        )
        client = system.client_for("superuser", server=cluster)
        sessions = [
            client.open_multi_session(q, 4) for q in _queries(system, 6)
        ]
        pending = sessions
        while pending:
            refused = []
            for session in pending:
                try:
                    coordinator.submit(session)
                except BackpressureError:
                    refused.append(session)
            coordinator.drain()
            pending = refused
        assert coordinator.stats.backpressure_sheds == 4 + 2
        assert all(session.done for session in sessions)
        assert coordinator.stats.sessions_completed == len(sessions)

    def test_run_queries_shed_at_admission_evicts_every_job(self, system):
        """A later job shed by the queue bound fails the whole call and
        parks nothing, so the next ``run_queries`` runs."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=2, max_queue_depth=1
        )
        client = system.client_for("superuser", server=cluster)
        first, second = (query[:1] for query in _queries(system, 2))
        with pytest.raises(BackpressureError):
            coordinator.run_queries([(client, first, 4), (client, second, 4)])
        assert coordinator.active_sessions == 0
        (result,) = coordinator.run_queries([(client, second, 4)])
        assert result.ranked == client.query_multi_batched(second, 4).ranked
        assert coordinator.active_sessions == 0

    def test_open_loop_overload_sheds_and_pipelines_without_losing_work(
        self, system
    ):
        """Arrivals at twice the rate a closed batch sustains, deliveries
        two ticks late, a queue bound under the overload backlog: the bound
        sheds, rounds overlap, every admitted session completes, and
        admitted-work latency is bounded by the queue, not the offered
        load — no admitted session outlives the arrival horizon."""
        queries = _queries(system, 8, terms_per_query=3)
        policy = ResponsePolicy(initial_size=1)  # several rounds a session
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, round_latency=2
        )
        client = system.client_for("superuser", server=cluster)
        for query in queries:
            coordinator.submit(client.open_multi_session(query, 5, policy=policy))
        rate = 2 * len(queries) / coordinator.drain()

        horizon = 24
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, round_latency=2, max_queue_depth=len(queries) // 2
        )
        client = system.client_for("superuser", server=cluster)
        arrivals = []  # (session, arrival tick)
        finished = {}
        # Every admitted session ends within the horizon of its arrival.
        for tick in range(2 * horizon):
            due = int((tick + 1) * rate) - int(tick * rate) if tick < horizon else 0
            for _ in range(due):
                query = queries[len(arrivals) % len(queries)]
                session = client.open_multi_session(query, 5, policy=policy)
                arrivals.append((session, tick))
                try:
                    coordinator.submit(session)
                except BackpressureError:
                    pass  # refused: the caller owns the retry
            coordinator.advance(1)
            for session, _ in arrivals:
                if session.done:
                    finished.setdefault(id(session), coordinator.now)
        stats = coordinator.stats
        admitted = len(arrivals) - stats.backpressure_sheds
        assert stats.backpressure_sheds > 0
        assert stats.pipeline_overlap > 0
        assert len(finished) == stats.sessions_completed == admitted
        assert max(
            finished[id(session)] - tick
            for session, tick in arrivals
            if id(session) in finished
        ) <= horizon

    def test_bounds_validated(self, system):
        cluster, _ = system.deploy_cluster(num_servers=2)
        with pytest.raises(ConfigurationError):
            Coordinator(cluster, max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            Coordinator(cluster, round_latency=-1)


class TestBackgroundDaemons:
    @pytest.fixture()
    def keys(self):
        svc = GroupKeyService(master_secret=b"w" * 32)
        svc.register("u", {"g"})
        return svc

    def test_replication_delivery_rides_virtual_time(self, keys):
        from repro.index.postings import EncryptedPostingElement

        cluster = ServerCluster(
            keys, num_lists=1, num_servers=2, replication=2, lag=3
        )
        coordinator = Coordinator(cluster)
        element = EncryptedPostingElement(sealed(b"ct"), group="g", trs=0.5)
        cluster.insert("u", 0, element)
        follower = cluster.replicas_of(0)[1]
        coordinator.advance(2)
        assert cluster.applied_version(0, follower) == 0
        coordinator.advance(2)  # lag elapsed on the virtual clock
        assert cluster.applied_version(0, follower) == 1


class TestOneCadenceRule:
    """A session's next flush is at max(delivery tick, dispatch tick + 1):
    one rule, whether the delivery lands in the dispatching tick or later."""

    # b = 1 forces several doubling rounds per session.
    POLICY = ResponsePolicy(initial_size=1)

    def _run(self, system, monkeypatch, round_latency):
        """Six sessions submitted at tick 0; per session, every dispatch
        as ``(tick, [(list, offset, count), ...])``."""
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, round_latency=round_latency
        )
        client = system.client_for("superuser", server=cluster)
        sessions = [
            client.open_multi_session(q, 4, policy=self.POLICY)
            for q in _queries(system, 6)
        ]
        dispatches = {id(session): [] for session in sessions}
        pending_requests = ClientQuerySession.pending_requests

        def recording(session):
            requests = pending_requests(session)
            dispatches[id(session)].append(
                (
                    coordinator.now,
                    [(r.list_id, r.offset, r.count) for r in requests],
                )
            )
            return requests

        for session in sessions:
            coordinator.submit(session)
        with monkeypatch.context() as patch:
            patch.setattr(ClientQuerySession, "pending_requests", recording)
            coordinator.drain()
        return (
            coordinator.stats,
            [dispatches[id(session)] for session in sessions],
            [session.result().ranked for session in sessions],
        )

    @pytest.mark.parametrize("round_latency", [0, 1, 3])
    def test_rounds_follow_the_rule_and_latency_changes_nothing_else(
        self, system, monkeypatch, round_latency
    ):
        stats, dispatches, ranked = self._run(system, monkeypatch, round_latency)
        assert max(len(rounds) for rounds in dispatches) > 1
        for rounds in dispatches:
            ticks = [tick for tick, _ in rounds]
            assert ticks[0] == 0
            for dispatched, following in zip(ticks, ticks[1:]):
                assert following == max(
                    dispatched + round_latency, dispatched + 1
                )
        base_stats, base_dispatches, base_ranked = self._run(
            system, monkeypatch, 0
        )
        assert base_stats.pipeline_overlap == 0
        assert ranked == base_ranked
        assert [[fetch for _, fetch in rounds] for rounds in dispatches] == [
            [fetch for _, fetch in rounds] for rounds in base_dispatches
        ]
        assert stats.server_calls == base_stats.server_calls
        assert stats.sessions_completed == base_stats.sessions_completed == 6

    def test_outage_in_a_zero_latency_round_surfaces_from_tick(self, system):
        cluster, coordinator = system.deploy_cluster(num_servers=3)
        client = system.client_for("superuser", server=cluster)
        queries = _queries(system, 2)
        session = coordinator.submit(client.open_multi_session(queries[0], 4, policy=self.POLICY))
        assert coordinator.tick() is True  # round 1 dispatched and delivered
        assert session.rounds == 1 and not session.done
        down_list = session.pending_requests()[0].list_id
        for server_index in cluster.replicas_of(down_list):
            cluster.fail_server(server_index)
        with pytest.raises(UnavailableError) as excinfo:
            coordinator.tick()
        assert excinfo.value.list_id == down_list
        coordinator.evict(session)
        for server_index in range(cluster.num_servers):
            cluster.restore_server(server_index)
        results = coordinator.run_queries([(client, queries[1], 4)])
        assert results[0].ranked == client.query_multi_batched(
            queries[1], 4
        ).ranked
