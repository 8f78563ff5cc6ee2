"""Unit tests for the sharded multi-server deployment."""

import dataclasses
import gc
import random
import weakref

import pytest

from repro.core.cluster import ServerCluster
from repro.core.protocol import (
    BatchFetchRequest,
    BatchFetchResponse,
    FetchRequest,
    FetchResponse,
    Receipt,
)
from repro.core.replication import ReadConsistency
from repro.core.server import ZerberRServer
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    ConfigurationError,
    CryptoError,
    ProtocolError,
    QuorumUnavailableError,
    UnavailableError,
    UnknownListError,
)
from repro.index.postings import STORED_ELEMENT_BITS, EncryptedPostingElement
from repro.obs import Telemetry
from tests.conftest import sealed, slices_batch


@pytest.fixture()
def keys():
    svc = GroupKeyService(master_secret=b"c" * 32)
    svc.register("u", {"g"})
    return svc


def _element(trs, payload=b"cipher"):
    return EncryptedPostingElement(ciphertext=sealed(payload), group="g", trs=trs)


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

    @pytest.mark.parametrize("index", [2, -1])
    def test_one_check_refuses_an_unknown_server_everywhere(self, keys, index):
        """Every entry point that takes a server index refuses one the
        cluster does not have with the same error, a negative one too."""
        cluster = ServerCluster(keys, num_lists=4, num_servers=2, replication=2)
        refusals = [
            lambda: cluster.pause_follower(index),
            lambda: cluster.resume_follower(index),
            lambda: cluster.delivery_outlook(index),
            lambda: cluster.visible_fraction([0, index]),
            lambda: cluster.serve_envelope(index, slices_batch("u", [(0, 0, 1)])),
            lambda: cluster.restore_failover_state(unreachable_since={index: 1}),
        ]
        for refused in refusals:
            with pytest.raises(ConfigurationError, match=f"unknown server index {index}"):
                refused()
        assert cluster.unreachable_since() == {}

    def test_a_dropped_cluster_is_freed_without_the_cycle_collector(self, keys):
        """Every system holds a one-server cluster: held in a reference
        cycle, a dropped system's index would outlive it until the next
        collection and raise the peak memory of the one built after it."""
        cluster = ServerCluster(keys, num_lists=4, num_servers=2, replication=2)
        cluster.insert("u", 0, _element(0.5))
        freed = weakref.ref(cluster)
        gc.disable()
        try:
            del cluster
            assert freed() is None
        finally:
            gc.enable()


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

    def test_storage_bits_count_every_stored_copy(self, keys):
        """Physical storage, replicas included, at STORED_ELEMENT_BITS a copy."""
        cluster = ServerCluster(keys, num_lists=4, num_servers=3, replication=2)
        for list_id in range(4):
            cluster.insert("u", list_id, _element(0.5, b"st%d" % list_id))
        assert cluster.num_elements == 4
        assert cluster.storage_bits() == 2 * 4 * STORED_ELEMENT_BITS

    def test_insert_many_and_fetch(self, keys):
        cluster = ServerCluster(keys, num_lists=3, num_servers=2)
        items = [(0, _element(t, str(t).encode())) for t in (0.2, 0.9, 0.5)]
        assert cluster.insert_many("u", items) == 3
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
        """Replicated multi-insert costs one ``apply_replicated_ops`` call
        per primary server, carrying the run of each list it leads, and
        one per follower server on the delivery side, carrying its run of
        each list it follows: the same call, the same runs per list."""
        cluster = ServerCluster(keys, num_lists=4, num_servers=3, replication=2)
        servers = [cluster.server(i) for i in range(cluster.num_servers)]
        calls = []
        original_apply = ZerberRServer.apply_replicated_ops

        def counting_apply(self, runs):
            runs = [(list_id, list(ops)) for list_id, ops in runs]
            carried = [(list_id, [op.kind for op in ops]) for list_id, ops in runs]
            calls.append((servers.index(self), carried))
            return original_apply(self, runs)

        monkeypatch.setattr(ZerberRServer, "apply_replicated_ops", counting_apply)
        items = [
            (list_id, _element(0.1 * (i + 1), b"im%d" % i))
            for i, list_id in enumerate([0, 1, 2, 3, 0, 1])
        ]
        assert cluster.insert_many("u", items) == 6
        # 6 elements over 4 lists: one run per list at each of its
        # replicas, not one per element.
        expected = []
        for list_id, kinds in enumerate([["insert"] * 2] * 2 + [["insert"]] * 2):
            for server_index in cluster.replicas_of(list_id):
                expected.append((list_id, server_index, kinds))
        runs = [
            (list_id, server_index, kinds)
            for server_index, carried in calls
            for list_id, kinds in carried
        ]
        assert sorted(runs) == sorted(expected)
        # One call per server on each side, not one per list: the
        # primaries' calls came first, each carrying the lists its server
        # leads in first-touch order.
        leads = {}
        for list_id in range(4):
            leads.setdefault(cluster.replicas_of(list_id)[0], []).append(list_id)
        assert [
            (server_index, [list_id for list_id, _ in carried])
            for server_index, carried in calls[: len(leads)]
        ] == list(leads.items())
        assert len(calls) == 2 * cluster.num_servers
        # Contents landed exactly as per-element replicated inserts would.
        assert cluster.num_elements == 6
        for list_id in range(4):
            primary, follower = cluster.replicas_of(list_id)
            assert cluster.server(follower).export_list(list_id) == (
                cluster.server(primary).export_list(list_id)
            )

    def test_insert_many_rejected_batch_touches_no_server(self, keys):
        """Validation failures must not leave replicas divergent."""
        cluster = ServerCluster(keys, num_lists=2, num_servers=2, replication=2)
        bad_group = EncryptedPostingElement(
            ciphertext=sealed(b"bad"), group="not-a-group", trs=0.5
        )
        with pytest.raises(CryptoError):
            cluster.insert_many("u", [(0, _element(0.9)), (1, bad_group)])
        assert cluster.num_elements == 0
        with pytest.raises(UnknownListError):
            cluster.insert_many("u", [(0, _element(0.9)), (2, _element(0.5))])
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


class TestOneMutationPath:
    """A primary takes the ops a batch recorded through the call its
    followers take them through, ``apply_replicated_ops``, so a batch
    leaves every replica holding its primary's very list."""

    # Per list: a tie run of three at 0.5 between two singletons.
    PAYLOADS = [
        (0.9, b"top"),
        (0.5, b"tie-a"),
        (0.5, b"tie-b"),
        (0.5, b"tie-c"),
        (0.1, b"low"),
    ]

    def _cluster(self, keys, lag):
        cluster = ServerCluster(keys, num_lists=3, num_servers=3, replication=3, lag=lag)
        cluster.insert_many(
            "u",
            [
                (list_id, _element(trs, b"%d-%s" % (list_id, payload)))
                for list_id in range(3)
                for trs, payload in self.PAYLOADS
            ],
        )
        cluster.run_replication_until_quiet()
        return cluster

    @staticmethod
    def _receipt(list_id, payload, trs):
        return Receipt(list_id, sealed(b"%d-%s" % (list_id, payload)), trs)

    def _batch(self):
        r = self._receipt
        return [
            r(0, b"tie-b", 0.5),
            r(0, b"tie-b", 0.5),  # the same element named twice
            r(1, b"absent", 0.5),  # never inserted
            r(1, b"tie-a", 0.5),
            r(2, b"tie-c", 0.9),  # its ciphertext, another TRS
            r(2, b"tie-c", 0.5),
            r(2, b"low", 0.1),
        ]

    @pytest.mark.parametrize("lag", [0, 2])
    def test_every_replica_holds_its_primarys_list(self, keys, lag):
        cluster = self._cluster(keys, lag)
        assert len({cluster.replicas_of(i)[0] for i in range(3)}) == 3
        hits = cluster.delete_many("u", self._batch())
        assert hits == [True, False, False, True, False, True, True]
        if lag:
            assert cluster.replication_backlog()
            cluster.run_replication_until_quiet()
        assert cluster.replication_backlog() == {}
        for list_id in range(3):
            primary, *followers = cluster.replicas_of(list_id)
            held = cluster.server(primary).export_list(list_id)
            left = [
                [b"top", b"tie-a", b"tie-c", b"low"],
                [b"top", b"tie-b", b"tie-c", b"low"],
                [b"top", b"tie-a", b"tie-b"],
            ][list_id]
            assert [e.ciphertext for e in held] == [
                sealed(b"%d-%s" % (list_id, payload)) for payload in left
            ]
            for follower in followers:
                copy = cluster.server(follower).export_list(list_id)
                assert len(copy) == len(held)
                assert all(a is b for a, b in zip(copy, held))

    def test_a_delete_batch_applies_one_run_per_touched_list(self, keys, monkeypatch):
        cluster = self._cluster(keys, lag=0)
        servers = [cluster.server(i) for i in range(cluster.num_servers)]
        calls = []
        apply = ZerberRServer.apply_replicated_ops

        def counting_apply(server, runs):
            runs = [(list_id, list(ops)) for list_id, ops in runs]
            carried = [(list_id, len(ops)) for list_id, ops in runs]
            calls.append((servers.index(server), carried))
            return apply(server, runs)

        monkeypatch.setattr(ZerberRServer, "apply_replicated_ops", counting_apply)
        cluster.delete_many("u", self._batch())
        primaries = [(list_id, cluster.replicas_of(list_id)[0]) for list_id in range(3)]
        # One run per list at its primary, first — one call per primary
        # server, each leading one list here; then one call per follower
        # server, carrying its run of both lists it follows.
        assert calls[:3] == [
            (primary, [(list_id, hits)])
            for (list_id, primary), hits in zip(primaries, [1, 1, 2])
        ]
        runs = [
            (list_id, server_index)
            for server_index, carried in calls
            for list_id, _ in carried
        ]
        assert sorted(runs) == sorted(
            (list_id, server_index)
            for list_id in range(3)
            for server_index in cluster.replicas_of(list_id)
        )
        assert len(calls) == 2 * cluster.num_servers


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
        batch = slices_batch(
            "u", [(0, 0, 2), (1, 0, 2), (2, 1, 2), (3, 0, 1)]
        )
        batched = cluster.batch_fetch(batch)
        assert len(batched) == 4
        for request, response in zip(batch.requests, batched.responses):
            assert cluster.fetch(request) == response  # a one-slice batch

    def test_one_sub_batch_per_touched_server(self, keys):
        cluster = self._populated(keys)
        batch = slices_batch(
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
            slices_batch("u", [(0, 0, 1), (1, 0, 1)])
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
                slices_batch("u", [(0, 0, 1), (1, 0, 1)])
            )
        # Lists on the surviving server still batch-fetch fine.
        batched = cluster.batch_fetch(
            slices_batch("u", [(1, 0, 1), (3, 0, 1)])
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
        (observed,) = cluster.observations_at(primary)
        assert observed.batch_id is not None  # fetch travels as a batch
        assert cluster.observations_at(other) == []


# -- the read path refines the accessor-spelled one ---------------------------


class _AccessorReadPath(ServerCluster):
    """Test-only reference: routing and stamping as they were spelled
    before they read the replication log in one call — through
    ``replicas_of`` (a row copy per slice), one ``applied_version`` call
    per replica, ``head_version``, the cluster's ``is_paused`` and
    ``dataclasses.replace``.  It reads every stamp before the server call
    too, but has the server build every reply stamped 0 and stamps the
    replies afterwards, so it shares none of
    ``ServerCluster.serve_envelope``.  :class:`ServerCluster`'s read path
    must be indistinguishable from it (``TestReadPathRefinement``)."""

    def route(self, list_id, min_version=0):
        repl = self.replication_manager
        consistency = self.read_consistency
        replicas = self.replicas_of(list_id)
        live = [s for s in replicas if self.is_alive(s)]
        if not live:
            raise UnavailableError(list_id, len(replicas))
        if consistency is ReadConsistency.QUORUM:
            needed = len(replicas) // 2 + 1
            if len(live) < needed:
                raise QuorumUnavailableError(
                    list_id,
                    len(replicas),
                    needed,
                    live_replicas=tuple(live),
                    down_replicas=tuple(s for s in replicas if not self.is_alive(s)),
                    paused_replicas=tuple(s for s in live if self.is_paused(s)),
                )
            repl.stats.version_probes += len(live)
            return max(live, key=lambda s: repl.applied_version(list_id, s))
        head = repl.head_version(list_id)
        if consistency is ReadConsistency.PRIMARY:
            fresh = [s for s in live if repl.applied_version(list_id, s) == head]
            candidates = fresh if fresh else live
        else:
            candidates = live
            floor = min(min_version, head)
            if floor > 0:
                satisfying = [
                    s for s in live if repl.applied_version(list_id, s) >= floor
                ]
                if satisfying:
                    candidates = satisfying
        unpaused = [s for s in candidates if not self.is_paused(s)]
        if unpaused:
            candidates = unpaused
        return candidates[0]

    def serve_envelope(self, server_index, batch):
        if not self.is_alive(server_index):
            raise ProtocolError(f"server {server_index} is down")
        repl = self.replication_manager
        stamps = [
            (repl.applied_version(r.list_id, server_index), repl.head_version(r.list_id))
            for r in batch.requests
        ]
        served = self.server(server_index).batch_fetch(batch, [0] * len(batch))
        return BatchFetchResponse(
            tuple(
                dataclasses.replace(response, replica_version=version)
                if version >= head
                else self._repair(request, server_index, response, version, head)
                for request, response, (version, head) in zip(
                    batch.requests, served, stamps
                )
            )
        )

    def _repair(self, request, server_index, response, version, head):
        repl = self.replication_manager
        consistency = self.read_consistency
        list_id = request.list_id
        repl.observe_staleness(head - version)
        if repl.sync(list_id, server_index):
            repl.stats.read_repairs += 1
        if consistency is ReadConsistency.QUORUM:
            for other in self.replicas_of(list_id):
                if (
                    other != server_index
                    and self.is_alive(other)
                    and repl.applied_version(list_id, other) < head
                    and repl.sync(list_id, other)
                ):
                    repl.stats.read_repairs += 1
        needs_fresh = consistency is not ReadConsistency.ONE
        floor = min(request.min_version, head)
        floor_violated = version < floor
        if needs_fresh or floor_violated:
            reserve_from = None
            if repl.applied_version(list_id, server_index) >= head:
                reserve_from = server_index
            else:
                primary = self.replicas_of(list_id)[0]
                if (
                    self.is_alive(primary)
                    and repl.applied_version(list_id, primary) >= head
                ):
                    reserve_from = primary
            if reserve_from is not None:
                if not needs_fresh:
                    repl.stats.floor_reserves += 1
                response = self.server(reserve_from).fetch(request, 0)
                repl.stats.read_reserves += 1
                version = repl.applied_version(list_id, reserve_from)
                return dataclasses.replace(response, replica_version=version)
        return dataclasses.replace(response, replica_version=version)


READ_SERVERS = 4
READ_LISTS = 5
CONSISTENCIES = [None, "one", "primary", "quorum"]


class _ReadWorld:
    """One cluster under the shared random script; every step's outcome
    is reduced to plain, comparable values."""

    def __init__(self, cls, replication, consistency, lag=2):
        keys = GroupKeyService(master_secret=b"r" * 32)
        keys.register("u", {"g"})
        keys.register("v", {"g", "h"})
        self.cluster = cls(
            keys,
            num_lists=READ_LISTS,
            num_servers=READ_SERVERS,
            replication=replication,
            lag=lag,
            read_consistency=consistency,
        )

    @staticmethod
    def _plain(value):
        if isinstance(value, FetchResponse):
            return (
                tuple(id(e) for e in value.elements),
                value.exhausted,
                value.replica_version,
            )
        if isinstance(value, BatchFetchResponse):
            return [_ReadWorld._plain(r) for r in value.responses]
        return value

    def outcome(self, call):
        try:
            return "ok", self._plain(call(self.cluster))
        except (ProtocolError, ConfigurationError, CryptoError) as error:
            return "error", type(error), str(error), dict(vars(error))

    def observe(self):
        cluster = self.cluster
        return {
            "stats": dataclasses.asdict(cluster.replication_stats),
            "observed": [
                list(cluster.observations_at(s)) for s in range(READ_SERVERS)
            ],
            "backlog": cluster.replication_backlog(),
            "loads": cluster.per_server_load(),
        }


def _at_level(level, read):
    """*read* (a call taking the cluster) at read level *level* — the
    cluster's own setting, assigned for the call and put back after it;
    ``None`` reads at the level the world was built with."""

    def call(cluster):
        if level is None:
            return read(cluster)
        built_with = cluster.read_consistency
        cluster.read_consistency = ReadConsistency.coerce(level)
        try:
            return read(cluster)
        finally:
            cluster.read_consistency = built_with

    return call


def _read_script(rng, steps, replicas_of):
    """``(description, call)`` pairs; *call* takes the cluster, so the
    very same elements and requests reach both worlds."""
    inserted = []
    heads = [0] * READ_LISTS

    def request(principal=None, lists=range(READ_LISTS)):
        list_id = rng.choice(lists)
        head = heads[list_id]
        floor = rng.choice([0, 0, 0, head, rng.randint(0, head + 2)])
        return FetchRequest(
            principal or rng.choice("uv"),
            list_id,
            rng.randrange(4),
            rng.randint(1, 4),
            min_version=floor,
        )

    for number in range(steps):
        kind = rng.randrange(16)
        if kind < 4:
            list_id = rng.randrange(READ_LISTS)
            element = EncryptedPostingElement(
                ciphertext=sealed(b"e%d" % number),
                group=rng.choice("gh"),
                trs=rng.random(),
            )
            inserted.append((list_id, element))
            heads[list_id] += 1
            yield f"insert {list_id}", lambda c, l=list_id, e=element: c.insert("v", l, e)
        elif kind == 4 and inserted:
            list_id, element = inserted.pop(rng.randrange(len(inserted)))
            heads[list_id] += 1
            receipt = Receipt(list_id, element.ciphertext, element.trs)
            yield f"delete {list_id}", lambda c, r=receipt: c.delete_element("v", r)
        elif kind == 5:
            yield "tick", lambda c: c.replication_tick()
        elif kind == 6:
            server, up = rng.randrange(READ_SERVERS), rng.random() < 0.5
            yield f"alive {server} {up}", lambda c, s=server, u=up: (
                c.restore_server(s) if u else c.fail_server(s)
            )
        elif kind == 7:
            server, held = rng.randrange(READ_SERVERS), rng.random() < 0.5
            yield f"paused {server} {held}", lambda c, s=server, h=held: (
                c.pause_follower(s) if h else c.resume_follower(s)
            )
        elif kind < 11:
            one, level = request(), rng.choice(CONSISTENCIES)
            yield f"fetch {one} {level}", _at_level(level, lambda c, r=one: c.fetch(r))
        elif kind < 14:
            principal = rng.choice("uv")
            batch = BatchFetchRequest(
                tuple(request(principal) for _ in range(rng.randint(1, 4)))
            )
            level = rng.choice(CONSISTENCIES)
            yield f"batch {batch} {level}", _at_level(
                level, lambda c, b=batch: c.batch_fetch(b)
            )
        elif kind == 14:
            server, level = rng.randrange(READ_SERVERS), rng.choice(CONSISTENCIES)
            lists = range(READ_LISTS)
            if rng.random() < 0.8:  # mostly what a coordinator would route here
                lists = [l for l in lists if server in replicas_of(l)]
            # One or two principals' slices in one envelope, by principal.
            slices = tuple(
                one
                for principal in rng.sample("uv", rng.randint(1, 2))
                for one in [request(principal, lists) for _ in range(rng.randint(1, 3))]
            )
            yield f"envelope @{server} {slices} {level}", _at_level(
                level,
                lambda c, s=server, r=slices: c.serve_envelope(s, BatchFetchRequest(r)),
            )
        else:
            one, level = request(), rng.choice(CONSISTENCIES)
            yield f"route {one} {level}", _at_level(
                level, lambda c, r=one: c.route(r.list_id, r.min_version)
            )


class TestReadPathRefinement:
    """Reading the log once per slice changes nothing anybody can see:
    same server per slice, same response, same error, same repair
    counters, same observation log — against the accessor-spelled
    reference, step by step through one random script, at lag 0 and 2.
    A read reaches a follower only in the script's outages and
    partitions of a primary."""

    @pytest.mark.parametrize("lag", [0, 2])
    @pytest.mark.parametrize("consistency", ["one", "primary", "quorum"])
    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_same_server_response_error_stats_and_observations(
        self, replication, consistency, lag
    ):
        seen = set()
        for seed in range(3):
            new = _ReadWorld(ServerCluster, replication, consistency, lag)
            ref = _ReadWorld(_AccessorReadPath, replication, consistency, lag)
            rng = random.Random(f"{replication}/{consistency}/{seed}")
            script = _read_script(rng, 200, ref.cluster.replicas_of)
            for number, (what, call) in enumerate(script):
                got, expected = new.outcome(call), ref.outcome(call)
                assert got == expected, (seed, number, what)
                assert new.observe() == ref.observe(), (seed, number, what)
                seen.add(got[1] if got[0] == "error" else what.split()[0])
            stats = new.cluster.replication_stats
            if replication > 1 and lag:  # at lag 0 only outages leave replicas stale
                assert stats.stale_reads_detected and stats.read_repairs
        # The script reached the paths it is here for.
        assert {"fetch", "batch", "envelope", "route", UnavailableError} <= seen
        if replication > 1 and consistency == "quorum":
            assert QuorumUnavailableError in seen

    def test_the_script_exercises_floors_and_every_reserve_kind(self):
        new = _ReadWorld(ServerCluster, 3, "one")
        ref = _ReadWorld(_AccessorReadPath, 3, "one")
        for what, call in _read_script(random.Random(19), 900, ref.cluster.replicas_of):
            assert new.outcome(call) == ref.outcome(call), what
        stats = new.cluster.replication_stats
        assert stats == ref.cluster.replication_stats
        assert stats.floor_reserves and stats.read_repairs
        assert stats.read_reserves > stats.floor_reserves
        assert stats.version_probes
        staleness = new.cluster.replication_manager.max_staleness_seen
        assert staleness == ref.cluster.replication_manager.max_staleness_seen > 1

    def test_a_slice_on_a_server_that_does_not_hold_its_list(self, keys):
        cluster = ServerCluster(keys, num_lists=4, num_servers=3)
        stranger = next(s for s in range(3) if s not in cluster.replicas_of(1))
        held = next(l for l in range(4) if stranger in cluster.replicas_of(l))
        envelope = BatchFetchRequest(
            (FetchRequest("u", held, 0, 1), FetchRequest("u", 1, 0, 1))
        )
        with pytest.raises(ProtocolError, match=f"server {stranger} does not hold list 1"):
            cluster.serve_envelope(stranger, envelope)
        # Refused before anything was served, the slice it holds included.
        assert cluster.observations_at(stranger) == []
        assert cluster.total_calls == 0


class TestStampBeforeServe:
    """A strong read that repairs its replica partway through one server
    call must not stamp the call's later, pre-repair slices as fresh: the
    stamp of every slice is read before the serve."""

    RANGES = (FetchRequest("u", 0, 0, 2), FetchRequest("u", 0, 2, 2))
    TWO_PRINCIPALS = (FetchRequest("u", 0, 0, 2), FetchRequest("w", 0, 0, 2))

    @pytest.mark.parametrize(
        "envelope, level, requests, expected",
        [
            (False, "primary", RANGES, [slice(0, 2), slice(2, 4)]),
            (True, "primary", RANGES, [slice(0, 2), slice(2, 4)]),
            (True, "quorum", RANGES, [slice(0, 2), slice(2, 4)]),
            (True, "primary", TWO_PRINCIPALS, [slice(0, 2), slice(0, 2)]),
            (True, "quorum", TWO_PRINCIPALS, [slice(0, 2), slice(0, 2)]),
        ],
    )
    def test_every_slice_of_a_call_reads_the_repaired_replica(
        self, keys, envelope, level, requests, expected
    ):
        # Four writes the lagged follower has not seen, and the primary down.
        keys.register("w", {"g"})
        cluster = ServerCluster(
            keys,
            num_lists=1,
            num_servers=2,
            replication=2,
            lag=5,
            read_consistency=level,
        )
        elements = tuple(_element(0.9 - 0.1 * i, b"e%d" % i) for i in range(4))
        for element in elements:
            cluster.insert("u", 0, element)
        primary, follower = cluster.replicas_of(0)
        cluster.fail_server(primary)
        if envelope:
            replies = cluster.serve_envelope(follower, BatchFetchRequest(requests))
        else:
            replies = cluster.batch_fetch(BatchFetchRequest(requests))
        assert [r.elements for r in replies] == [elements[s] for s in expected]
        assert [r.replica_version for r in replies] == [4, 4]
        stats = cluster.replication_stats
        assert (stats.read_repairs, stats.read_reserves) == (1, 2)

    def test_a_query_over_one_merged_list_ranks_as_the_single_server(self, system):
        by_list = {}
        for term in system.vocabulary.terms_by_frequency():
            by_list.setdefault(system.merge_plan.list_of(term), []).append(term)
        terms = next(found[:2] for found in by_list.values() if len(found) >= 2)
        single = system.client_for("superuser").query_multi_batched(terms, 3)
        cluster, _ = system.deploy_cluster(num_servers=2, replication=2, lag=5)
        cluster.fail_server(cluster.replicas_of(system.merge_plan.list_of(terms[0]))[0])
        reader = system.client_for("superuser", server=cluster)
        result = reader.query_multi_batched(terms, 3)
        assert result.ranked == single.ranked
        satisfied = [[t.satisfied for t in r.traces] for r in (result, single)]
        assert satisfied[0] == satisfied[1]
        assert all(t.elements_transferred for t in result.traces)


class TestReadInstrumentsPerServerCall:
    """Telemetry on: the read counter moves once per server call, by the
    slices it served, and the lag histogram still sees every slice — so
    both series read what a bump per slice would have left."""

    def _cluster(self, telemetry):
        keys = GroupKeyService(master_secret=b"t" * 32)
        keys.register("u", {"g"})
        cluster = ServerCluster(
            keys, num_lists=4, num_servers=2, replication=2, lag=3, telemetry=telemetry
        )
        for list_id in range(4):
            cluster.insert("u", list_id, _element(0.5, b"e%d" % list_id))
        return cluster

    @staticmethod
    def _counted(reads, lags, level):
        return reads.value(consistency=level), lags.count(consistency=level)

    def test_counter_and_histogram_count_every_slice_once(self):
        telemetry = Telemetry()
        cluster = self._cluster(telemetry)
        reads = telemetry.registry.counter("cluster_reads_total")
        lags = telemetry.registry.histogram("cluster_read_lag_ticks")
        cluster.fetch(FetchRequest("u", 0, 0, 1))
        assert self._counted(reads, lags, "primary") == (1, 1)
        batch = slices_batch("u", [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
        cluster.read_consistency = ReadConsistency.ONE
        cluster.batch_fetch(batch)  # splits over both servers
        assert {o.batch_id for s in range(2) for o in cluster.observations_at(s)} >= {1}
        assert self._counted(reads, lags, "one") == (3, 3)
        cluster.read_consistency = ReadConsistency.QUORUM
        server = cluster.route(3)
        cluster.serve_envelope(
            server, slices_batch("u", [(3, 0, 1), (3, 1, 1)])
        )
        assert self._counted(reads, lags, "quorum") == (2, 2)
        # A follower that still waits for its copy reports the ticks left.
        follower = cluster.replicas_of(0)[1]
        assert cluster.applied_version(0, follower) == 0
        cluster.fail_server(cluster.replicas_of(0)[0])
        before = lags.sum(consistency="one")
        cluster.read_consistency = ReadConsistency.ONE
        cluster.fetch(FetchRequest("u", 0, 0, 1))
        assert lags.sum(consistency="one") == before + 3
        assert reads.total() == 7 == sum(cluster.per_server_load())


class TestClusterStateGauges:
    """The cluster collector mirrors per-server state into two gauges at
    snapshot time: ``cluster_server_load`` (slices served) and
    ``replication_follower_backlog`` (log ops a server still lacks,
    summed over the lists it holds)."""

    def _cluster(self, telemetry, **kwargs):
        keys = GroupKeyService(master_secret=b"g" * 32)
        keys.register("u", {"g"})
        return ServerCluster(
            keys, num_lists=3, num_servers=3, replication=3, telemetry=telemetry, **kwargs
        )

    @staticmethod
    def _gauge(telemetry, name):
        series = telemetry.registry.snapshot()[name]["series"]
        return {int(entry["labels"]["server"]): entry["value"] for entry in series}

    def test_backlog_reads_zero_on_every_server_when_converged(self):
        telemetry = Telemetry()
        cluster = self._cluster(telemetry)
        for list_id in range(3):
            cluster.insert("u", list_id, _element(0.5, b"c%d" % list_id))
        assert cluster.replication_backlog() == {}
        backlog = self._gauge(telemetry, "replication_follower_backlog")
        assert backlog == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_backlog_follows_a_paused_follower_down_and_back(self):
        telemetry = Telemetry()
        cluster = self._cluster(telemetry, lag=1)
        cluster.pause_follower(2)
        for i in range(4):
            cluster.insert("u", i % 3, _element(0.1 * (i + 1), b"p%d" % i))
        cluster.run_replication_until_quiet()
        backlog = self._gauge(telemetry, "replication_follower_backlog")
        # Server 2 leads list 2 (one op) and lacks lists 0 (two) and 1 (one).
        assert backlog == {0: 0.0, 1: 0.0, 2: 3.0}
        cluster.resume_follower(2)
        cluster.run_replication_until_quiet()
        assert self._gauge(telemetry, "replication_follower_backlog") == {
            0: 0.0,
            1: 0.0,
            2: 0.0,
        }

    def test_max_staleness_gauge_reads_the_managers_high_water_mark(self):
        telemetry = Telemetry()
        cluster = self._cluster(telemetry, lag=5, read_consistency="one")
        for i in range(3):
            cluster.insert("u", 0, _element(0.1 * (i + 1), b"s%d" % i))
        cluster.fail_server(cluster.replicas_of(0)[0])
        cluster.fetch(FetchRequest("u", 0, 0, 1))
        assert cluster.replication_manager.max_staleness_seen == 3
        series = telemetry.registry.snapshot()["replication_max_staleness"]["series"]
        assert series == [{"labels": {}, "value": 3.0}]

    def test_server_load_mirrors_per_server_load(self):
        telemetry = Telemetry()
        cluster = self._cluster(telemetry, read_consistency="one")
        for list_id in range(3):
            cluster.insert("u", list_id, _element(0.5, b"l%d" % list_id))
        for step in range(7):
            if step == 4:  # list 0's primary goes: its follower serves
                cluster.fail_server(0)
            cluster.fetch(FetchRequest("u", step % 3, 0, 1))
        load = self._gauge(telemetry, "cluster_server_load")
        assert [load[s] for s in range(3)] == cluster.per_server_load() == [2, 3, 2]
        assert sum(load.values()) == 7


class TestLoadAccounting:
    """``per_server_load`` counts slices and ``total_calls`` server calls,
    for each of the three read shapes."""

    def _cluster(self, keys):
        cluster = ServerCluster(keys, num_lists=4, num_servers=2)
        for list_id in range(4):
            cluster.insert("u", list_id, _element(0.5, b"a%d" % list_id))
        return cluster

    def test_a_fetch_is_one_call_of_one_slice(self, keys):
        cluster = self._cluster(keys)
        cluster.fetch(FetchRequest("u", 1, 0, 1))
        assert cluster.total_calls == 1
        assert cluster.per_server_load() == [0, 1]

    def test_a_split_batch_is_one_call_per_touched_server(self, keys):
        cluster = self._cluster(keys)
        batch = slices_batch(
            "u", [(0, 0, 1), (1, 0, 1), (2, 0, 1)]
        )
        cluster.batch_fetch(batch)
        assert cluster.total_calls == 2
        assert cluster.per_server_load() == [2, 1]

    def test_an_envelope_is_one_call(self, keys):
        keys.register("v", {"g"})
        cluster = self._cluster(keys)
        envelope = BatchFetchRequest(
            (FetchRequest("u", 0, 0, 1), FetchRequest("v", 2, 0, 1))
        )
        cluster.serve_envelope(0, envelope)
        assert cluster.total_calls == 1
        assert cluster.per_server_load() == [2, 0]

    def test_an_election_keeps_the_counts(self, keys):
        cluster = ServerCluster(
            keys, num_lists=4, num_servers=2, replication=2, failover_after=1
        )
        for list_id in range(4):
            cluster.insert("u", list_id, _element(0.5, b"b%d" % list_id))
        for list_id in range(4):
            cluster.fetch(FetchRequest("u", list_id, 0, 1))
        assert cluster.per_server_load() == [2, 2]
        cluster.fail_server(1)
        cluster.replication_tick()
        cluster.replication_tick()
        assert cluster.placement_epoch == 1
        cluster.fetch(FetchRequest("u", 1, 0, 1))
        assert cluster.per_server_load() == [3, 2]
        assert cluster.total_calls == 5
