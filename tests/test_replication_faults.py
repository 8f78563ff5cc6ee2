"""Fault injection for the replication subsystem.

Property tests that acknowledged writes are never lost and every replica
converges to a list-backed reference index, no matter how failures
(``fail_server``/``restore_server``), partitions (``pause_follower``),
replication lag, failover elections and reads at every consistency
level interleave.  The reference is deliberately dumb: a python list per
merged list, mutated at the moment a write is *acknowledged* (the
cluster call returns) — exactly the contract replication must preserve.

Three interleaving regimes are covered:

* random op soup against the cluster surface (hypothesis-driven);
* fail/restore around lagged writes and elections (mid-outage);
* fail/restore between coordinator scheduling ticks (mid-tick), where
  PRIMARY-consistency results must match a zero-lag reference cluster.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import SystemConfig, ZerberRSystem
from repro.core.cluster import ServerCluster
from repro.core.protocol import FetchRequest, Receipt
from repro.core.replication import ReadConsistency, WriteConsistency
from repro.errors import UnavailableError
from repro.crypto.keys import GroupKeyService
from repro.index.postings import EncryptedPostingElement
from tests.conftest import sealed

NUM_LISTS = 3
NUM_SERVERS = 4
REPLICATION = 2

OPCODES = (
    "insert",
    "insert",
    "insert",  # writes weighted up: divergence needs material
    "delete",
    "tick",
    "tick",
    "fail",
    "restore",
    "pause",
    "resume",
    "fetch_one",
    "fetch_primary",
    "fetch_quorum",
)

# The failover soup adds quorum-acked writes and targeted primary kills
# (mid-write), so elections fire while the tape runs.
FAILOVER_OPCODES = OPCODES + (
    "insert_quorum",
    "insert_quorum",
    "kill_primary",
    "tick",
)


def _keys():
    svc = GroupKeyService(master_secret=b"f" * 32)
    svc.register("u", {"g"})
    return svc


class _Reference:
    """List-backed reference index: the acknowledged state of each list."""

    def __init__(self):
        self.lists: dict[int, list[EncryptedPostingElement]] = {
            lid: [] for lid in range(NUM_LISTS)
        }

    def insert(self, list_id, element):
        self.lists[list_id].append(element)

    def delete(self, list_id, ciphertext):
        self.lists[list_id] = [
            e for e in self.lists[list_id] if e.ciphertext != ciphertext
        ]

    def expected_order(self, list_id):
        """Server order: descending TRS (unique TRS values per element)."""
        return [
            e.ciphertext
            for e in sorted(self.lists[list_id], key=lambda e: -e.trs)
        ]


def _run_ops(cluster, ops):
    """Drive the cluster with an op tape; mirror acknowledged writes.

    An op that names a level sets it on the cluster (``insert_quorum``
    writes at QUORUM, a plain ``insert`` at the level the cluster was
    built with; ``fetch_<level>`` reads at that level)."""
    ref = _Reference()
    built_write = cluster.write_consistency
    receipts: list[Receipt] = []
    counter = 0
    for opcode, r in ops:
        if opcode in ("insert", "insert_quorum"):
            list_id = r % NUM_LISTS
            counter += 1
            # Unique TRS per element keeps replica order comparison exact.
            element = EncryptedPostingElement(
                ciphertext=sealed(b"el-%04d" % counter),
                group="g",
                trs=(counter % 997) / 1000.0,
            )
            cluster.write_consistency = (
                WriteConsistency.QUORUM if opcode == "insert_quorum" else built_write
            )
            try:
                cluster.insert("u", list_id, element)
            except UnavailableError:
                # Refused (unreachable gapped primary, or a W>1 write
                # without enough ack-capable replicas): not acked.
                continue
            ref.insert(list_id, element)
            receipts.append(Receipt(list_id, element.ciphertext, element.trs))
        elif opcode == "kill_primary":
            cluster.fail_server(cluster.replicas_of(r % NUM_LISTS)[0])
        elif opcode == "delete":
            if not receipts:
                continue
            receipt = receipts[r % len(receipts)]
            try:
                # Hinted: the primary bisects to the receipt's TRS.
                (removed,) = cluster.delete_many("u", [receipt])
            except UnavailableError:
                continue
            if removed:
                ref.delete(receipt.list_id, receipt.ciphertext)
        elif opcode == "tick":
            cluster.replication_tick()
        elif opcode == "fail":
            cluster.fail_server(r % NUM_SERVERS)
        elif opcode == "restore":
            cluster.restore_server(r % NUM_SERVERS)
        elif opcode == "pause":
            cluster.pause_follower(r % NUM_SERVERS)
        elif opcode == "resume":
            cluster.resume_follower(r % NUM_SERVERS)
        elif opcode.startswith("fetch"):
            list_id = r % NUM_LISTS
            cluster.read_consistency = ReadConsistency.coerce(opcode.split("_")[1])
            try:
                response = cluster.fetch(
                    FetchRequest(principal="u", list_id=list_id, offset=0, count=5)
                )
            except UnavailableError:
                continue
            # Any response claiming the head version must show exactly
            # the acknowledged state — a strong read cannot lie.
            if response.replica_version == cluster.primary_version(list_id):
                assert [e.ciphertext for e in response.elements] == (
                    ref.expected_order(list_id)[:5]
                ), f"head-version read diverged on list {list_id}"
    return ref


def _assert_converged(cluster, ref):
    """Heal everything, anti-entropy, then compare every replica to ref."""
    for server_index in range(NUM_SERVERS):
        cluster.restore_server(server_index)
        cluster.resume_follower(server_index)
    applied = cluster.replication_manager.anti_entropy_sweep()
    assert cluster.replication_backlog() == {}, "sweep left stale replicas"
    for list_id in range(NUM_LISTS):
        expected = ref.expected_order(list_id)
        head = cluster.primary_version(list_id)
        for server_index in cluster.replicas_of(list_id):
            assert cluster.applied_version(list_id, server_index) == head
            got = [
                e.ciphertext
                for e in cluster.server(server_index).export_list(list_id)
            ]
            assert got == expected, (
                f"replica {server_index} of list {list_id} diverged"
            )
    assert cluster.num_elements == sum(len(v) for v in ref.lists.values())
    return applied


_OPS = st.lists(
    st.tuples(st.sampled_from(OPCODES), st.integers(0, 10**6)),
    max_size=120,
)

_FAILOVER_OPS = st.lists(
    st.tuples(st.sampled_from(FAILOVER_OPCODES), st.integers(0, 10**6)),
    max_size=120,
)


class TestFuzzedFaultSoup:
    @given(ops=_OPS, lag=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_acked_writes_survive_and_converge(self, ops, lag):
        cluster = ServerCluster(
            _keys(),
            num_lists=NUM_LISTS,
            num_servers=NUM_SERVERS,
            replication=REPLICATION,
            lag=lag,
        )
        ref = _run_ops(cluster, ops)
        _assert_converged(cluster, ref)

    @given(ops=_OPS)
    @settings(max_examples=25, deadline=None)
    def test_anti_entropy_alone_converges_without_ticks(self, ops):
        """Even with lag no tick will ever reach, one healed sweep suffices."""
        cluster = ServerCluster(
            _keys(),
            num_lists=NUM_LISTS,
            num_servers=NUM_SERVERS,
            replication=REPLICATION,
            lag=10**6,
        )
        ref = _run_ops(cluster, ops)
        _assert_converged(cluster, ref)


class TestFailoverSoup:
    @given(ops=_FAILOVER_OPS, lag=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_elections_never_lose_acked_writes(self, ops, lag):
        """Primary kills mid-tape depose primaries through elections;
        every acknowledged write (ONE and QUORUM) still converges."""
        cluster = ServerCluster(
            _keys(),
            num_lists=NUM_LISTS,
            num_servers=NUM_SERVERS,
            replication=REPLICATION,
            lag=lag,
            failover_after=2,
        )
        ref = _run_ops(cluster, ops)
        _assert_converged(cluster, ref)
        # Every recorded election is internally consistent.
        for event in cluster.failover_history():
            assert event.old_primary != event.new_primary
            assert 0 <= event.list_id < NUM_LISTS

    @given(ops=_FAILOVER_OPS)
    @settings(max_examples=25, deadline=None)
    def test_quorum_default_soup_converges(self, ops):
        """Same soup with cluster-wide W=QUORUM: refused writes are clean
        no-ops, acked ones converge everywhere."""
        cluster = ServerCluster(
            _keys(),
            num_lists=NUM_LISTS,
            num_servers=NUM_SERVERS,
            replication=REPLICATION,
            lag=3,
            failover_after=3,
            write_consistency="quorum",
        )
        ref = _run_ops(cluster, ops)
        _assert_converged(cluster, ref)


class TestMidOutage:
    def test_failures_between_lagged_writes(self):
        """Deterministic worst case: fail/restore straddling lagged writes."""
        cluster = ServerCluster(
            _keys(),
            num_lists=NUM_LISTS,
            num_servers=NUM_SERVERS,
            replication=REPLICATION,
            lag=3,
        )
        ref = _Reference()
        counter = 0

        def write(list_id):
            nonlocal counter
            counter += 1
            element = EncryptedPostingElement(
                ciphertext=sealed(b"mr-%03d" % counter), group="g", trs=counter / 1000.0
            )
            cluster.insert("u", list_id, element)
            ref.insert(list_id, element)

        for list_id in range(NUM_LISTS):
            write(list_id)
            write(list_id)
        # Write list 0 while its follower is behind AND down, then write
        # list 1 through its down primary (the durable-primary idealisation).
        cluster.fail_server(cluster.replicas_of(0)[1])
        write(0)
        cluster.replication_tick()
        write(0)  # a second op with backlog in flight
        cluster.fail_server(cluster.replicas_of(1)[0])
        write(1)
        for server_index in range(NUM_SERVERS):
            cluster.restore_server(server_index)
        cluster.run_replication_until_quiet()
        _assert_converged(cluster, ref)

    def test_election_mid_outage_keeps_quorum_writes(self):
        """Kill a primary mid-workload with failover enabled: a replica
        is elected, the epoch moves, quorum writes keep landing during
        the outage, and no acknowledged QUORUM write is lost."""
        cluster = ServerCluster(
            _keys(),
            num_lists=NUM_LISTS,
            num_servers=NUM_SERVERS,
            replication=3,  # quorum (2) stays reachable with one dead
            lag=2,
            failover_after=2,
        )
        ref = _Reference()
        counter = 0

        def write(list_id, consistency=WriteConsistency.ONE):
            nonlocal counter
            counter += 1
            element = EncryptedPostingElement(
                ciphertext=sealed(b"fe-%03d" % counter), group="g", trs=counter / 1000.0
            )
            cluster.write_consistency = consistency
            cluster.insert("u", list_id, element)
            ref.insert(list_id, element)

        for list_id in range(NUM_LISTS):
            write(list_id, WriteConsistency.QUORUM)
        epoch_before = cluster.placement_epoch
        victim = cluster.replicas_of(0)[0]
        cluster.fail_server(victim)
        write(0)  # mid-write: the primary is already dead (W=ONE lands)
        for _ in range(3):
            cluster.replication_tick()
        assert cluster.failover_history(), "no election fired"
        assert cluster.placement_epoch > epoch_before
        assert cluster.replicas_of(0)[0] != victim
        # The elected primary acknowledges quorum writes mid-outage.
        write(0, WriteConsistency.QUORUM)
        cluster.replication_tick()
        write(0, WriteConsistency.QUORUM)
        cluster.restore_server(victim)
        cluster.run_replication_until_quiet()
        _assert_converged(cluster, ref)


@pytest.fixture(scope="module")
def fault_system(micro_corpus):
    return ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=33))


class TestMidCoordinatorTick:
    def test_primary_reads_match_zero_lag_reference(self, fault_system):
        """Coordinator queries under lag + failures == zero-lag results."""
        system = fault_system
        reference_cluster, _ = system.deploy_cluster(
            num_servers=3, replication=2
        )
        lagged_cluster, coordinator = system.deploy_cluster(
            num_servers=3, replication=2, lag=2, anti_entropy_every=4
        )
        terms = [
            t
            for t in system.vocabulary.terms_by_frequency()
            if system.vocabulary.document_frequency(t) >= 2
        ]
        queries = [terms[i : i + 2] for i in range(0, 8, 2)]
        reference_client = system.client_for(
            "superuser", server=reference_cluster
        )
        lagged_client = system.client_for("superuser", server=lagged_cluster)
        expected = [
            reference_client.query_multi_batched(q, 4).ranked for q in queries
        ]
        sessions = [
            coordinator.submit(lagged_client.open_multi_session(q, 4))
            for q in queries
        ]
        # Fail and restore a different server between scheduling ticks;
        # replication=2 keeps one replica of every list alive.
        victim = 0
        while coordinator.active_sessions:
            lagged_cluster.fail_server(victim)
            coordinator.tick()
            lagged_cluster.restore_server(victim)
            victim = (victim + 1) % lagged_cluster.num_servers
        assert [s.result().ranked for s in sessions] == expected

    def test_writes_during_lag_visible_to_strong_reads(self, fault_system):
        """A document indexed into a lagged cluster is immediately
        queryable at PRIMARY consistency, replica failure included."""
        from repro.text.analysis import DocumentStats

        system = fault_system
        cluster, coordinator = system.deploy_cluster(
            num_servers=3, replication=2, lag=3
        )
        group = sorted(system.corpus.groups())[0]
        owner = system.client_for(f"owner:{group}", server=cluster)
        term = next(
            t
            for t in system.vocabulary.terms_by_frequency()
            if system.vocabulary.document_frequency(t) >= 2
        )
        doc = DocumentStats.from_counts("fresh-doc", {term: 5})
        owner.index_document_with_receipts(doc, group)
        list_id = system.merge_plan.list_of(term)
        cluster.fail_server(cluster.replicas_of(list_id)[0])
        superuser = system.client_for("superuser", server=cluster)
        result = superuser.query(term, k=10)
        assert "fresh-doc" in result.doc_ids()
