"""Crash-recovery tests for whole-cluster persistence.

The restart-amnesia contract: a cluster snapshotted mid-replication —
nonzero lag, paused followers, down servers, whatever — and reloaded
must (a) serve byte-identical PRIMARY-consistency results immediately,
and (b) converge every replica to the acknowledged (list-backed
reference) state through the *existing* catch-up machinery: resumed
followers drain their persisted backlog; one anti-entropy sweep bounds
the wait.  No acknowledged op may be lost across the restart.
"""

from __future__ import annotations

import base64
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import SystemConfig, ZerberRSystem
from repro.core.client import ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.protocol import FetchRequest, Receipt
from repro.core.replication import ReadConsistency
from repro.corpus.synthetic import tiny_corpus
from repro.crypto.cipher import IV_SIZE
from repro.crypto.keys import GroupKeyService
from repro.errors import ConfigurationError, UnavailableError
from repro.index.postings import SEALED_SIZE, EncryptedPostingElement
from repro.persist import FORMAT_VERSION, element_from_dict, load_cluster, save_cluster
from repro.persist.clusterstate import cluster_from_dict, cluster_to_dict
from repro.text.analysis import DocumentStats
from tests.conftest import sealed, slices_batch

NUM_LISTS = 3
NUM_SERVERS = 4
REPLICATION = 2

OPCODES = (
    "insert",
    "insert",
    "insert",
    "delete",
    "tick",
    "fail",
    "restore",
    "pause",
    "resume",
    "fetch",
)


def _keys():
    svc = GroupKeyService(master_secret=b"f" * 32)
    svc.register("u", {"g"})
    return svc


def _cluster(lag=2, replication=REPLICATION, **kwargs):
    return ServerCluster(
        _keys(),
        num_lists=NUM_LISTS,
        num_servers=NUM_SERVERS,
        replication=replication,
        lag=lag,
        **kwargs,
    )


class _Reference:
    """List-backed reference: the acknowledged state of every list."""

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
        return [
            e.ciphertext
            for e in sorted(self.lists[list_id], key=lambda e: -e.trs)
        ]


def _run_ops(cluster, ops, ref=None, counter_start=0):
    """Drive the cluster; mirror acknowledged writes into the reference."""
    ref = ref if ref is not None else _Reference()
    receipts: list[Receipt] = []
    counter = counter_start
    for opcode, r in ops:
        if opcode == "insert":
            list_id = r % NUM_LISTS
            counter += 1
            element = EncryptedPostingElement(
                ciphertext=sealed(b"el-%05d" % counter),
                group="g",
                trs=(counter % 997) / 1000.0,
            )
            try:
                cluster.insert("u", list_id, element)
            except UnavailableError:
                continue
            ref.insert(list_id, element)
            receipts.append(Receipt(list_id, element.ciphertext, element.trs))
        elif opcode == "delete":
            if not receipts:
                continue
            receipt = receipts[r % len(receipts)]
            try:
                if cluster.delete_element("u", receipt):
                    ref.delete(receipt.list_id, receipt.ciphertext)
            except UnavailableError:
                continue
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
        elif opcode == "kill_primary":
            cluster.fail_server(cluster.replicas_of(r % NUM_LISTS)[0])
        elif opcode == "fetch":
            # A ONE read, with the cluster's own level put back after it:
            # the level is part of what a snapshot saves.
            built_read = cluster.read_consistency
            cluster.read_consistency = ReadConsistency.ONE
            try:
                cluster.fetch(
                    FetchRequest(principal="u", list_id=r % NUM_LISTS, offset=0, count=5)
                )
            except UnavailableError:
                continue
            finally:
                cluster.read_consistency = built_read
    return ref, counter


def _reload(cluster, tmp_path, name="cluster.json"):
    """Snapshot the cluster and recover it into a fresh key service."""
    path = tmp_path / name
    from repro.index.merge import MergePlan
    from repro.core.rstf import RstfModel

    plan = MergePlan(groups=tuple((f"t{i}",) for i in range(NUM_LISTS)), r=2.0)
    save_cluster(path, cluster, plan, RstfModel({}))
    restored, plan2, _ = load_cluster(path, _keys())
    assert plan2 == plan
    return restored, path


def _refused(path, section, damage):
    """Load the dump at *path* after *damage*(its *section*); returns the
    error text, which names the file."""
    payload = json.loads(path.read_text())
    damage(payload[section])
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError) as excinfo:
        load_cluster(path, _keys())
    assert str(path) in str(excinfo.value)
    return str(excinfo.value)


def _assert_converged(cluster, ref):
    """Heal everything, one anti-entropy sweep, compare every replica."""
    for server_index in range(NUM_SERVERS):
        cluster.restore_server(server_index)
        cluster.resume_follower(server_index)
    cluster.replication_manager.anti_entropy_sweep()
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


def _first_log(state):
    return next(iter(state["logs"].values()))


def _lagged_snapshot_cluster():
    """A deterministic mid-replication cluster: backlog + paused follower."""
    cluster = _cluster(lag=3, anti_entropy_every=50)
    ref = _Reference()
    paused = cluster.replicas_of(0)[1]
    cluster.pause_follower(paused)
    counter = 0
    for round_ in range(4):
        for list_id in range(NUM_LISTS):
            counter += 1
            element = EncryptedPostingElement(
                ciphertext=sealed(b"seed-%03d" % counter),
                group="g",
                trs=counter / 100.0,
            )
            cluster.insert("u", list_id, element)
            ref.insert(list_id, element)
        cluster.replication_tick()
    return cluster, ref, paused


class TestLaggedSnapshotRecovery:
    def test_backlog_and_versions_survive_restart(self, tmp_path):
        cluster, ref, paused = _lagged_snapshot_cluster()
        before = cluster.replication_backlog()
        assert before, "scenario must snapshot mid-replication"
        versions_before = {
            lid: cluster.primary_version(lid) for lid in range(NUM_LISTS)
        }
        restored, _ = _reload(cluster, tmp_path)
        assert restored.replication_backlog() == before
        assert {
            lid: restored.primary_version(lid) for lid in range(NUM_LISTS)
        } == versions_before
        assert restored.is_paused(paused)
        assert restored.placement_table() == cluster.placement_table()
        assert restored.placement_epoch == cluster.placement_epoch
        for list_id in range(NUM_LISTS):
            for server_index in restored.replicas_of(list_id):
                assert restored.applied_version(
                    list_id, server_index
                ) == cluster.applied_version(list_id, server_index)

    def test_primary_reads_identical_after_restart(self, tmp_path):
        cluster, ref, _ = _lagged_snapshot_cluster()
        restored, _ = _reload(cluster, tmp_path)
        assert cluster.read_consistency is ReadConsistency.PRIMARY
        assert restored.read_consistency is ReadConsistency.PRIMARY
        for list_id in range(NUM_LISTS):
            request = FetchRequest(
                principal="u", list_id=list_id, offset=0, count=10
            )
            original = cluster.fetch(request)
            recovered = restored.fetch(request)
            assert [e.ciphertext for e in recovered.elements] == [
                e.ciphertext for e in original.elements
            ]
            assert recovered.replica_version == original.replica_version
            assert [
                e.ciphertext for e in recovered.elements
            ] == ref.expected_order(list_id)[:10]

    def test_one_anti_entropy_sweep_converges_after_restart(self, tmp_path):
        cluster, ref, _ = _lagged_snapshot_cluster()
        restored, _ = _reload(cluster, tmp_path)
        _assert_converged(restored, ref)

    def test_paused_follower_backlog_drains_through_normal_ticks(self, tmp_path):
        """The persisted backlog converges through lag-driven delivery
        alone — recovery schedules it, ticks drain it."""
        cluster, ref, paused = _lagged_snapshot_cluster()
        restored, _ = _reload(cluster, tmp_path)
        restored.resume_follower(paused)
        ticks = restored.run_replication_until_quiet()
        assert restored.replication_backlog() == {}
        assert ticks > 0
        for list_id in range(NUM_LISTS):
            for server_index in restored.replicas_of(list_id):
                got = [
                    e.ciphertext
                    for e in restored.server(server_index).export_list(list_id)
                ]
                assert got == ref.expected_order(list_id)

    def test_writes_continue_past_restored_versions(self, tmp_path):
        cluster, ref, paused = _lagged_snapshot_cluster()
        restored, _ = _reload(cluster, tmp_path)
        head_before = restored.primary_version(0)
        element = EncryptedPostingElement(
            ciphertext=sealed(b"post-restart"), group="g", trs=0.999
        )
        restored.insert("u", 0, element)
        ref.insert(0, element)
        assert restored.primary_version(0) == head_before + 1
        _assert_converged(restored, ref)

    def test_down_server_stays_down_after_restart(self, tmp_path):
        cluster, ref, _ = _lagged_snapshot_cluster()
        victim = cluster.replicas_of(1)[1]
        cluster.fail_server(victim)
        restored, _ = _reload(cluster, tmp_path)
        assert not restored.is_alive(victim)
        restored.restore_server(victim)
        _assert_converged(restored, ref)


def _tied_quorum_cluster():
    """Replication 3, lag 2, QUORUM writes, three TRS values, snapshotted
    with followers behind and delete ops retained."""
    cluster, receipts = _cluster(replication=3, write_consistency="quorum"), []
    for counter in range(30):
        element = EncryptedPostingElement(sealed(b"tie-%02d" % counter), "g", counter % 3 / 4)
        cluster.insert("u", counter % NUM_LISTS, element)
        receipts.append(Receipt(counter % NUM_LISTS, element.ciphertext, element.trs))
        if counter % 4 == 3:
            cluster.replication_tick()
    cluster.delete_many("u", receipts[3:12:4])
    assert cluster.replication_backlog()
    return cluster


class TestADumpIsTheLog:
    """A dump holds each list once, as the run at its log base; restore
    replays the run and each replica's own prefix of the retained ops."""

    def test_every_replica_is_restored_as_it_was(self, tmp_path):
        cluster = _tied_quorum_cluster()
        restored, _ = _reload(cluster, tmp_path)
        for list_id in range(NUM_LISTS):
            copies = []
            for s in cluster.replicas_of(list_id):
                assert restored.applied_version(list_id, s) == cluster.applied_version(list_id, s)
                copies.append(restored.server(s).export_list(list_id))
                assert copies[-1] == cluster.server(s).export_list(list_id)  # ties in order
            # One object per element, whichever replicas hold it.
            held = [e for copy in copies for e in copy]
            assert len({id(e) for e in held}) == len({e.ciphertext for e in held})

    def test_a_list_is_written_once(self, tmp_path):
        cluster = _tied_quorum_cluster()
        _, path = _reload(cluster, tmp_path)
        text = path.read_text()
        logs = json.loads(text)["cluster"]["replication_state"]["logs"]
        assert text.count('"c": ') == sum(len(log["run"]) + len(log["ops"]) for log in logs.values())
        repl = cluster.replication_manager
        for list_id, log in logs.items():  # the run is a replica at the base
            applied = repl.applied_snapshot(int(list_id))
            holder = min(applied, key=applied.__getitem__)
            run = cluster.server(holder).export_list(int(list_id))
            assert [element_from_dict(entry) for entry in log["run"]] == run

    def test_a_delete_the_run_cannot_hold_is_refused(self, tmp_path):
        def forge(state):
            ops = [op for log in state["logs"].values() for op in log["ops"]]
            element = next(op for op in ops if op["k"] == "delete")["e"]
            element["c"] = base64.b64encode(sealed(b"never-inserted")).decode()

        _, path = _reload(_tied_quorum_cluster(), tmp_path)
        assert "disagree" in _refused(path, "cluster", lambda c: forge(c["replication_state"]))


class TestFuzzedCrashRecovery:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(OPCODES), st.integers(0, 10**6)),
            max_size=80,
        ),
        lag=st.integers(0, 4),
        split=st.integers(0, 80),
    )
    @settings(max_examples=40, deadline=None)
    def test_snapshot_mid_soup_loses_no_acknowledged_op(self, ops, lag, split):
        """Crash at an arbitrary point of a fault soup: snapshot, reload,
        run the *rest* of the soup against the recovered cluster, heal,
        sweep once, and require exact convergence to the reference."""
        cluster = _cluster(lag=lag)
        ref, counter = _run_ops(cluster, ops[:split])
        with tempfile.TemporaryDirectory() as tmp:
            restored, _ = _reload(cluster, Path(tmp))
        ref, _ = _run_ops(restored, ops[split:], ref=ref, counter_start=counter)
        _assert_converged(restored, ref)

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(OPCODES), st.integers(0, 10**6)),
            max_size=60,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_double_restart_is_stable(self, ops):
        """Snapshot → reload → snapshot → reload reproduces the same
        durable state (recovery is idempotent)."""
        cluster = _cluster(lag=3)
        ref, _ = _run_ops(cluster, ops)
        with tempfile.TemporaryDirectory() as tmp:
            once, path_a = _reload(cluster, Path(tmp), "a.json")
            twice, path_b = _reload(once, Path(tmp), "b.json")
            assert json.loads(path_a.read_text()) == json.loads(
                path_b.read_text()
            )
        assert twice.replication_backlog() == once.replication_backlog()
        _assert_converged(twice, ref)


class TestFailoverStatePersistence:
    """Promotion state (format-v2 extension) survives crash/restore."""

    def _elected(self):
        """A cluster snapshotted mid-failover: election done, victim down."""
        cluster = _cluster(lag=2, failover_after=2, write_consistency="quorum")
        ref = _Reference()
        counter = 0
        for list_id in range(NUM_LISTS):
            counter += 1
            element = EncryptedPostingElement(
                ciphertext=sealed(b"fo-%03d" % counter), group="g", trs=counter / 100.0
            )
            cluster.insert("u", list_id, element)
            ref.insert(list_id, element)
        cluster.run_replication_until_quiet()
        victim = cluster.replicas_of(0)[0]
        cluster.fail_server(victim)
        for _ in range(3):
            cluster.replication_tick()
        assert cluster.failover_history(), "scenario needs an election"
        return cluster, ref, victim

    def test_recovery_lands_on_elected_primary(self, tmp_path):
        cluster, ref, victim = self._elected()
        elected = cluster.replicas_of(0)[0]
        assert elected != victim
        restored, _ = _reload(cluster, tmp_path)
        assert restored.replicas_of(0)[0] == elected
        assert restored.failover_history() == cluster.failover_history()
        assert restored.unreachable_since() == cluster.unreachable_since()
        assert restored.write_consistency == cluster.write_consistency
        assert restored.failover_after == cluster.failover_after
        assert restored.placement_epoch == cluster.placement_epoch
        # The recovered cluster acknowledges writes at the elected
        # primary (the healed old primary counts toward W again).
        restored.restore_server(victim)
        element = EncryptedPostingElement(
            ciphertext=sealed(b"post-failover"), group="g", trs=0.999
        )
        restored.insert("u", 0, element)  # at the restored QUORUM
        ref.insert(0, element)
        assert restored.replicas_of(0)[0] == elected  # no flap-back
        _assert_converged(restored, ref)

    def test_pending_timer_survives_restart(self, tmp_path):
        """A restart taken mid-outage, before the election fired, must
        not reset the unreachability clock: the recovered cluster elects
        on schedule."""
        cluster = _cluster(lag=1, failover_after=3)
        victim = cluster.replicas_of(0)[0]
        cluster.fail_server(victim)
        cluster.replication_tick()  # timer starts, threshold not reached
        assert victim in cluster.unreachable_since()
        assert cluster.failover_history() == []
        restored, _ = _reload(cluster, tmp_path)
        assert restored.unreachable_since() == cluster.unreachable_since()
        restored.replication_tick()
        restored.replication_tick()
        restored.replication_tick()
        assert restored.failover_history(), "restored timer did not fire"
        assert restored.replicas_of(0)[0] != victim

    def test_plain_v2_dump_without_failover_keys_loads(self, tmp_path):
        """Dumps written before the consistency-matrix extension carry no
        write_consistency/failover keys; they must load with defaults."""
        cluster, _, _ = _lagged_snapshot_cluster()
        restored, path = _reload(cluster, tmp_path)
        payload = json.loads(path.read_text())
        payload["cluster"].pop("write_consistency", None)
        payload["cluster"].pop("failover", None)
        path.write_text(json.dumps(payload))
        old_style, _, _ = load_cluster(path, _keys())
        from repro.core.replication import WriteConsistency

        assert old_style.write_consistency is WriteConsistency.ONE
        assert old_style.failover_after is None
        assert old_style.failover_history() == []
        assert old_style.unreachable_since() == {}

    def test_unknown_timer_server_rejected(self, tmp_path):
        cluster, _, _ = self._elected()
        restored, path = _reload(cluster, tmp_path)
        payload = json.loads(path.read_text())
        payload["cluster"]["failover"]["unreachable_since"] = {"42": 1}
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="42"):
            load_cluster(path, _keys())

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(OPCODES + ("kill_primary", "tick", "tick")),
                st.integers(0, 10**6),
            ),
            max_size=80,
        ),
        split=st.integers(0, 80),
    )
    @settings(max_examples=40, deadline=None)
    def test_crash_point_fuzz_preserves_promotions(self, ops, split):
        """Crash at an arbitrary point of a failover-heavy soup: the
        recovered cluster keeps its elected primaries and audit trail,
        finishes the soup, and converges with no acknowledged op lost."""
        cluster = _cluster(lag=2, failover_after=2)
        ref, counter = _run_ops(cluster, ops[:split])
        placement_before = cluster.placement_table()
        history_before = cluster.failover_history()
        with tempfile.TemporaryDirectory() as tmp:
            restored, _ = _reload(cluster, Path(tmp))
        assert restored.placement_table() == placement_before
        assert restored.failover_history() == history_before
        ref, _ = _run_ops(restored, ops[split:], ref=ref, counter_start=counter)
        _assert_converged(restored, ref)


class TestRestoredServersStartCold:
    """A dump holds lists and logs, not what was derived from them: no
    readable views and no access counters.  Every view is rebuilt from its
    restored list on first read, and every server counts its load from
    zero."""

    @staticmethod
    def _warmed():
        cluster, ref, _ = _lagged_snapshot_cluster()
        # Converge first so the served views are fresh at snapshot time.
        for s in range(NUM_SERVERS):
            cluster.resume_follower(s)
        cluster.run_replication_until_quiet()
        for list_id in range(NUM_LISTS):
            cluster.fetch(
                FetchRequest(principal="u", list_id=list_id, offset=0, count=5)
            )
        return cluster, ref

    def test_views_are_built_on_first_read(self):
        cluster, ref = self._warmed()
        assert cluster.view_stats().full_builds == NUM_LISTS
        data = cluster_to_dict(cluster)
        assert "servers" not in data  # a list is its log: no views, no counters
        for log in data["replication_state"]["logs"].values():
            assert set(log) == {"head", "base", "run", "ops"}
        restored = cluster_from_dict(data, _keys())
        assert all(len(restored.server(s)._views) == 0 for s in range(NUM_SERVERS))
        for list_id in range(NUM_LISTS):
            response = restored.fetch(
                FetchRequest(principal="u", list_id=list_id, offset=0, count=5)
            )
            assert [e.ciphertext for e in response.elements] == (
                ref.expected_order(list_id)[:5]
            )
        stats = restored.view_stats()
        assert (stats.full_builds, stats.hits) == (NUM_LISTS, 0)

    def test_a_restored_cluster_serves_under_the_live_key_service(self, tmp_path):
        """A membership change between snapshot and restore wins: nothing
        in the dump can serve under the access rights of snapshot time."""
        cluster, _ = self._warmed()
        path = tmp_path / "revoked.json"
        from repro.index.merge import MergePlan
        from repro.core.rstf import RstfModel

        plan = MergePlan(groups=tuple((f"t{i}",) for i in range(NUM_LISTS)), r=2.0)
        save_cluster(path, cluster, plan, RstfModel({}))
        service = GroupKeyService(master_secret=b"f" * 32)
        service.register("u", set())  # same principal, no memberships
        restored, _, _ = load_cluster(path, service)
        response = restored.fetch(
            FetchRequest(principal="u", list_id=0, offset=0, count=5)
        )
        assert response.elements == ()

    def test_load_counters_restart_at_zero_and_count_on(self, tmp_path):
        cluster = _cluster(lag=0)
        for counter in range(6):
            element = EncryptedPostingElement(
                ciphertext=sealed(b"load-%02d" % counter), group="g", trs=counter / 10.0
            )
            cluster.insert("u", counter % NUM_LISTS, element)
        for list_id in range(NUM_LISTS):
            cluster.fetch(FetchRequest("u", list_id, 0, 2))
        assert sum(cluster.per_server_load()) == NUM_LISTS  # one slice each
        restored, _ = _reload(cluster, tmp_path)
        assert restored.per_server_load() == [0] * NUM_SERVERS
        assert restored.total_calls == 0
        batch = slices_batch("u", [(0, 0, 1), (1, 0, 1)])
        restored.batch_fetch(batch)
        assert sum(restored.per_server_load()) == 2
        assert restored.total_calls == len(
            {restored.route(0), restored.route(1)}
        )


class TestRestoredDeploymentWrites:
    """The documented workflow (``examples/persistent_index.py``) plus one
    write: a deployment dumped, reloaded under a key service rebuilt from
    the same secret, and written to by a group owner."""

    SECRET = b"restored-deployment-secret-01234"

    def test_a_restored_owner_seals_no_iv_already_stored(self, tmp_path):
        corpus = tiny_corpus()
        system = ZerberRSystem.build(
            corpus, SystemConfig(r=4.0, seed=5), key_service=GroupKeyService(self.SECRET)
        )
        cluster, _ = system.deploy_cluster(num_servers=2)
        path = tmp_path / "cluster.json"
        save_cluster(path, cluster, system.merge_plan, system.rstf_model)

        keys = GroupKeyService(self.SECRET)
        restored, plan, model = load_cluster(path, keys)
        source = corpus.doc_ids()[0]
        group = corpus.document(source).group
        owner = f"owner:{group}"
        keys.register(owner, {group})
        doc = DocumentStats.from_counts("restored-new", corpus.stats(source).counts)
        client = ZerberRClient(owner, keys, restored, model, plan)
        stored = {
            element.ciphertext[:IV_SIZE]
            for server in range(restored.num_servers)
            for list_id in range(restored.num_lists)
            for element in restored.server(server).export_list(list_id)
        }
        written = {r.ciphertext for r in client.index_document_with_receipts(doc, group)}

        assert len(written) == len(doc.counts) > 0
        # The new document copies the source's counts, so only its number
        # tells its plaintexts apart: had the restore not carried the
        # directory over, it would take the source's number again and
        # seal to the source's stored bytes.
        assert stored.isdisjoint(c[:IV_SIZE] for c in written)


class TestOlderDumps:
    """The committed dumps of older builds (``fixtures/make_cluster_dump.py``)
    are refused by name, with the re-index hint, instead of restored.

    ``cluster_v5.json`` holds 16-byte nonces and a SHAKE-256 keystream
    sealed under a MAC subkey v6 no longer derives: every element would
    fail its tag.  ``cluster_v6.json`` holds elements whose plaintext
    spells its doc id out after a 10-byte header: every element would
    fail the 14-byte header, and its dump carries no directory.
    ``cluster_v7.json`` holds ``nonce || body || tag`` seals: every
    element, and every sealed directory, would fail the v8 IV check.
    ``cluster_v8.json`` holds delete ops that name their element by a
    bare ciphertext and TRS, and per-list mutation counters.
    ``cluster_v9.json`` holds per-server ``servers`` sections, one copy
    of each list per replica, and logs without a ``run``."""

    FIXTURES = Path(__file__).resolve().parent / "fixtures"
    DUMPS = sorted(FIXTURES.glob("cluster_v*.json"))

    @staticmethod
    def _version(path):
        return int(path.stem.removeprefix("cluster_v"))

    def test_a_format_bump_commits_the_dump_it_leaves_behind(self):
        found = sorted(self._version(path) for path in self.DUMPS)
        assert found == list(range(5, FORMAT_VERSION))

    @pytest.mark.parametrize(
        "path", DUMPS, ids=lambda path: path.stem.removeprefix("cluster_v")
    )
    def test_it_is_refused_by_name_and_version(self, path):
        version = self._version(path)
        assert json.loads(path.read_text())["format_version"] == version
        keys = GroupKeyService(b"cluster-v5-fixture-secret-012345")
        with pytest.raises(ConfigurationError) as excinfo:
            load_cluster(path, keys)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"version {version}" in message and f"reads {FORMAT_VERSION}" in message
        assert "re-index" in message
        assert keys.groups() == set()  # nothing was installed


class TestCorruptClusterDumps:
    def _dump(self, tmp_path):
        cluster, _, _ = _lagged_snapshot_cluster()
        restored, path = _reload(cluster, tmp_path)
        return path

    # A log of the wrong shape: applied versions missing, an op without
    # its element, a gap in the retained run, a non-integer paused server.
    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda state: state["applied"].popitem(), "applied"),
            (lambda state: _first_log(state)["ops"][0].pop("e"), "element payload"),
            (lambda state: _first_log(state)["ops"].pop(0), "contiguous"),
            (lambda state: state.update(paused=["two"]), "corrupt cluster dump"),
        ],
        ids=["no-applied-versions", "op-without-element", "gapped-ops", "paused-string"],
    )
    def test_a_damaged_log_names_the_file(self, tmp_path, damage, named):
        path = self._dump(tmp_path)
        assert _first_log(json.loads(path.read_text())["cluster"]["replication_state"])["ops"]
        message = _refused(path, "cluster", lambda c: damage(c["replication_state"]))
        assert named in message

    @pytest.mark.parametrize("where", ["run", "log-op"])
    def test_a_29_byte_element_names_the_file(self, tmp_path, where):
        """Every element is one sealed posting: one byte short is a
        corrupt dump, named, wherever the element sits."""

        def shorten(cluster):
            logs = cluster["replication_state"]["logs"].values()
            if where == "run":
                entry = next(log["run"][0] for log in logs if log["run"])
            else:
                entry = next(log["ops"][0]["e"] for log in logs if log["ops"])
            entry["c"] = base64.b64encode(base64.b64decode(entry["c"])[:-1]).decode()

        assert f"{SEALED_SIZE} bytes" in _refused(self._dump(tmp_path), "cluster", shorten)

    @pytest.mark.parametrize("version", [4, 5, FORMAT_VERSION])
    def test_a_v4_shaped_dump_is_refused(self, tmp_path, version):
        """A v4 dump wraps its lag in ``{"fixed_ticks": n}`` beside a
        ``per_server`` table, and older ones carry per-server ``views`` and
        ``heat`` blocks.  Marked v4 or v5, it is refused for its version
        (its tags are ones no client here accepts); relabelled with the
        current version, for its lag — never restored under some other
        reading of it."""
        path = self._dump(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["cluster"]["lag"] == 3  # written as the int it is
        assert load_cluster(path, _keys())[0].replication_manager.lag == 3
        payload["format_version"] = version
        payload["cluster"]["lag"] = {"fixed_ticks": 3, "per_server": {"1": 5}}
        views = [{"list": 0, "principal": "u", "positions": [0]}]
        heat = {"fetch_counts": {"0": 7, "2": 1}, "calls": 3}
        payload["cluster"]["servers"] = [{"views": views, "heat": heat}]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError) as excinfo:
            load_cluster(path, _keys())
        message = str(excinfo.value)
        assert str(path) in message
        if version != FORMAT_VERSION:
            assert f"version {version}" in message
            assert f"reads {FORMAT_VERSION}" in message
        else:
            assert "lag must be an integer" in message

    # Each of these escaped as a bare AttributeError (``'list' object has
    # no attribute 'get'``, or ``'int' object ...``) before every section
    # was type-checked.
    @pytest.mark.parametrize(
        "damage",
        [
            lambda c: c.update(lag={"fixed_ticks": 3}),
            lambda c: c.update(lag="3"),
            lambda c: c.update(lag=True),
            lambda c: c.update(failover=[]),
            lambda c: c["failover"].update(unreachable_since=[]),
            lambda c: c["failover"].update(history={}),
            lambda c: c.update(replication_state=[]),
            lambda c: c["replication_state"].update(logs=[]),
            lambda c: c["replication_state"].update(applied=[]),
            lambda c: c["replication_state"].update(paused={}),
            lambda c: c["replication_state"]["applied"].update(
                dict.fromkeys(c["replication_state"]["applied"], [])
            ),
            lambda c: c["replication_state"]["logs"]["0"]["ops"].append([]),
            lambda c: c.update(down="1"),
            lambda c: c.update(down=["1"]),
        ],
        ids=[
            "lag-v4-object",
            "lag-string",
            "lag-bool",
            "failover-array",
            "timers-array",
            "history-object",
            "replication-state-array",
            "logs-array",
            "applied-array",
            "paused-object",
            "applied-versions-array",
            "op-array",
            "down-string",
            "down-string-index",
        ],
    )
    def test_a_section_of_the_wrong_type_names_the_file(self, tmp_path, damage):
        assert "corrupt cluster dump" in _refused(self._dump(tmp_path), "cluster", damage)

    # Each of these is well-typed JSON that ServerCluster itself refuses;
    # its ConfigurationError used to escape without the file's name.
    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda c: c.update(read_consistency="bogus"), "bogus"),
            (lambda c: c.update(write_consistency=7), "7"),
            (lambda c: c.update(anti_entropy_every=0), "anti"),
            (lambda c: c.update(lag=-1), "lag"),
            (lambda c: c.update(replication=0), "replication"),
            (lambda c: c.update(num_servers=0), "server"),
            (lambda c: c["failover"].update(after=0), "failover_after"),
        ],
        ids=[
            "read-consistency",
            "write-consistency",
            "anti-entropy-every",
            "lag",
            "replication",
            "num-servers",
            "failover-after",
        ],
    )
    def test_a_setting_the_cluster_refuses_names_the_file(
        self, tmp_path, damage, named
    ):
        path = self._dump(tmp_path)
        message = _refused(path, "cluster", damage)
        assert message.startswith(f"{path}: corrupt cluster dump: ") and named in message

    @staticmethod
    def _setup_dump(tmp_path, shape="replicated"):
        """A dump saved under a three-list plan, of a replicated cluster or
        of the one-server cluster a system builds."""
        from repro.core.rstf import RstfModel
        from repro.index.merge import MergePlan

        plan = MergePlan(groups=tuple((f"t{i}",) for i in range(NUM_LISTS)), r=2.0)
        path = tmp_path / "setup.json"
        cluster = (
            _cluster()
            if shape == "replicated"
            else ServerCluster(_keys(), num_lists=NUM_LISTS, num_servers=1)
        )
        save_cluster(path, cluster, plan, RstfModel({}))
        return path

    @pytest.mark.parametrize("shape", ["replicated", "one-server"])
    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda plan: plan["groups"].append(["t0"]), "term in two groups"),
            (lambda plan: plan["groups"].append([]), "empty merge group"),
        ],
        ids=["term-in-two-groups", "empty-group"],
    )
    def test_a_corrupt_merge_plan_names_the_file(
        self, tmp_path, shape, damage, named
    ):
        """The plan numbers every term a ciphertext names: a bad one is
        as corrupt as a bad element, and is reported like one."""
        path = self._setup_dump(tmp_path, shape)
        assert named in _refused(path, "merge_plan", damage)

    @pytest.mark.parametrize("shape", ["replicated", "one-server"])
    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"mus": [0.1, 0.2], "sigma": 0, "kind": "erf"}, "sigma must be positive"),
            ({"mus": [0.1, 0.2], "sigma": 1.0, "kind": "cauchy"}, "kind must be one of"),
        ],
        ids=["zero-sigma", "unknown-kind"],
    )
    def test_a_corrupt_rstf_model_names_the_file(
        self, tmp_path, shape, entry, named
    ):
        """Not a bare ``TrainingError``: the model's own refusal, with the file."""
        path = self._setup_dump(tmp_path, shape)
        message = _refused(
            path, "rstf_model", lambda model: model.update(t0=entry)
        )
        assert named in message

    def test_a_server_kind_dump_is_refused_with_a_re_index_hint(self, tmp_path):
        """A bare server's dump, from an older build, is no cluster dump."""
        path = self._setup_dump(tmp_path)
        payload = json.loads(path.read_text())
        del payload["cluster"]
        payload.update(kind="server", server={"num_lists": NUM_LISTS, "lists": {}})
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="re-index") as excinfo:
            load_cluster(path, _keys())
        assert str(path) in str(excinfo.value) and "'server'" in str(excinfo.value)
