"""A document delete is one write: ``delete_many`` refines the per-receipt loop.

The batch must equal the sequence of single deletes wherever the sequence
succeeds, and be all-or-nothing where the sequence would have stopped
half way.
"""

import math
import random

import pytest

from repro.core.client import ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.protocol import FetchRequest, Receipt
from repro.core.replication import ReadConsistency
from repro.core.rstf import RstfModel, train_rstf
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    AccessDeniedError,
    ProtocolError,
    QuorumWriteUnavailableError,
    UnknownListError,
)
from repro.index.merge import MergePlan
from repro.index.postings import EncryptedPostingElement
from repro.text.analysis import DocumentStats
from tests.conftest import sealed

LISTS = 3
SERVERS = 3


@pytest.fixture()
def keys():
    svc = GroupKeyService(master_secret=b"w" * 32)
    svc.register("u", {"g"})
    svc.register("intruder", {"h"})
    svc.register("root", {"g", "h"})
    return svc


def _element(trs, payload, group="g"):
    return EncryptedPostingElement(ciphertext=payload, group=group, trs=trs)


def _state(cluster):
    """Everything a write may touch, replica by replica."""
    repl = cluster.replication_manager
    return {
        "lists": [
            [cluster.server(s).export_list(lid) for lid in range(cluster.num_lists)]
            for s in range(cluster.num_servers)
        ],
        "list_versions": [
            [cluster.server(s)._lists[lid].version for lid in range(cluster.num_lists)]
            for s in range(cluster.num_servers)
        ],
        "applied": {
            (lid, s): cluster.applied_version(lid, s)
            for lid in range(cluster.num_lists)
            for s in cluster.replicas_of(lid)
        },
        "heads": [cluster.primary_version(lid) for lid in range(cluster.num_lists)],
        "ops_logged": repl.stats.ops_logged,
        "log_lengths": repl.log_lengths(),
        "backlog": cluster.replication_backlog(),
        "outstanding": repl.outstanding_deliveries(),
    }


class TestAllOrNothing:
    """A refused batch deletes nothing (the per-receipt loop stopped half
    way, with the receipts before the refusal gone and logged)."""

    def _loaded(self, keys):
        cluster = ServerCluster(
            keys, num_lists=LISTS, num_servers=SERVERS, replication=3, lag=2
        )
        receipts = []
        for i in range(12):
            group = "h" if i % 4 == 3 else "g"
            element = _element((i % 5) / 5, sealed(b"c%02d" % i), group)
            cluster.insert("root", i % LISTS, element)
            receipts.append(Receipt(i % LISTS, element.ciphertext, element.trs))
        cluster.replication_tick()
        return cluster, receipts

    def test_one_foreign_element_refuses_the_whole_batch(self, keys):
        cluster, receipts = self._loaded(keys)
        own = [r for i, r in enumerate(receipts) if i % 4 == 3]
        foreign = receipts[0]
        before = _state(cluster)
        with pytest.raises(AccessDeniedError):
            cluster.delete_many("intruder", [*own, foreign])
        assert _state(cluster) == before
        # Without the foreign element the same receipts go through.
        assert cluster.delete_many("intruder", own) == [True] * len(own)

    def test_unknown_list_id_refuses_the_whole_batch(self, keys):
        cluster, receipts = self._loaded(keys)
        before = _state(cluster)
        with pytest.raises(UnknownListError):
            cluster.delete_many(
                "root", [*receipts[:5], Receipt(LISTS, sealed(b"nowhere"), 0.5)]
            )
        assert _state(cluster) == before

    @pytest.mark.parametrize(
        "bad",
        [
            (0, sealed(b"c00")),
            Receipt(0, sealed(b"c00"), None),
            Receipt(0, sealed(b"c00"), 0),
            Receipt(0, sealed(b"c00"), 1.5),
        ],
        ids=["bare-pair", "none-trs", "int-trs", "trs-above-one"],
    )
    def test_a_receipt_without_its_float_trs_refuses_the_whole_batch(
        self, keys, bad
    ):
        """Every receipt is checked before anything is touched: one that
        is not a ``Receipt`` with a float TRS in [0, 1] refuses the batch,
        the valid receipts before it included."""
        cluster, receipts = self._loaded(keys)
        before = _state(cluster)
        with pytest.raises(ProtocolError, match="float TRS"):
            cluster.delete_many("root", [*receipts[:5], bad])
        assert _state(cluster) == before

    def test_refused_document_delete_leaves_the_session_floor_alone(self, keys):
        """Through the client: nothing deleted, so no floor to raise —
        and once allowed, the floor covers every delete made."""
        plan = MergePlan(groups=(("apple", "pear"), ("plum",), ("fig",)), r=2.0)
        model = RstfModel(
            {t: train_rstf([0.1, 0.3, 0.6], sigma=20.0) for t in plan.groups[0]}
        )
        cluster = ServerCluster(
            keys, num_lists=LISTS, num_servers=SERVERS, replication=3, lag=2
        )

        def client(principal):
            return ZerberRClient(principal, keys, cluster, model, plan)

        doc = DocumentStats.from_counts("d", {"apple": 2, "plum": 1, "fig": 1})
        receipts = client("u").index_document_with_receipts(doc, "g")
        theirs = client("intruder").index_document_with_receipts(
            DocumentStats.from_counts("e", {"apple": 1, "pear": 1}), "h"
        )
        intruder = client("intruder")
        before = _state(cluster)
        with pytest.raises(AccessDeniedError):
            intruder.delete_document([*theirs, receipts[-1]])
        assert _state(cluster) == before
        assert intruder.version_floor(0) == 0
        assert intruder.delete_document(theirs) == 2
        assert intruder.version_floor(0) == cluster.primary_version(0)

    @pytest.mark.parametrize(
        "doc",
        [
            # tf past the 2-byte header field
            DocumentStats.from_counts("e", {"apple": 1, "plum": 65_536}),
            # doc_length past the 4-byte one
            DocumentStats("e", {"apple": 1, "plum": 1}, 2**32),
        ],
        ids=["large-tf", "large-doc-length"],
    )
    def test_a_document_the_layout_cannot_hold_sends_nothing(
        self, keys, doc, counted_encrypts
    ):
        """One element that does not fit the plaintext header refuses the
        whole document before anything is sent: no insert, no floor,
        nothing encrypted."""
        plan = MergePlan(groups=(("apple", "pear"), ("plum",), ("fig",)), r=2.0)
        cluster = ServerCluster(
            keys, num_lists=LISTS, num_servers=SERVERS, replication=3, lag=2
        )
        writer = ZerberRClient("u", keys, cluster, RstfModel({}), plan)
        writer.index_document_with_receipts(DocumentStats.from_counts("d", {"fig": 1}), "g")
        before = _state(cluster)
        encrypted = len(counted_encrypts)
        with pytest.raises(ValueError):
            writer.index_document_with_receipts(doc, "g")
        assert _state(cluster) == before
        assert len(counted_encrypts) == encrypted
        assert writer.version_floor(0) == writer.version_floor(1) == 0

    def test_misses_and_duplicates_remove_each_element_once(self, keys):
        cluster, receipts = self._loaded(keys)
        first, second = receipts[0], receipts[1]
        batch = [
            first,
            Receipt(0, sealed(b"never-inserted"), 0.5),
            second._replace(trs=0.9),  # another TRS: a miss
            second,
            first,  # named twice: the second naming is a miss
        ]
        logged = cluster.replication_stats.ops_logged
        assert cluster.delete_many("root", batch) == [True, False, False, True, False]
        assert cluster.replication_stats.ops_logged == logged + 2
        assert cluster.delete_many("root", batch) == [False] * 5
        assert cluster.replication_stats.ops_logged == logged + 2
        held = {e.ciphertext for lid in range(LISTS) for e in _primary_list(cluster, lid)}
        assert held == {r.ciphertext for r in receipts[2:]}

    def test_a_batch_of_misses_is_not_a_write(self, keys):
        """No delivery round either: a healed follower's held backlog
        stays for the next tick, as after a missed ``delete_element``."""
        cluster = ServerCluster(
            keys, num_lists=1, num_servers=2, replication=2, lag=1
        )
        cluster.insert("u", 0, _element(0.5, sealed(b"kept")))
        cluster.pause_follower(1)
        cluster.replication_tick()  # due, but held for the partition
        cluster.resume_follower(1)
        before = _state(cluster)
        assert before["backlog"] == {(0, 1): 1}
        gone = sealed(b"gone")
        assert cluster.delete_many(
            "u", [Receipt(0, gone, 0.5), Receipt(0, gone, 0.25)]
        ) == [False, False]
        assert cluster.delete_many("u", []) == []
        assert _state(cluster) == before

    def test_a_one_server_clusters_batches_are_all_or_nothing_too(self, keys):
        cluster = ServerCluster(keys, num_lists=1, num_servers=1)
        s = [sealed(b"s%d" % i) for i in range(4)]
        for i in range(4):
            cluster.insert("root", 0, _element(i / 4, s[i], "gh"[i % 2]))
        before = _state(cluster)
        with pytest.raises(AccessDeniedError):
            cluster.delete_many(
                "u", [Receipt(0, s[0], 0.0), Receipt(0, s[2], 0.5), Receipt(0, s[1], 0.25)]
            )
        assert _state(cluster) == before
        removed = cluster.delete_many(
            "u", [Receipt(0, s[2], 0.5), Receipt(0, s[0], 0.0), Receipt(0, s[2], 0.5)]
        )
        assert removed == [True, True, False]
        assert [e.ciphertext for e in _primary_list(cluster, 0)] == [s[3], s[1]]


def _primary_list(cluster, list_id):
    return cluster.server(cluster.replicas_of(list_id)[0]).export_list(list_id)


class TestBatchRefinesTheLoop:
    """Twin clusters run one seeded script — one deletes by batch, the
    other receipt by receipt — and must agree after every call."""

    def _script(self, rng):
        """Write calls plus partition and clock events.  Few distinct TRS
        values (ties), receipts with a random TRS (a miss unless it is the
        element's), misses."""
        live: list[tuple[int, EncryptedPostingElement]] = []
        serial = 0

        def receipt_for(list_id, element):
            if rng.randrange(4) == 0:
                return Receipt(list_id, element.ciphertext, rng.randrange(8) / 8)
            return Receipt(list_id, element.ciphertext, element.trs)

        def some_receipts(size):
            batch = []
            for _ in range(size):
                if live and rng.random() < 0.8:
                    batch.append(receipt_for(*live.pop(rng.randrange(len(live)))))
                else:
                    batch.append(Receipt(rng.randrange(LISTS), sealed(b"no-such"), 0.5))
            if batch and rng.random() < 0.3:
                batch.append(batch[0])  # the same element named twice
            return batch

        for step in range(60):
            kind = rng.choice(
                ["insert_many"] * 3 + ["delete_many"] * 3 + ["delete_element", "tick", "pause"]
            )
            if kind == "insert_many":
                items = []
                for _ in range(rng.randrange(1, 9)):
                    serial += 1
                    element = _element(rng.randrange(8) / 8, sealed(b"c%d" % serial))
                    items.append((rng.randrange(LISTS), element))
                live.extend(items)
                yield kind, items
            elif kind == "delete_many":
                yield kind, some_receipts(rng.randrange(7))
            elif kind == "delete_element":
                if live:
                    yield kind, receipt_for(*live.pop(rng.randrange(len(live))))
            elif kind == "tick":
                yield kind, None
            else:
                yield "pause", rng.randrange(1, SERVERS)
            if step % 5 == 4:  # partitions heal, so most batches go through
                for server_index in range(1, SERVERS):
                    yield "resume", server_index

    @staticmethod
    def _per_receipt(cluster, receipts):
        """The reference: one single-receipt call per receipt."""
        return [cluster.delete_many("u", [receipt])[0] for receipt in receipts]

    @pytest.mark.parametrize("level", ["one", "quorum", "all"])
    @pytest.mark.parametrize("lag", [0, 2])
    @pytest.mark.parametrize("replication", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_twins_agree_after_every_call(self, keys, seed, replication, lag, level):
        batched, looped = (
            ServerCluster(
                keys,
                num_lists=LISTS,
                num_servers=SERVERS,
                replication=replication,
                lag=lag,
                write_consistency=level,
            )
            for _ in range(2)
        )
        refused = deleted = 0
        for kind, arg in self._script(random.Random(seed)):
            if kind == "delete_many":
                before = _state(batched)
                try:
                    got = batched.delete_many("u", arg)
                except QuorumWriteUnavailableError:
                    # A refusal is a clean no-op; the loop would have
                    # stopped half way, so the twin skips the batch.
                    assert _state(batched) == before
                    refused += 1
                    continue
                assert got == self._per_receipt(looped, arg)
                deleted += sum(got)
            elif kind in ("insert_many", "delete_element"):
                outcomes = []
                for cluster in (batched, looped):
                    try:
                        outcomes.append(getattr(cluster, kind)("u", arg))
                    except QuorumWriteUnavailableError:
                        outcomes.append("refused")
                assert outcomes[0] == outcomes[1]
            elif kind == "tick":
                assert batched.replication_tick() == looped.replication_tick()
            else:
                getattr(batched, f"{kind}_follower")(arg)
                getattr(looped, f"{kind}_follower")(arg)
            assert _state(batched) == _state(looped)
            for list_id in range(LISTS):
                request = FetchRequest("u", list_id, offset=0, count=1000)
                for consistency in (ReadConsistency.ONE, ReadConsistency.PRIMARY):
                    batched.read_consistency = looped.read_consistency = consistency
                    assert batched.fetch(request) == looped.fetch(request)
        assert deleted > 5
        if level == "all" and replication == 3:
            assert refused  # the paused follower did refuse some batches


class _CountingBytes(bytes):
    """A ciphertext that counts how often it is compared."""

    comparisons = 0

    def __eq__(self, other):
        type(self).comparisons += 1
        return bytes.__eq__(self, other)

    __hash__ = bytes.__hash__


class TestWorkBound:
    TERMS = [f"t{i:03d}" for i in range(150)]

    def _deployment(self, keys, replication):
        plan = MergePlan(
            groups=tuple(tuple(self.TERMS[i::LISTS]) for i in range(LISTS)), r=2.0
        )
        model = RstfModel(
            {t: train_rstf([0.001 * (i + 1), 0.01, 0.02], sigma=200.0)
             for i, t in enumerate(self.TERMS)}
        )
        cluster = ServerCluster(
            keys,
            num_lists=LISTS,
            num_servers=SERVERS,
            replication=replication,
            lag=2,
            write_consistency="quorum",
        )
        rng = random.Random(5)
        cluster.insert_many(
            "u",
            [
                (lid, _element(rng.random(), sealed(b"f%d-%d" % (lid, i))))
                for lid in range(LISTS)
                for i in range(1200)
            ],
        )
        return cluster, ZerberRClient("u", keys, cluster, model, plan)

    def test_primary_bisects_to_every_receipt(self, keys):
        """150 elements out of lists of 1 200: the TRS in the receipt
        takes the primary to the element's run; it never scans."""
        cluster, client = self._deployment(keys, replication=1)
        doc = DocumentStats.from_counts(
            "big", {term: 1 + i % 7 for i, term in enumerate(self.TERMS)}
        )
        receipts = client.index_document_with_receipts(doc, "g")
        assert len(receipts) == 150
        runs = {
            r.ciphertext: cluster.visible_trs_values(r.list_id).count(r.trs)
            for r in receipts
        }
        n = min(cluster.list_length(lid) for lid in range(LISTS))
        assert n >= 1000
        counted = [Receipt(r.list_id, _CountingBytes(r.ciphertext), r.trs) for r in receipts]
        _CountingBytes.comparisons = 0
        assert client.delete_document(counted) == 150
        bound = sum(2 * math.ceil(math.log2(n)) + run for run in runs.values())
        assert 150 <= _CountingBytes.comparisons <= bound

    def test_a_miss_compares_at_most_its_run(self, keys):
        """Absent ciphertexts, at a TRS five elements share and at one no
        element holds: the primary compares each only with its run,
        never with the rest of a list of over a thousand elements."""
        cluster, _ = self._deployment(keys, replication=1)
        cluster.insert_many(
            "u", [(0, _element(0.5, sealed(b"tie%d" % i))) for i in range(5)]
        )
        unused = 0.123456789
        assert unused not in cluster.visible_trs_values(1)
        misses = [
            Receipt(0, _CountingBytes(sealed(b"absent-0")), 0.5),
            Receipt(1, _CountingBytes(sealed(b"absent-1")), unused),
        ]
        assert min(cluster.list_length(r.list_id) for r in misses) >= 1000
        runs = [cluster.visible_trs_values(r.list_id).count(r.trs) for r in misses]
        assert runs == [5, 0]
        before = _state(cluster)
        _CountingBytes.comparisons = 0
        assert cluster.delete_many("u", misses) == [False, False]
        assert _CountingBytes.comparisons <= sum(runs)
        assert _state(cluster) == before

    def test_one_delivery_round_per_document(self, keys, monkeypatch):
        cluster, client = self._deployment(keys, replication=3)
        doc = DocumentStats.from_counts("big", {term: 2 for term in self.TERMS})
        receipts = client.index_document_with_receipts(doc, "g")
        repl = cluster.replication_manager
        rounds = []
        deliver_due = repl.deliver_due
        monkeypatch.setattr(repl, "deliver_due", lambda: rounds.append(deliver_due()))
        syncs = repl.stats.write_ack_syncs
        assert client.delete_document(receipts) == 150
        assert len(rounds) == 1
        # One forced ack per touched list, not one per element.
        assert repl.stats.write_ack_syncs - syncs == LISTS
        assert client.version_floor(0) == cluster.primary_version(0)


class TestRefusedBatchAndFailover:
    def _deployment(self, keys):
        plan = MergePlan(groups=(("apple", "pear"), ("plum",), ("fig",)), r=2.0)
        model = RstfModel(
            {t: train_rstf([0.1, 0.3, 0.6], sigma=20.0) for t in ("apple", "plum")}
        )
        cluster = ServerCluster(
            keys,
            num_lists=LISTS,
            num_servers=SERVERS,
            replication=3,
            lag=1,
            write_consistency="quorum",
            failover_after=2,
        )
        return cluster, ZerberRClient("u", keys, cluster, model, plan)

    def test_refusal_is_a_no_op_and_the_retry_resends_the_whole_batch(
        self, keys, monkeypatch
    ):
        cluster, client = self._deployment(keys)
        doc = DocumentStats.from_counts("d", {"apple": 2, "pear": 1, "plum": 1, "fig": 3})
        receipts = client.index_document_with_receipts(doc, "g")
        cluster.run_replication_until_quiet()
        # Lists 0..2 have three different primaries under round-robin:
        # killing one refuses a batch that the other two would accept.
        dead = cluster.replicas_of(1)[0]
        assert dead != cluster.replicas_of(0)[0]
        cluster.fail_server(dead)
        before = _state(cluster)
        with pytest.raises(QuorumWriteUnavailableError) as refusal:
            cluster.delete_many("u", receipts)
        assert refusal.value.list_id == 1
        assert _state(cluster) == before

        sent = []
        delete_many = cluster.delete_many

        def recording(principal, batch):
            sent.append(list(batch))
            return delete_many(principal, batch)

        monkeypatch.setattr(cluster, "delete_many", recording)
        assert client.delete_document(receipts) == len(receipts)
        assert cluster.replicas_of(1)[0] != dead
        assert len(sent) >= 2 and all(batch == receipts for batch in sent)
        assert cluster.num_elements == 0
        assert client.query("apple", k=3).doc_ids() == []
