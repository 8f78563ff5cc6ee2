"""Tests for the end-to-end system facade."""

import gc
import weakref

import pytest

from repro import SystemConfig, ZerberRSystem
from repro.crypto.keys import GroupKeyService
from repro.errors import AccessDeniedError, ConfigurationError
from repro.index.merge import MergePlan
from repro.text.analysis import DocumentStats


class TestConfig:
    def test_defaults(self):
        config = SystemConfig()
        assert config.r == 4.0
        assert config.merge_scheme == "bfm"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(r=1.0)
        with pytest.raises(ConfigurationError):
            SystemConfig(training_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SystemConfig(merge_scheme="magic")


class TestBuild:
    def test_all_corpus_terms_in_plan(self, system):
        vocab_terms = set(iter(system.vocabulary))
        assert vocab_terms <= system.merge_plan.all_terms()

    def test_one_server_cluster_holds_all_posting_elements(self, system, corpus):
        """One deployment shape: the paper's single index server is a
        one-server cluster at replication 1, and the system has no other."""
        expected = sum(len(corpus.stats(d).counts) for d in corpus.doc_ids())
        assert system.cluster.num_elements == expected
        assert (system.cluster.num_servers, system.cluster.replication) == (1, 1)
        assert not hasattr(system, "server") and not hasattr(system, "save")
        assert system.client_for("superuser")._server is system.cluster

    def test_audit_confidential(self, system):
        audit = system.audit()
        assert audit.is_confidential
        assert audit.max_amplification <= system.config.r + 1e-9

    def test_groups_registered(self, system, corpus):
        for group in corpus.groups():
            assert group in system.key_service.groups()

    def test_superuser_in_all_groups(self, system, corpus):
        assert system.key_service.memberships("superuser") == corpus.groups()

    def test_preseeded_partial_superuser_gets_missing_groups(self, micro_corpus):
        # Regression: build() used to probe membership against an arbitrary
        # set element, so a superuser pre-enrolled in *that* group was
        # assumed enrolled everywhere and stayed blind to other groups.
        from repro.crypto.keys import GroupKeyService

        groups = sorted(micro_corpus.groups())
        assert len(groups) >= 2
        key_service = GroupKeyService(master_secret=b"p" * 32)
        key_service.register("superuser", {groups[0]})
        system = ZerberRSystem.build(
            micro_corpus, SystemConfig(r=3.0, seed=8), key_service=key_service
        )
        assert system.key_service.memberships("superuser") == set(groups)
        # And whole-collection queries actually see every group.
        seen_groups = set()
        for term in system.vocabulary.terms_by_frequency()[:20]:
            for hit in system.query(term, k=10).hits:
                seen_groups.add(hit.group)
        assert len(seen_groups) >= 2

    def test_empty_corpus_rejected(self):
        from repro.corpus.documents import Corpus

        with pytest.raises(ConfigurationError):
            ZerberRSystem.build(Corpus())

    def test_merge_plan_is_valid(self, system):
        assert isinstance(system.merge_plan, MergePlan)
        probabilities = {
            t: system.vocabulary.probability(t) for t in system.vocabulary
        }
        system.merge_plan.verify(probabilities)


class TestQuerying:
    def test_query_returns_hits(self, system, frequent_term):
        result = system.query(frequent_term, k=5)
        assert 1 <= len(result.hits) <= 5

    def test_results_sorted_by_score(self, system, frequent_term):
        result = system.query(frequent_term, k=10)
        scores = [h.rscore for h in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_client_cached(self, system):
        assert system.client_for("superuser") is system.client_for("superuser")

    def test_the_client_cache_does_not_pin_a_dropped_deployment(self, system):
        """A client is cached only while a caller holds it: a cached client
        holds its backend, so the cache would keep every cluster it was
        asked for alive as long as the system."""
        cluster = system.deploy_cluster(num_servers=2)[0]
        client = system.client_for("superuser", server=cluster)
        assert system.client_for("superuser", server=cluster) is client
        freed = weakref.ref(cluster)
        del cluster, client
        gc.collect()
        assert freed() is None

    def test_register_user(self, corpus):
        system = ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=77))
        group = sorted(corpus.groups())[0]
        client = system.register_user("newbie", {group})
        term = sorted(corpus.stats(corpus.documents_in_group(group)[0].doc_id).counts)[0]
        result = client.query(term, k=3)
        assert all(hit.group == group for hit in result.hits)


class TestClusterDurability:
    def test_snapshot_restore_roundtrip_results(self, micro_corpus, tmp_path):
        system = ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=8))
        cluster, _ = system.deploy_cluster(
            num_servers=3, replication=2, lag=2, anti_entropy_every=4
        )
        path = tmp_path / "cluster.json"
        system.snapshot_cluster(path, cluster)
        restored, coordinator = system.restore_cluster(path)
        assert restored.replication_backlog() == cluster.replication_backlog()
        term = system.vocabulary.terms_by_frequency()[0]
        before = system.client_for("superuser", server=cluster).query(term, k=5)
        after = system.client_for("superuser", server=restored).query(term, k=5)
        assert after.doc_ids() == before.doc_ids()
        # The restored cluster keeps converging through normal operation.
        restored.run_replication_until_quiet()
        assert restored.replication_backlog() == {}
        assert coordinator.cluster is restored

    def test_restore_rejects_foreign_merge_plan(self, micro_corpus, tmp_path):
        system = ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=8))
        other = ZerberRSystem.build(micro_corpus, SystemConfig(r=2.0, seed=9))
        cluster, _ = other.deploy_cluster(num_servers=2)
        path = tmp_path / "cluster.json"
        other.snapshot_cluster(path, cluster)
        if other.merge_plan == system.merge_plan:
            pytest.skip("configs produced identical plans")
        with pytest.raises(ConfigurationError, match="merge plan"):
            system.restore_cluster(path)

    def test_the_build_output_round_trips_through_load_cluster(
        self, micro_corpus, tmp_path
    ):
        from repro.persist import load_cluster

        system = ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=8))
        path = tmp_path / "index.json"
        system.snapshot_cluster(path, system.cluster)
        cluster, plan, _ = load_cluster(path, GroupKeyService())
        assert plan == system.merge_plan
        assert cluster.num_elements == system.cluster.num_elements


def _is_repro(obj) -> bool:
    module = getattr(obj, "__module__", None)
    return isinstance(module, str) and module.startswith("repro")


def _build(system, tmp_path):
    rebuilt = ZerberRSystem.build(system.corpus, system.config)
    return weakref.ref(rebuilt.cluster)


def _deploy(system, tmp_path):
    """A deployment that has served one coordinator query and one write."""
    cluster, coordinator = system.deploy_cluster(
        num_servers=3, replication=2, lag=1, round_latency=1
    )
    superuser = system.client_for("superuser", server=cluster)
    session = coordinator.open_session(
        superuser, system.vocabulary.terms_by_frequency()[:2], 5
    )
    coordinator.run_until_complete()
    assert session.result().ranked
    source = system.corpus.doc_ids()[0]
    group = system.corpus.document(source).group
    doc = DocumentStats.from_counts("no-cycles", system.corpus.stats(source).counts)
    system.client_for(f"owner:{group}", server=cluster).index_document_with_receipts(
        doc, group
    )
    return weakref.ref(cluster)


def _restore(system, tmp_path):
    cluster, coordinator = system.restore_cluster(tmp_path / "cluster.json")
    coordinator.tick()
    return weakref.ref(cluster)


class TestADroppedDeploymentIsFreedByReferenceCounting:
    """What each deployment constructor returns is freed as soon as it is
    dropped, not at the next full collection: a cycle through a dropped
    deployment holds its servers and every element they hold, and raises
    the peak memory of whatever is built next."""

    @pytest.fixture()
    def system(self, micro_corpus, tmp_path):
        system = ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=8))
        cluster, _ = system.deploy_cluster(num_servers=3, replication=2, lag=2)
        system.snapshot_cluster(tmp_path / "cluster.json", cluster)
        return system

    @pytest.mark.parametrize(
        "construct", [_build, _deploy, _restore], ids=["build", "deploy", "restore"]
    )
    def test_no_cycles(self, construct, system, tmp_path):
        gc.collect()
        gc.disable()
        try:
            freed = construct(system, tmp_path)
            assert freed() is None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = sorted({type(o).__qualname__ for o in gc.garbage if _is_repro(o)})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []


class TestMergeSchemes:
    @pytest.mark.parametrize("scheme", ["bfm", "random", "greedy"])
    def test_all_schemes_confidential(self, micro_corpus, scheme):
        system = ZerberRSystem.build(
            micro_corpus, SystemConfig(r=3.0, merge_scheme=scheme, seed=1)
        )
        assert system.audit().is_confidential


def _nonce_counters(system):
    return {
        group: system.key_service.nonce_sequence(f"owner:{group}", group)._counter
        for group in sorted(system.corpus.groups())
    }


@pytest.fixture(scope="module")
def studip_system():
    from repro.corpus.synthetic import studip_like

    return ZerberRSystem.build(
        studip_like(num_documents=60, vocabulary_size=800),
        SystemConfig(r=4.0, seed=5),
    )


@pytest.fixture(params=["system", "studip_system"], ids=["tiny", "studip"])
def indexed(request):
    """The session's tiny-corpus system, and one over a Stud.IP-like corpus."""
    return request.getfixturevalue(request.param)


class TestDeployShardsTheBuiltIndex:
    """``deploy_cluster`` uploads the index ``build`` made — the same
    element objects, through the same gate and log — instead of encrypting
    the corpus a second time (paper §5: a member encrypts an element once)."""

    @pytest.mark.parametrize("lag", [0, 2])
    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_index_once(self, indexed, counted_encrypts, replication, lag):
        # The shared system is deployed from twelve times over: a second
        # deployment of one system is part of what is checked.
        system = indexed
        nonces = _nonce_counters(system)
        cluster, _ = system.deploy_cluster(
            num_servers=3, replication=replication, lag=lag
        )
        assert counted_encrypts == []
        assert _nonce_counters(system) == nonces
        assert sum(nonces.values()) == system.cluster.num_elements
        assert cluster.replication_stats.ops_logged == system.cluster.num_elements
        cluster.run_replication_until_quiet()
        assert cluster.replication_backlog() == {}
        for list_id in range(system.merge_plan.num_lists):
            built = system.cluster.server(0).export_list(list_id)
            for server_index in cluster.replicas_of(list_id):
                held = cluster.server(server_index).export_list(list_id)
                assert len(held) == len(built)
                assert all(a is b for a, b in zip(held, built)), (list_id, server_index)

    def test_preseeded_owners_build_and_a_revoked_owner_stays_revoked(
        self, micro_corpus
    ):
        """Regression: deploying uploaded as each group's owner and so
        re-enrolled an owner an admin had revoked since ``build``."""
        groups = sorted(micro_corpus.groups())
        key_service = GroupKeyService(master_secret=b"o" * 32)
        for group in groups:
            key_service.register(f"owner:{group}", {group})
        system = ZerberRSystem.build(
            micro_corpus, SystemConfig(r=3.0, seed=8), key_service=key_service
        )
        key_service.revoke(f"owner:{groups[0]}", groups[0])
        cluster, _ = system.deploy_cluster(num_servers=2, replication=2)
        assert cluster.num_elements == system.cluster.num_elements
        assert not key_service.is_member(f"owner:{groups[0]}", groups[0])
        assert all(key_service.is_member(f"owner:{g}", g) for g in groups[1:])

    def test_a_superuser_revoked_from_a_group_cannot_deploy(
        self, micro_corpus, monkeypatch
    ):
        system = ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=8))
        group = sorted(micro_corpus.groups())[-1]
        system.key_service.revoke("superuser", group)
        deployed = []
        shard = system._shard_index_into

        def recording(cluster):
            deployed.append(cluster)
            shard(cluster)

        monkeypatch.setattr(system, "_shard_index_into", recording)
        with pytest.raises(AccessDeniedError):
            system.deploy_cluster(num_servers=2, replication=2)
        (cluster,) = deployed
        assert cluster.num_elements == 0
        assert cluster.replication_stats.ops_logged == 0
        assert not system.key_service.is_member("superuser", group)

    def test_the_index_is_deployed_not_the_corpus(self, corpus):
        """Regression: a document written to or deleted from
        ``system.cluster`` after ``build`` never reached (or reappeared in)
        the cluster, which was re-indexed from the corpus."""
        from repro.core.protocol import Receipt
        from repro.corpus.documents import DocumentStats

        system = ZerberRSystem.build(corpus, SystemConfig(r=4.0, seed=5))
        group, other = sorted(corpus.groups())[:2]
        victim = corpus.documents_in_group(group)[0].doc_id
        # A copy of another group's document ties every element of it on
        # TRS, and is held after it although its group sorts first.
        donor = corpus.documents_in_group(other)[0].doc_id
        writer = system.client_for(f"owner:{group}")
        added = DocumentStats.from_counts("added-doc", dict(corpus.stats(donor).counts))
        assert writer.index_document(added, group) == len(added.counts)
        cipher, decode = system.key_service.keyring("superuser", system.merge_plan)[group]
        receipts = [
            Receipt(list_id, element.ciphertext, element.trs)
            for list_id in range(system.merge_plan.num_lists)
            for element in system.cluster.server(0).export_list(list_id)
            if element.group == group
            and cipher.try_decrypt(element.ciphertext, decode).doc_id == victim
        ]
        assert len(receipts) == len(corpus.stats(victim).counts)
        assert writer.delete_document(receipts) == len(receipts)

        cluster, _ = system.deploy_cluster(num_servers=3, replication=2, lag=2)
        assert cluster.replication_stats.ops_logged == system.cluster.num_elements
        cluster.run_replication_until_quiet()
        ties_between_groups = 0
        for list_id in range(system.merge_plan.num_lists):
            built = system.cluster.server(0).export_list(list_id)
            ties_between_groups += sum(
                a.trs == b.trs and a.group != b.group
                for a, b in zip(built, built[1:])
            )
            for server_index in cluster.replicas_of(list_id):
                held = cluster.server(server_index).export_list(list_id)
                assert len(held) == len(built)
                assert all(a is b for a, b in zip(held, built)), list_id
        assert ties_between_groups > 0
        single = system.client_for("superuser")
        sharded = system.client_for("superuser", server=cluster)
        tapes = [sorted(added.counts)[:3], sorted(corpus.stats(victim).counts)[:3]]
        tapes += [[term] for term in system.vocabulary.terms_by_frequency()[:6]]
        everything = len(corpus) + 1
        for terms in tapes:
            ours = sharded.query_multi_batched(terms, everything)
            theirs = single.query_multi_batched(terms, everything)
            assert ours.ranked == theirs.ranked, terms
            assert victim not in ours.doc_ids()
        assert "added-doc" in sharded.query_multi_batched(tapes[0], everything).doc_ids()
