"""Integration: a ZerberRClient working against a sharded ServerCluster.

The client is duck-typed over the server surface (insert_many / fetch /
delete_element), so a cluster is a drop-in replacement — queries survive a
replica failure and results match the single-server deployment.
"""

import pytest

from repro import SystemConfig, ZerberRSystem
from repro.core.client import ZerberRClient
from repro.core.cluster import ServerCluster


@pytest.fixture()
def cluster_setup(micro_corpus):
    """A single-server system plus an equivalent 3-server/2-replica cluster."""
    system = ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=22))
    cluster = ServerCluster(
        system.key_service,
        num_lists=system.merge_plan.num_lists,
        num_servers=3,
        replication=2,
    )
    # Re-index the corpus into the cluster through per-group owner clients.
    for group in sorted(micro_corpus.groups()):
        owner = f"owner:{group}"
        client = ZerberRClient(
            principal=owner,
            key_service=system.key_service,
            server=cluster,
            rstf_model=system.rstf_model,
            merge_plan=system.merge_plan,
        )
        items = []
        for doc in micro_corpus.documents_in_group(group):
            stats = micro_corpus.stats(doc.doc_id)
            for term in sorted(stats.counts):
                items.append(client.build_element(term, stats, group))
        cluster.insert_many(owner, items)
    superuser = ZerberRClient(
        principal="superuser",
        key_service=system.key_service,
        server=cluster,
        rstf_model=system.rstf_model,
        merge_plan=system.merge_plan,
    )
    return system, cluster, superuser


class TestClusterQueries:
    def test_results_match_single_server(self, cluster_setup):
        system, cluster, superuser = cluster_setup
        for term in system.vocabulary.terms_by_frequency()[:5]:
            single = system.query(term, k=5)
            sharded = superuser.query(term, k=5)
            assert [h.rscore for h in sharded.hits] == pytest.approx(
                [h.rscore for h in single.hits]
            ), term

    def test_element_counts_match(self, cluster_setup):
        system, cluster, _ = cluster_setup
        assert cluster.num_elements == system.cluster.num_elements

    def test_queries_survive_one_failure(self, cluster_setup):
        system, cluster, superuser = cluster_setup
        term = system.vocabulary.terms_by_frequency()[0]
        before = superuser.query(term, k=5)
        cluster.fail_server(cluster.replicas_of(system.merge_plan.list_of(term))[0])
        after = superuser.query(term, k=5)
        assert after.doc_ids() == before.doc_ids()

    def test_compromising_one_server_sees_fraction(self, cluster_setup):
        _, cluster, _ = cluster_setup
        fraction = cluster.visible_fraction([0])
        # 3 servers, replication 2: one server holds 2/3 of the lists.
        assert fraction == pytest.approx(2 / 3, abs=0.05)

    def test_deletion_reaches_all_replicas(self, cluster_setup, micro_corpus):
        system, cluster, _ = cluster_setup
        group = sorted(micro_corpus.groups())[0]
        owner = ZerberRClient(
            principal=f"owner:{group}",
            key_service=system.key_service,
            server=cluster,
            rstf_model=system.rstf_model,
            merge_plan=system.merge_plan,
        )
        doc_id = micro_corpus.documents_in_group(group)[0].doc_id
        term = sorted(micro_corpus.stats(doc_id).counts)[0]
        from repro.text.analysis import DocumentStats

        doc = DocumentStats.from_counts("cluster-doc", {term: 2})
        before = cluster.num_elements
        receipts = owner.index_document_with_receipts(doc, group)
        assert cluster.num_elements == before + 1
        assert owner.delete_document(receipts) == 1
        assert cluster.num_elements == before
