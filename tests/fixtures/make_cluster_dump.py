"""Write the cluster dump fixture of this build's format version, the
kind ``tests/test_persist_cluster.py`` expects a later build to refuse.

    PYTHONPATH=src python tests/fixtures/make_cluster_dump.py

A three-server, two-way replicated deployment of a twelve-document corpus
under ``SECRET``, caught up, then one new document written by its group's
owner and a third of it deleted again at lag 2, so the dump's replication
logs still hold insert and delete ops a follower has not applied.  It is
written as ``cluster_v<FORMAT_VERSION>.json``.

The committed dumps were written by this script at the builds of their
versions: ``cluster_v5.json`` (16-byte nonces from HMAC-SHA256 of a bare
counter, a SHAKE-256 keystream, dataclass log ops),
``cluster_v6.json`` (12-byte nonces, a keyed-BLAKE2b keystream, each
plaintext's doc id spelled out after a 10-byte header) and
``cluster_v7.json`` (``nonce (12) || body || tag (16)`` seals, the
document numbered in a 14-byte header, sealed directories),
``cluster_v8.json`` (SIV seals, ``iv (16) || body``; delete ops naming
their element by a bare ciphertext ``"c"`` and its TRS ``"t"``; per-list
mutation counters in every server section) and ``cluster_v9.json``
(per-server ``servers`` sections, one copy of each list per replica,
beside logs of ``head``, ``base`` and ``ops`` only).  Rerunning it writes
what the code in the tree writes, so run it before a format bump, not after.
"""

from __future__ import annotations

from pathlib import Path

from repro import SystemConfig, ZerberRSystem
from repro.corpus.synthetic import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.crypto.keys import GroupKeyService
from repro.persist import FORMAT_VERSION, save_cluster
from repro.text.analysis import DocumentStats

HERE = Path(__file__).resolve().parent
SECRET = b"cluster-v5-fixture-secret-012345"


def corpus():
    config = SyntheticCorpusConfig(
        num_documents=12,
        vocabulary_size=40,
        num_groups=2,
        topic_vocabulary_size=12,
        doc_length_median=10.0,
        doc_length_sigma=0.3,
        min_doc_length=6,
        max_doc_length=16,
        seed=17,
        name="fixture",
    )
    return SyntheticCorpusGenerator(config).generate()


def main() -> None:
    source = corpus()
    system = ZerberRSystem.build(
        source, SystemConfig(r=2.0, seed=3), key_service=GroupKeyService(SECRET)
    )
    cluster, _ = system.deploy_cluster(num_servers=3, replication=2, lag=2)
    cluster.run_replication_until_quiet()
    first = source.doc_ids()[0]
    group = source.document(first).group
    owner = system.client_for(f"owner:{group}", server=cluster)
    counts = dict(source.stats(first).counts)
    receipts = owner.index_document_with_receipts(
        DocumentStats.from_counts("fixture-new", counts), group
    )
    owner.delete_document(receipts[: len(receipts) // 3])
    path = HERE / f"cluster_v{FORMAT_VERSION}.json"
    save_cluster(path, cluster, system.merge_plan, system.rstf_model)


if __name__ == "__main__":
    main()
