"""Persist a confidential index and query it from a fresh process.

Shows the operational workflow: build once, write the untrusted-host dump
(ciphertexts + TRS + public setup artifacts, never keys), reload it with a
key service reconstructed from the deployment secret, and check that the
reloaded index answers a top-k query as the original deployment does.

Run:  python examples/persistent_index.py
"""

import tempfile
from pathlib import Path

from repro import SystemConfig, ZerberRSystem, load_cluster, studip_like
from repro.core.client import ZerberRClient
from repro.crypto.keys import GroupKeyService

SECRET = b"deployment-secret-0123456789abcd"


def main() -> None:
    corpus = studip_like(num_documents=150, vocabulary_size=2000, seed=2)

    # --- process 1: build and persist --------------------------------------
    keys = GroupKeyService(master_secret=SECRET)
    system = ZerberRSystem.build(corpus, SystemConfig(r=4.0), key_service=keys)
    path = Path(tempfile.mkdtemp()) / "index.json"
    system.snapshot_cluster(path, system.cluster)
    print(
        f"persisted {system.cluster.num_elements} encrypted elements "
        f"({path.stat().st_size / 1024:.0f} KB) to {path}"
    )

    # --- process 2: reload with the same secret ----------------------------
    keys2 = GroupKeyService(master_secret=SECRET)
    cluster2, plan2, model2 = load_cluster(path, keys2)
    for group in corpus.groups():
        keys2.ensure_group(group)
    keys2.register("reader", set(corpus.groups()))
    client = ZerberRClient(
        principal="reader",
        key_service=keys2,
        server=cluster2,
        rstf_model=model2,
        merge_plan=plan2,
    )
    term = system.vocabulary.terms_by_frequency()[3]
    result = client.query(term, k=5)
    print(f"\nreloaded index answers top-5 for {term!r}: {result.doc_ids()}")
    original = system.query(term, k=5)
    print(f"matches the original deployment: {result.doc_ids() == original.doc_ids()}")


if __name__ == "__main__":
    main()
