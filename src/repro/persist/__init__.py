"""On-disk persistence for a Zerber+R deployment.

What is persisted is exactly what an untrusted host durably stores: the
merged lists (ciphertext, group tag, TRS) — no keys, no plaintext —
plus the *public* setup artifacts a joining client needs (the merge plan
and the published RSTF model), plus each group's document directory
sealed under a subkey of that group's key (a posting names its document
by a number in that directory; see :mod:`repro.index.postings`), so no
doc id is ever in the clear.  Group keys are deliberately **not**
serialised; they live in the trusted
:class:`~repro.crypto.keys.GroupKeyService`, which a deployment
reconstructs from its own secret, and :func:`load_cluster` gives it the
dump's directories.

One dump kind, a version-tagged JSON container with ``kind:
"cluster"``, holds a whole :class:`~repro.core.cluster.ServerCluster`
(:func:`save_cluster` / :func:`load_cluster`), replication logs
included; see :mod:`repro.persist.clusterstate`.  The paper's single
index server is a one-server cluster, and its dump is this one too.  A
``kind: "server"`` container (a bare server, from an older build) is
refused by name: re-index to carry it over.

The container is format **v7**, the only version this build writes or
reads.  It is renumbered because every stored plaintext changed: a v7
element names its document by a 4-byte number in a fixed 14-byte
header, where a v6 element spelled the doc id out after a 10-byte one,
and a v7 dump carries the sealed directories that resolve the numbers.
Every v6 element would open and then fail the header, so a v6 dump
would restore without complaint and answer every query with an error.
(Every v5 element fails its tag: v6 replaced the 16-byte nonce and
SHAKE-256 keystream with a 12-byte nonce and a keyed-BLAKE2b one under a
new MAC subkey; every v4 element fails its tag too — keyed BLAKE2b-128
replaced truncated HMAC-SHA256 in v5; a v3 element would also misread
its plaintext — its term-length byte and first three term bytes read as
a term number — and a v2 element, canonical JSON, never decodes at
all.)  Any other version is therefore refused with a
:class:`~repro.errors.ConfigurationError` naming the file, the version
found and the version read, and the hint to re-index: that is how an
older index is carried over.

The v5 bump dropped the blocks only v4 dumps carry: the cluster's
``lag`` is written and read as the int it is (v4 wrapped it as
``{"fixed_ticks": n}`` beside a ``per_server`` table that no build
restored), and no server section holds ``heat`` or ``views`` any more.

Format / recovery invariants
----------------------------

1. **Atomicity.**  Every save writes a temp file in the target's
   directory and ``os.replace``\\ s it into place: an interrupted save
   leaves the previous dump intact, never a torn file
   (:mod:`repro.persist.atomic`).
2. **Versions restart nowhere.**  Each merged list's mutation counter
   and each replication log's ``(base_seq, head_seq]`` tail are part of
   the dump, so post-restart version stamps remain comparable with
   pre-restart state: ``head_seq`` continues from where the crashed
   process stopped, and invariant 3 of
   :mod:`repro.core.replication` (``base_seq <= min(applied)``) holds in
   the dump because it held in memory when the snapshot was taken.
3. **Acknowledged ops survive restarts.**  Recovery re-registers every
   replica at its *persisted* applied version; a replica behind the
   restored head gets its remaining log ops scheduled through the normal
   catch-up machinery, so a restarted lagged/paused/dead follower
   converges exactly as a live one would (one anti-entropy sweep bounds
   the wait) — it never silently restarts blank.
4. **Views are derived, not persisted.**  A restored server holds no
   readable views: the first read of a list by a principal builds its
   view from the restored list under the live key service, so a restart
   can never serve under revoked access rights.  Nor does a dump carry
   access counters (the v4 ``heat`` block): every restored server
   counts its load from zero.
5. **Corruption fails loudly.**  Decoders validate ids, shapes, log
   bounds and op payloads against the dump's own declarations and raise
   :class:`~repro.errors.ConfigurationError` naming the file and the
   offending value — nothing escapes as a raw ``KeyError``,
   ``IndexError`` or ``AttributeError`` (every cluster section is
   type-checked before it is read).  Element fields are decoded strictly (base64 with
   validation, string group, float-or-null TRS): a damaged entry never
   restores as a *different* ciphertext.  The setup artifacts are held
   to the same rule: a merge plan or RSTF model its own constructor
   refuses is a :class:`~repro.errors.ConfigurationError` naming the
   file, never a bare one or a ``TrainingError``.
"""

from __future__ import annotations

from repro.persist.atomic import atomic_write_text
from repro.persist.clusterstate import load_cluster, save_cluster
from repro.persist.encoders import (
    FORMAT_VERSION,
    element_from_dict,
    element_to_dict,
    merge_plan_to_dict,
    read_payload,
    rstf_model_to_dict,
    server_to_dict,
)

__all__ = [
    "FORMAT_VERSION",
    "save_cluster",
    "load_cluster",
    "element_to_dict",
    "element_from_dict",
    "merge_plan_to_dict",
    "rstf_model_to_dict",
    "server_to_dict",
    "read_payload",
    "atomic_write_text",
]
