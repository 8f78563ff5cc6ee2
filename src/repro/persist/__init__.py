"""On-disk persistence for a Zerber+R deployment.

What is persisted is exactly what an untrusted host durably stores: the
merged lists (ciphertext, group tag, TRS), each once, as its
replication log — no keys, no plaintext —
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

The container is format **v10**, the only version this build writes or
reads.  A dump is the log: each written list is one entry ``{"head",
"base", "run", "ops"}`` under ``cluster.replication_state.logs``,
``run`` the list at version ``base`` and ``ops`` the retained run
``(base, head]``, beside every replica's applied version.  A replica at
version ``v`` *is* the run plus the ops up to ``v``, so a v10 dump holds
each list once and cannot encode replicas that disagree with their log.
The topology — placement table, epoch, down servers (``cluster.down``)
and partitioned ones (``cluster.replication_state.paused``) — is read
and written through the cluster, which owns all of it.
A v9 dump held a ``servers`` section with every replica's copy of every
list (95.7 % of a ``mixed-write-read`` dump, 3.0 element entries per
logical element), which this build has no reader for.

The v9 bump changed the replication op: every op, insert or delete, is
``{"s", "k", "e"}``, ``"e"`` the element inserted or removed, through
the one element codec; a v8 delete op carried a bare ciphertext ``"c"``
and, when it had one, a TRS ``"t"``, so a v8 log's delete ops hold no
element for this build to apply.  It also dropped v8's per-list
mutation counters (``"versions"``): replies are stamped with the
replication log's applied versions, and readable views are rebuilt
after a restore.

The v8 bump changed every stored ciphertext: a v8 element (and a sealed
directory) is SIV — ``iv (16) || body``, the IV a PRF of the plaintext
under a new subkey and checked on decryption — where a v7 one was
``nonce (12) || body || tag (16)``.  Under the new check every v7
element would fail and read as not the reader's, so a v7 dump would
restore without complaint and answer every query with nothing.  (A v7
element named its document by number in a fixed 14-byte header and a
v6 one spelled the doc id out after a 10-byte header; v6 replaced v5's
16-byte nonce and SHAKE-256 keystream with a 12-byte nonce and a
keyed-BLAKE2b one; keyed BLAKE2b-128 replaced v4's truncated
HMAC-SHA256 tag in v5; a v3 element would also misread its plaintext —
its term-length byte and first three term bytes read as a term number —
and a v2 element, canonical JSON, never decodes at all.)  Any other
version is therefore refused with a
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
2. **Versions restart nowhere.**  Each list's run at ``base_seq``, its
   ``(base_seq, head_seq]`` tail and every replica's applied version are
   part of the dump, so post-restart version stamps remain comparable
   with pre-restart state: ``head_seq`` continues from where the crashed
   process stopped.  Invariant 3 of :mod:`repro.core.replication` (ops
   at or below ``min(applied)`` are truncated, so ``base_seq`` sits at
   the minimum) held in memory when the snapshot was taken, so some
   replica sat at the base and the run is its copy.
3. **Restore is replay.**  Every replica, the one-server index's
   included, is rebuilt by replaying the run and its own prefix of the
   retained ops through ``apply_replicated_ops``, the one call any list
   changes by, and is re-registered at its *persisted* applied version;
   a replica behind the restored head gets its remaining log ops
   scheduled through the normal catch-up machinery, so a restarted
   lagged/paused/dead follower converges exactly as a live one would
   (one anti-entropy sweep bounds the wait) — no acknowledged op is
   lost.  A replayed delete that removes nothing means the run and the
   ops disagree, and the dump is refused as corrupt.
4. **Views are derived, not persisted.**  A restored server holds no
   readable views: the first read of a list by a principal builds its
   view from the replayed list under the live key service, so a restart
   can never serve under revoked access rights.  Nor does a dump carry
   access counters (the v4 ``heat`` block): every restored server
   counts its load from zero.
5. **Corruption fails loudly.**  Decoders validate ids, shapes, log
   bounds and op payloads against the dump's own declarations and raise
   :class:`~repro.errors.ConfigurationError` naming the file and the
   offending value — nothing escapes as a raw ``KeyError``,
   ``IndexError`` or ``AttributeError`` (every cluster section is
   type-checked before it is read).  Element fields are decoded
   strictly (base64 with validation, string group, float TRS in
   [0, 1]): a damaged entry never restores as a *different*
   ciphertext.  The setup artifacts are held
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
)

__all__ = [
    "FORMAT_VERSION",
    "save_cluster",
    "load_cluster",
    "element_to_dict",
    "element_from_dict",
    "merge_plan_to_dict",
    "rstf_model_to_dict",
    "read_payload",
    "atomic_write_text",
]
