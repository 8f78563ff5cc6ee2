"""Replication-bypass rule: all list mutations flow through the log.

Every write enters through :class:`~repro.core.cluster.ServerCluster` —
``insert_many`` / ``delete_many`` — which validates the batch, records
it in the :class:`~repro.core.replication.ReplicationManager` logs and
hands each primary server the runs of the lists it leads through
:meth:`~repro.core.server.ZerberRServer.apply_replicated_ops`, the one
call the log's deliveries to the followers make too.  Four things would
let a write past that log:

* calling a :class:`~repro.index.postings.MergedPostingList` mutator
  directly outside the storage layers;
* calling ``apply_replicated_ops`` anywhere but in the three modules
  that hand it logged ops (``repro.core.cluster``,
  ``repro.core.replication``) or define it (``repro.core.server``): ops
  no log recorded reach one copy of a list and no other;
* reaching into a server's ``_lists`` from outside the server;
* constructing a :class:`~repro.core.server.ZerberRServer` anywhere but
  in ``repro.core.cluster``: a shard that no cluster holds has no log,
  no replicas and no write gate, so what it is handed no snapshot
  accounts for.  The paper's single index server is a one-server
  cluster, not a bare shard.

Each produces a write that no replica ever sees: replicas diverge
silently and read-repair cannot converge them.

Sanctioned mutation modules are the storage/replication layers
themselves and the cluster (which routes every write through the log).
The persistence codecs are not among them: restore replays the log, so
a restored list changes through ``apply_replicated_ops`` too, called by
the replication manager.  The non-replicated baselines keep lists of
their own records and call no
:class:`~repro.index.postings.MergedPostingList` mutator.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import (
    Checker,
    FileContext,
    Finding,
    module_matches,
    register,
)

_SANCTIONED_MUTATION_MODULES = (
    "repro.core.server",
    "repro.core.cluster",
    "repro.core.replication",
    "repro.core.views",
    "repro.core.ordstat",
    "repro.index",
)

#: MergedPostingList-level mutators: distinctive names, safe to match on.
_LIST_MUTATORS = frozenset(
    {
        "add_sorted_by_trs",
        "pop_at",
    }
)

#: The one server mutator, and the modules that may call it.
_REPLICA_APPLY = "apply_replicated_ops"
_REPLICA_APPLY_MODULES = (
    "repro.core.cluster",
    "repro.core.replication",
    "repro.core.server",
)

_STATE_ATTR_MODULES = ("repro.core.server",)

#: The one module that constructs a shard.
_SHARD_OWNER = "repro.core.cluster"


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_is_self(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


@register
class ReplicationBypassChecker(Checker):
    rule = "replication-bypass"
    description = (
        "no direct MergedPostingList mutation or server list-state access "
        "outside the server/replication layers, no "
        "apply_replicated_ops call outside the cluster/replication/server "
        "modules, and no ZerberRServer built outside the cluster"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        mutation_sanctioned = module_matches(ctx.module, _SANCTIONED_MUTATION_MODULES)
        state_sanctioned = module_matches(ctx.module, _STATE_ATTR_MODULES)
        shard_owner = ctx.module == _SHARD_OWNER
        apply_sanctioned = module_matches(ctx.module, _REPLICA_APPLY_MODULES)
        for node in ast.walk(ctx.tree):
            if (
                not shard_owner
                and isinstance(node, ast.Call)
                and _called_name(node) == "ZerberRServer"
            ):
                yield ctx.finding(
                    self.rule,
                    node,
                    "a ZerberRServer built outside repro.core.cluster — a "
                    "shard is built only by ServerCluster; a bare one has no "
                    "log and no write gate (a single server is a one-server "
                    "cluster)",
                )
            elif (
                not mutation_sanctioned
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LIST_MUTATORS
            ):
                yield ctx.finding(
                    self.rule,
                    node,
                    f"direct MergedPostingList.{node.func.attr}() outside the "
                    "storage layers — writes must enter through ServerCluster "
                    "so the ReplicationManager logs them; a bypassed write "
                    "never reaches replicas",
                )
            elif (
                not apply_sanctioned
                and isinstance(node, ast.Call)
                and _called_name(node) == _REPLICA_APPLY
            ):
                yield ctx.finding(
                    self.rule,
                    node,
                    "apply_replicated_ops() outside repro.core.cluster, "
                    "repro.core.replication and repro.core.server — a list "
                    "changes only by ops its replication log recorded, "
                    "applied at the primary by the cluster and at a "
                    "follower by the log's delivery",
                )
            elif (
                not state_sanctioned
                and isinstance(node, ast.Attribute)
                and node.attr == "_lists"
                and not _receiver_is_self(node)
            ):
                yield ctx.finding(
                    self.rule,
                    node,
                    "reaching into a server's private list state (._lists) — "
                    "use the public accessors (visible_group_tags, "
                    "num_elements, fetch) or the replication surface",
                )
