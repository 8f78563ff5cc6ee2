"""Replication-bypass rule: all list mutations flow through the log.

PR 4's contract: a :class:`~repro.core.server.ZerberRServer` write is only
durable-and-replicated when it enters through the server's public
mutators, because those are what the
:class:`~repro.core.replication.ReplicationManager` records.  Calling a
:class:`~repro.index.postings.MergedPostingList` mutator directly — or
reaching into ``server._lists`` from outside the server/persist layers —
produces a write that no replica ever sees and no snapshot can account
for: replicas diverge silently and read-repair cannot converge them.

Sanctioned modules are the storage/replication layers themselves, the
persistence codecs (restore is by definition not a replicated write), the
cluster (which routes every write through the log) and the
non-replicated baselines, which own private list state of the same shape.
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
    "repro.persist",
    "repro.baselines",
)

#: MergedPostingList-level mutators: distinctive names, safe to match on.
_LIST_MUTATORS = frozenset(
    {
        "add_sorted_by_trs",
        "add_random",
        "bulk_load_sorted_by_trs",
        "pop_at",
    }
)

_STATE_ATTR_MODULES = ("repro.core.server", "repro.persist")


def _receiver_is_self(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


@register
class ReplicationBypassChecker(Checker):
    rule = "replication-bypass"
    description = (
        "no direct MergedPostingList mutation or server list-state access "
        "outside the server/replication/persist layers"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        mutation_sanctioned = module_matches(ctx.module, _SANCTIONED_MUTATION_MODULES)
        state_sanctioned = module_matches(ctx.module, _STATE_ATTR_MODULES)
        for node in ast.walk(ctx.tree):
            if (
                not mutation_sanctioned
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LIST_MUTATORS
            ):
                yield ctx.finding(
                    self.rule,
                    node,
                    f"direct MergedPostingList.{node.func.attr}() outside the "
                    "storage layers — writes must enter through ZerberRServer "
                    "so the ReplicationManager logs them; a bypassed write "
                    "never reaches replicas",
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
