"""Epoch-discipline rule: the placement table has one owner.

The contract: a cluster's placement table — which servers hold which
list, reordered only by a failover election, which bumps the placement
epoch — is read through the public ``placement_table()`` /
``replicas_of()`` accessors everywhere but the cluster and persist layers
that own it.  A batch carries no epoch: it is routed and served inside one
:meth:`~repro.core.cluster.ServerCluster.batch_fetch` call, so the only
way to act on a stale placement is to keep a private copy of the table,
and this rule flags any read of a cluster's private ``._placement``
attribute outside ``repro.core.cluster`` and ``repro.persist``.
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

_PLACEMENT_MODULES = ("repro.core.cluster", "repro.persist")


@register
class EpochDisciplineChecker(Checker):
    rule = "epoch-discipline"
    description = (
        "no direct placement-table reads outside the cluster/persist layers"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if module_matches(ctx.module, _PLACEMENT_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "_placement"
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                yield ctx.finding(
                    self.rule,
                    node,
                    "direct read of a cluster's private placement table — use "
                    "placement_table()/replicas_of(), which are consistent "
                    "with placement_epoch",
                )
