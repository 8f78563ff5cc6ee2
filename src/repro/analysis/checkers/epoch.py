"""Epoch-discipline rule: routed batches and placement reads thread an epoch.

The contract: a :class:`~repro.core.protocol.BatchFetchRequest`
that ``repro.core.router`` builds — the one layer that routes a batch
before it is served — is routed against one placement epoch and must
carry it, so :meth:`~repro.core.cluster.ServerCluster.serve_envelope` can
reject an envelope built before a failover election instead of serving it
from a deposed primary.  The field defaults to ``None`` ("unrouted"), as
a client's own round is, which makes it easy to *forget* in the router —
this rule flags any construction there that omits ``epoch=`` or pins the
literal ``None``, and any read of a cluster's private ``._placement``
table outside the cluster/persist layers (the public
``placement_table()``/``replicas_of()`` accessors are epoch-consistent).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import (
    Checker,
    FileContext,
    Finding,
    call_name,
    module_matches,
    register,
)

_ROUTED_TYPE = "BatchFetchRequest"

_ROUTING_MODULE = ("repro.core.router",)
_PLACEMENT_MODULES = ("repro.core.cluster", "repro.persist")


@register
class EpochDisciplineChecker(Checker):
    rule = "epoch-discipline"
    description = (
        "batches the router builds must thread epoch=; no direct "
        "placement-table reads outside the cluster/persist layers"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        envelope_scope = module_matches(ctx.module, _ROUTING_MODULE)
        placement_scope = not module_matches(ctx.module, _PLACEMENT_MODULES)
        for node in ast.walk(ctx.tree):
            if envelope_scope and isinstance(node, ast.Call):
                name = call_name(node)
                if name is None:
                    continue
                terminal = name.rsplit(".", 1)[-1]
                if terminal != _ROUTED_TYPE:
                    continue
                keywords = {kw.arg: kw.value for kw in node.keywords}
                has_splat = any(kw.arg is None for kw in node.keywords)
                if "epoch" not in keywords and not has_splat:
                    yield ctx.finding(
                        self.rule,
                        node,
                        f"{terminal}(...) constructed without epoch= — an "
                        "unpinned envelope can be served across a failover "
                        "election from a stale shard map; thread the routing epoch "
                        "(cluster.placement_epoch)",
                    )
                else:
                    epoch = keywords.get("epoch")
                    if isinstance(epoch, ast.Constant) and epoch.value is None:
                        yield ctx.finding(
                            self.rule,
                            node,
                            f"{terminal}(...) pins epoch=None — pass the "
                            "placement epoch the envelope was routed under",
                        )
            elif (
                placement_scope
                and isinstance(node, ast.Attribute)
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
