"""Obs-discipline rule: telemetry flows only through ``repro.obs``.

The telemetry subsystem (PR 9) makes three promises that hold only if
every call site cooperates.  First, trace spans are balanced: a span
closes when its ``with`` block exits, even on exception — so
:meth:`Tracer.span` must ONLY be used as a ``with`` context expression
(``begin_trace`` / ``end_trace`` are the one sanctioned non-context
pair, for session roots that outlive a call frame).  Second, the metric
namespace is closed: instruments are created from the literal names in
:data:`repro.obs.registry.METRIC_CATALOG`, never ad hoc — ``repro.core``
never creates instruments at all (it holds bundles from
``repro.obs.instruments``), and everywhere else, ``repro.obs``
included, a metric name is a literal from the catalog.  Third, there
is no side-channel telemetry: ``print()`` in ``repro.core`` is banned
outright.

The catalog names are read off the live catalog
(:data:`repro.obs.registry.CATALOG_BY_NAME`), so a metric declared there
is accepted the moment it exists.
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
from repro.obs.registry import CATALOG_BY_NAME

#: Modules where instrument *creation* is banned outright.
_CORE_SCOPE = ("repro.core",)

#: Modules where metric names must be literals from the catalog.
_CATALOG_SCOPE = ("repro",)

_INSTRUMENT_FACTORIES = frozenset({"counter", "gauge", "histogram"})

def _is_span_call(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr == "span"


def _instrument_factory(node: ast.Call) -> str | None:
    """``counter``/``gauge``/``histogram`` if *node* calls one, else None.

    Only attribute calls count (``registry.counter(...)``); a bare local
    function that happens to share the name is not instrument creation.
    """
    if isinstance(node.func, ast.Attribute) and node.func.attr in _INSTRUMENT_FACTORIES:
        return node.func.attr
    return None


@register
class ObsDisciplineChecker(Checker):
    rule = "obs-discipline"
    description = (
        "spans only via `with tracer.span(...)`, metric names only from "
        "the registered catalog, no print() telemetry in repro.core"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_core = module_matches(ctx.module, _CORE_SCOPE)
        check_names = module_matches(ctx.module, _CATALOG_SCOPE) and not in_core
        if not (in_core or check_names):
            return

        # Span calls that appear as a `with` item context expression are
        # the sanctioned form; collect them first so the walk below can
        # flag every other `.span(` call.
        with_spans: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        with_spans.add(id(item.context_expr))

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if in_core:
                name = call_name(node)
                if name == "print":
                    yield ctx.finding(
                        self.rule,
                        node,
                        "print() in repro.core — telemetry goes through the "
                        "metrics registry or tracer, not stdout",
                    )
                if _is_span_call(node) and id(node) not in with_spans:
                    yield ctx.finding(
                        self.rule,
                        node,
                        ".span(...) outside a `with` statement in repro.core — "
                        "spans must be context-managed so they close on "
                        "exception (begin_trace/end_trace are the only "
                        "sanctioned non-context pair)",
                    )
                factory = _instrument_factory(node)
                if factory is not None:
                    yield ctx.finding(
                        self.rule,
                        node,
                        f".{factory}(...) in repro.core — the core never "
                        "creates instruments; hold a bundle from "
                        "repro.obs.instruments instead",
                    )
            elif check_names:
                factory = _instrument_factory(node)
                if factory is None:
                    continue
                first = node.args[0] if node.args else None
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    if first.value not in CATALOG_BY_NAME:
                        yield ctx.finding(
                            self.rule,
                            node,
                            f"metric {first.value!r} is not in METRIC_CATALOG — "
                            "declare it in repro.obs.registry first",
                        )
                else:
                    yield ctx.finding(
                        self.rule,
                        node,
                        f".{factory}(...) with a non-literal metric name — "
                        "metric names must be catalog literals so this rule "
                        "can check them",
                    )
