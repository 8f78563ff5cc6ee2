"""Typed-defs rule: the offline half of the strict ``mypy`` gate.

``mypy.ini`` turns ``disallow_untyped_defs`` and
``disallow_incomplete_defs`` on for the core packages, but the offline
build image ships no mypy, so between CI runs nothing notices a ``def``
that lost an annotation.  This rule checks the part of that gate an AST
can see: inside the strict packages every function — methods, nested
functions and ``async def`` alike — annotates each of its parameters and
its return.  ``self`` / ``cls`` (the first parameter of a method that is
not a ``@staticmethod``) need none; lambdas cannot carry any.  It is a
hair stricter than mypy in one place: ``__init__`` must spell ``-> None``
even when its parameters are annotated.

Whether the annotations are *right* is still mypy's job, in CI.
``STRICT_PACKAGES`` mirrors the strict sections of ``mypy.ini``
(drift-guarded by ``tests/test_analysis_checkers.py``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import (
    Checker,
    FileContext,
    Finding,
    dotted_name,
    module_matches,
    register,
)

#: Packages whose ``mypy.ini`` section sets ``disallow_untyped_defs``.
STRICT_PACKAGES = frozenset(
    {"repro.core", "repro.crypto", "repro.persist", "repro.analysis", "repro.obs"}
)

_Def = ast.FunctionDef | ast.AsyncFunctionDef


def _is_static(node: _Def) -> bool:
    return any(dotted_name(d) == "staticmethod" for d in node.decorator_list)


def _unannotated(node: _Def, is_method: bool) -> list[str]:
    """What *node* leaves untyped: parameter names, then ``"return"``."""
    spec = node.args
    params = [*spec.posonlyargs, *spec.args]
    if is_method and params and not _is_static(node):
        params = params[1:]  # self / cls
    params += [p for p in (spec.vararg, *spec.kwonlyargs, spec.kwarg) if p is not None]
    missing = [p.arg for p in params if p.annotation is None]
    if node.returns is None:
        missing.append("return")
    return missing


@register
class TypedDefsChecker(Checker):
    rule = "typed-defs"
    description = (
        "every def in the strict-mypy packages annotates all parameters and "
        "its return (offline mirror of disallow_untyped/incomplete_defs)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not module_matches(ctx.module, STRICT_PACKAGES):
            return
        methods = {
            id(item)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing = _unannotated(node, id(node) in methods)
            if missing:
                yield ctx.finding(
                    self.rule,
                    node,
                    f"def {node.name}() in {ctx.module} leaves "
                    f"{', '.join(missing)} unannotated — the strict mypy gate "
                    "(mypy.ini) requires fully typed defs in this package",
                )
