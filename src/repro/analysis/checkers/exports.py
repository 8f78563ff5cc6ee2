"""Export-sanity rule: ``__all__`` is complete and every name resolves.

The package ``__init__`` modules are the public API contract; tests and
benchmarks import through them.  Two failure modes accumulate silently:
an ``__all__`` entry whose binding was renamed away (``from repro import
*`` then raises ``AttributeError``), and a re-export import that never
made it into ``__all__`` (the name works today but is not part of the
contract, so a cleanup pass deletes it and downstream code breaks).

For any module that declares a literal ``__all__``: every listed name
must be bound at top level, and every top-level ``from X import Y`` whose
name is neither used in the module body nor exported is flagged — it
exists only as an accidental re-export.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import Checker, FileContext, Finding, register


def literal_all(tree: ast.Module) -> tuple[ast.stmt, list[str]] | None:
    """The ``__all__ = [...]`` statement and its strings, if literal."""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in value.elts
        ):
            return stmt, [e.value for e in value.elts]  # type: ignore[union-attr]
        return None  # computed __all__: not checkable
    return None


def _top_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module body plus one level of top-level ``if`` (TYPE_CHECKING etc.)."""
    for stmt in tree.body:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from stmt.body
            yield from stmt.orelse


@register
class ExportSanityChecker(Checker):
    rule = "export-sanity"
    description = (
        "__all__ names resolve to bindings; re-export imports appear in "
        "__all__"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        found = literal_all(ctx.tree)
        if found is None:
            return
        all_stmt, exported = found
        bound: set[str] = set()
        star_import = False
        reexport_candidates: list[tuple[ast.stmt, str]] = []
        for stmt in _top_level_statements(ctx.tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        star_import = True
                        continue
                    name = alias.asname or alias.name
                    bound.add(name)
                    if stmt.module != "__future__" and not name.startswith("_"):
                        reexport_candidates.append((stmt, name))
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(stmt.name)

        if not star_import:
            for name in exported:
                if name not in bound:
                    yield ctx.finding(
                        self.rule,
                        all_stmt,
                        f"__all__ exports {name!r} but the module does not "
                        "bind it — `from ... import *` would raise",
                    )

        used = {n.id for n in ast.walk(ctx.tree) if isinstance(n, ast.Name)}
        exported_set = set(exported)
        for stmt, name in reexport_candidates:
            if name not in exported_set and name not in used:
                yield ctx.finding(
                    self.rule,
                    stmt,
                    f"{name!r} is imported but neither used nor listed in "
                    "__all__ — an accidental re-export; export it or drop "
                    "the import",
                )
