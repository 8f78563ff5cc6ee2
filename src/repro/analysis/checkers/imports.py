"""Unused-import rule: every name an import binds is read somewhere.

An import nobody reads is a dependency nobody needs: it slows the import
of the module, hides which modules really depend on which, and survives
every refactor that removed its last user, because nothing fails.
``export-sanity`` already catches an unexported re-export in a module
with a literal ``__all__``; this rule covers every module, test files
included, and every import, at any depth.

A name counts as read when it appears as a ``Name`` anywhere in the file
(an attribute chain ``a.b.c`` reads ``a``), or inside a string that
parses as an expression — a quoted annotation such as
``"Callable[[bytes], PostingElement]"`` reads ``Callable`` and
``PostingElement``.  Exempt are ``from __future__`` imports, star
imports, names listed in a literal ``__all__``, and any import statement
with a ``# noqa: F401`` comment on one of its lines (an import kept for
its side effect, such as registering checkers).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.checkers.exports import literal_all
from repro.analysis.framework import Checker, FileContext, Finding, register

_NOQA = "noqa: F401"


def _bound(alias: ast.alias, from_import: bool) -> str:
    """The name an import alias binds: ``import a.b`` binds ``a``."""
    if alias.asname:
        return alias.asname
    return alias.name if from_import else alias.name.split(".")[0]


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


@register
class UnusedImportChecker(Checker):
    rule = "unused-import"
    description = "every imported name is read, exported or marked noqa: F401"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        lines = ctx.source.splitlines()
        found = literal_all(ctx.tree)
        exempt = set(found[1]) if found else set()
        read = _read_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                from_import = True
            elif isinstance(node, ast.Import):
                from_import = False
            else:
                continue
            span = lines[node.lineno - 1 : (node.end_lineno or node.lineno)]
            if any(_NOQA in line for line in span):
                continue
            for alias in node.names:
                name = _bound(alias, from_import)
                if alias.name == "*" or name in exempt or name in read:
                    continue
                yield ctx.finding(
                    self.rule,
                    node,
                    f"{name!r} is imported but never read — drop the import, "
                    "or mark a side-effect import `# noqa: F401`",
                )
