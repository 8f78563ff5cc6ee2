"""Consistency-exhaustiveness rule: dispatch covers every consistency level.

The cluster's read path branches on
:class:`~repro.core.replication.ReadConsistency` (ONE / PRIMARY /
QUORUM) and its write path on
:class:`~repro.core.replication.WriteConsistency` (ONE / QUORUM / ALL).
A new member added to either enum would silently fall through any
``if``/``elif`` chain or ``match`` that neither covers all members nor
carries an explicit default — and a fallen-through level degrades to
whatever the last branch did, which is a *consistency* bug, not a crash.
This rule flags multi-branch dispatches over either enum's members that
lack an ``else``/``case _`` and do not test every member.

The member sets are read off the live enums, so a member added to
either is guarded the moment it exists.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import Checker, FileContext, Finding, register
from repro.core.replication import ReadConsistency, WriteConsistency

#: Guarded enum name -> its member names.
CONSISTENCY_ENUMS = {
    enum.__name__: frozenset(member.name for member in enum)
    for enum in (ReadConsistency, WriteConsistency)
}


def _member_of(expr: ast.expr) -> tuple[str, str] | None:
    """``(Enum, X)`` if *expr* is ``ReadConsistency.X`` or
    ``WriteConsistency.X`` (possibly dotted), else None."""
    if not isinstance(expr, ast.Attribute):
        return None
    base = expr.value
    base_name = base.attr if isinstance(base, ast.Attribute) else (
        base.id if isinstance(base, ast.Name) else None
    )
    if base_name in CONSISTENCY_ENUMS:
        return base_name, expr.attr
    return None


def _test_members(test: ast.expr) -> tuple[str, set[str]] | None:
    """``(enum, members)`` tested by one branch condition, or None if it
    is not a pure single-enum consistency test (``x is Enum.M``, ``==``,
    or an ``or`` of those over one enum)."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        enum: str | None = None
        members: set[str] = set()
        for value in test.values:
            sub = _test_members(value)
            if sub is None or (enum is not None and sub[0] != enum):
                return None
            enum = sub[0]
            members |= sub[1]
        assert enum is not None
        return enum, members
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.Eq))
    ):
        for side in (test.left, test.comparators[0]):
            member = _member_of(side)
            if member is not None:
                return member[0], {member[1]}
    return None


@register
class ConsistencyExhaustivenessChecker(Checker):
    rule = "consistency-exhaustiveness"
    description = (
        "every if/match dispatch over ReadConsistency or WriteConsistency "
        "covers all members or has an explicit default"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        elif_nodes: set[int] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.If)
                and len(node.orelse) == 1
                and isinstance(node.orelse[0], ast.If)
            ):
                elif_nodes.add(id(node.orelse[0]))
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.If) and id(node) not in elif_nodes:
                yield from self._check_chain(ctx, node)
            elif isinstance(node, ast.Match):
                yield from self._check_match(ctx, node)

    def _check_chain(self, ctx: FileContext, node: ast.If) -> Iterator[Finding]:
        enum: str | None = None
        tested: set[str] = set()
        branches = 0
        current: ast.If = node
        while True:
            result = _test_members(current.test)
            if result is None or (enum is not None and result[0] != enum):
                # A non-consistency (or mixed-enum) branch acts as a
                # fallback path.
                return
            enum = result[0]
            tested |= result[1]
            branches += 1
            orelse = current.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                current = orelse[0]
                continue
            has_else = bool(orelse)
            break
        if branches < 2 or has_else:
            return  # single guards and defaulted chains are fine
        missing = CONSISTENCY_ENUMS[enum] - tested
        if missing:
            yield ctx.finding(
                self.rule,
                node,
                f"if/elif over {enum} has no else and does not "
                f"handle {', '.join(sorted(missing))} — a new or unhandled "
                "consistency level silently falls through",
            )

    def _check_match(self, ctx: FileContext, node: ast.Match) -> Iterator[Finding]:
        enum: str | None = None
        tested: set[str] = set()
        for case in node.cases:
            patterns = (
                case.pattern.patterns
                if isinstance(case.pattern, ast.MatchOr)
                else [case.pattern]
            )
            for pattern in patterns:
                if isinstance(pattern, ast.MatchValue):
                    member = _member_of(pattern.value)
                    if member is not None:
                        if enum is not None and member[0] != enum:
                            return  # mixed-enum match: not a pure dispatch
                        enum = member[0]
                        tested.add(member[1])
                elif isinstance(pattern, ast.MatchAs) and pattern.pattern is None:
                    return  # wildcard / capture default: exhaustive
        if enum is None:
            return
        missing = CONSISTENCY_ENUMS[enum] - tested
        if missing:
            yield ctx.finding(
                self.rule,
                node,
                f"match over {enum} has no wildcard case and does "
                f"not handle {', '.join(sorted(missing))} — add the missing "
                "members or a `case _`",
            )
