"""Crypto-misuse rules: construction discipline and key-material leaks.

The :class:`~repro.crypto.keys.GroupKeyService` is the one cache of
:class:`~repro.crypto.cipher.StreamCipher` objects, one per (principal,
group), and it drops a cipher — with its memo of decoded postings — the
moment the membership behind it is revoked.  A cipher built ad hoc over
a group key would keep its own memo past that revoke and go on serving
decoded postings to a principal who may no longer read them.
``crypto-construct`` therefore bans direct cipher construction and raw
``hmac``/``hashlib`` calls outside ``repro.crypto`` (the
``Prf``/``derive_key`` surface stays public — it is stateless, so
duplicating it is safe).

``crypto-key-leak`` guards the other failure mode: key bytes reaching an
f-string, ``print`` or logger call.  The untrusted-host model collapses
if a key ever lands in server-side logs or reprs.
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

_SANCTIONED_MODULES = ("repro.crypto",)

#: Stateful constructions the key service must own (a memo outliving a revoke).
_STATEFUL_CONSTRUCTORS = frozenset({"StreamCipher"})

_RAW_HASH_PREFIXES = ("hmac.", "hashlib.")


@register
class CryptoConstructChecker(Checker):
    rule = "crypto-construct"
    description = (
        "no StreamCipher or raw hmac/hashlib construction outside "
        "repro.crypto (a memo that outlives a revoke)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if module_matches(ctx.module, _SANCTIONED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            terminal = name.rsplit(".", 1)[-1]
            if terminal in _STATEFUL_CONSTRUCTORS:
                yield ctx.finding(
                    self.rule,
                    node,
                    f"direct {terminal}() construction outside repro.crypto — "
                    "obtain ciphers from GroupKeyService; an ad-hoc cipher "
                    "keeps its own memo of decoded postings past a revoke",
                )
            elif name.startswith(_RAW_HASH_PREFIXES):
                yield ctx.finding(
                    self.rule,
                    node,
                    f"raw {name}() call outside repro.crypto — use the "
                    "Prf/derive_key surface so key separation stays auditable",
                )


#: Identifiers that plausibly bind key material.
_KEYISH_EXACT = frozenset(
    {
        "key",
        "master_key",
        "master_secret",
        "secret",
        "secret_key",
        "group_key",
        "subkey",
        "keystream",
    }
)
_KEYISH_SUFFIXES = ("_key", "_secret")

#: Common non-cryptographic names the suffix heuristic would catch.
_KEYISH_EXEMPT = frozenset({"cache_key", "sort_key", "dispatch_key", "dedup_key"})

_LOGGER_BASES = frozenset({"logging", "logger", "log", "_logger", "_log"})
_LOGGER_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)


def _keyish(identifier: str) -> bool:
    if identifier in _KEYISH_EXEMPT:
        return False
    name = identifier.lstrip("_")
    if name in _KEYISH_EXACT:
        return True
    return any(name.endswith(suffix) and name != suffix for suffix in _KEYISH_SUFFIXES)


def _keyish_refs(expr: ast.expr, prune_fstrings: bool = False) -> Iterator[tuple[ast.AST, str]]:
    """Key-ish Name/Attribute references inside *expr*.

    With *prune_fstrings* nested JoinedStr subtrees are skipped — the
    f-string pass reports those, so a ``print(f"...")`` is not doubled.
    """
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if prune_fstrings and isinstance(node, ast.JoinedStr):
            continue
        if isinstance(node, ast.Name) and _keyish(node.id):
            yield node, node.id
        elif isinstance(node, ast.Attribute) and _keyish(node.attr):
            yield node, node.attr
        stack.extend(ast.iter_child_nodes(node))


def _is_logging_sink(name: str) -> bool:
    if name in ("print", "repr"):
        return True
    if "." in name:
        base, _, method = name.rpartition(".")
        return base.rsplit(".", 1)[-1] in _LOGGER_BASES and method in _LOGGER_METHODS
    return False


@register
class CryptoKeyLeakChecker(Checker):
    rule = "crypto-key-leak"
    description = "no key material in f-strings, print or logging calls"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.JoinedStr):
                for value in node.values:
                    if not isinstance(value, ast.FormattedValue):
                        continue
                    for ref, identifier in _keyish_refs(value.value):
                        yield ctx.finding(
                            self.rule,
                            ref,
                            f"possible key material {identifier!r} interpolated "
                            "into an f-string — key bytes must never reach "
                            "logs, messages or reprs",
                        )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name is None or not _is_logging_sink(name):
                    continue
                sink_args: list[ast.expr] = list(node.args)
                sink_args.extend(kw.value for kw in node.keywords)
                for arg in sink_args:
                    for ref, identifier in _keyish_refs(arg, prune_fstrings=True):
                        yield ctx.finding(
                            self.rule,
                            ref,
                            f"possible key material {identifier!r} passed to "
                            f"{name}() — key bytes must never reach logs or "
                            "console output",
                        )
