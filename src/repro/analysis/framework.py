"""zlint — AST-based invariant checks for the Zerber+R codebase.

The reproduction's correctness rests on contracts that unit tests cannot
see at every call site: ciphers are singletons owned by the
:class:`~repro.crypto.keys.GroupKeyService` (an ad-hoc one keeps its
memo of decoded postings past a revoke), every list mutation flows through
the replication log (a bypassed write silently diverges replicas),
only the cluster and persist layers read the placement table,
``repro.core`` draws time and randomness only from the tick clock and
seeded generators (crash-point fuzzing replays depend on it), and the
persistence layer never lets a raw ``KeyError`` escape to a caller.

This module is the engine: the :class:`Finding` model, the
:class:`Checker` registry, suppression comments, file walking and the
``zlint`` command line.  The rules themselves live in
:mod:`repro.analysis.checkers`; see ``docs/ANALYSIS.md`` for the catalog.

Suppressions::

    risky_call()  # zlint: disable=crypto-construct  -- why it is safe
    # zlint: disable-file=determinism  -- whole-file opt-out

The framework imports nothing from the rest of ``repro``; the checkers
read the declarations they guard (the consistency enums, the metric
catalog) off the live objects.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "all_checkers",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "call_name",
    "dotted_name",
    "main",
    "module_matches",
    "module_name_for_path",
    "register",
]

REPORT_VERSION = 1

# Rule lists are comma-separated; anything after bare whitespace (e.g. a
# trailing "-- why it is safe" justification) is not part of the list.
_RULE_LIST = r"[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*"
_SUPPRESS_LINE = re.compile(rf"#\s*zlint:\s*disable=({_RULE_LIST})")
_SUPPRESS_FILE = re.compile(rf"#\s*zlint:\s*disable-file=({_RULE_LIST})")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int
    severity: str = "error"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class FileContext:
    """Everything a checker may look at for one file."""

    def __init__(self, path: str, module: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def finding(
        self, rule: str, node: ast.AST, message: str, severity: str = "error"
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=rule,
            message=message,
            path=self.path,
            line=line,
            col=col,
            severity=severity,
        )


class Checker:
    """Base class: subclass, set ``rule``/``description``, yield findings."""

    rule: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.rule:
        raise ValueError(f"checker {cls.__name__} has no rule id")
    _REGISTRY[cls.rule] = cls
    return cls


def all_checkers() -> dict[str, type[Checker]]:
    """The registry, forcing the bundled checker modules to load first."""
    import repro.analysis.checkers  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


# -- shared AST helpers -------------------------------------------------------


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The dotted name a call resolves through, if statically visible."""
    return dotted_name(node.func)


def module_matches(module: str, prefixes: Iterable[str]) -> bool:
    """Whether *module* is one of *prefixes* or nested under one."""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def module_name_for_path(path: Path) -> str:
    """Dotted module name for *path*, anchored at ``src`` (or ``repro``).

    Paths outside any recognizable package root fall back to the bare
    stem, so fixture snippets lint under a neutral module name.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        tail = parts[parts.index("src") + 1 :]
        return ".".join(tail) if tail else path.stem
    if "repro" in parts:
        return ".".join(parts[parts.index("repro") :])
    return parts[-1] if parts else path.stem


# -- suppression comments -----------------------------------------------------


def _parse_rule_list(raw: str) -> set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


def _suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Per-line and file-level suppressed rule ids."""
    per_line: dict[int, set[str]] = {}
    file_level: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        file_match = _SUPPRESS_FILE.search(line)
        if file_match:
            file_level.update(_parse_rule_list(file_match.group(1)))
            continue
        line_match = _SUPPRESS_LINE.search(line)
        if line_match:
            per_line.setdefault(lineno, set()).update(
                _parse_rule_list(line_match.group(1))
            )
    return per_line, file_level


def _suppressed(
    finding: Finding, per_line: dict[int, set[str]], file_level: set[str]
) -> bool:
    if finding.rule in file_level:
        return True
    return finding.rule in per_line.get(finding.line, set())


# -- running ------------------------------------------------------------------


def _resolve_checkers(rules: Sequence[str] | None) -> list[Checker]:
    registry = all_checkers()
    if rules is None:
        selected = sorted(registry)
    else:
        unknown = sorted(set(rules) - set(registry))
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        selected = sorted(set(rules))
    return [registry[rule]() for rule in selected]


def analyze_source(
    source: str,
    *,
    module: str,
    path: str = "<source>",
    rules: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the (selected) checkers over one source string."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Finding(
                rule="syntax-error",
                message=f"file does not parse: {error.msg}",
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
            )
        ]
    ctx = FileContext(path=path, module=module, source=source, tree=tree)
    per_line, file_level = _suppressions(source)
    findings = [
        finding
        for checker in _resolve_checkers(rules)
        for finding in checker.check(ctx)
        if not _suppressed(finding, per_line, file_level)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_file(path: Path, rules: Sequence[str] | None = None) -> list[Finding]:
    """Analyze one ``.py`` file (module name derived from its path)."""
    source = path.read_text(encoding="utf-8", errors="replace")
    return analyze_source(
        source, module=module_name_for_path(path), path=str(path), rules=rules
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic ``.py`` file stream."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def analyze_paths(
    paths: Iterable[Path], rules: Sequence[str] | None = None
) -> tuple[list[Finding], int]:
    """All findings plus the number of files checked."""
    findings: list[Finding] = []
    files_checked = 0
    for file_path in iter_python_files(paths):
        files_checked += 1
        findings.extend(analyze_file(file_path, rules=rules))
    return findings, files_checked


def _report(findings: list[Finding], files_checked: int) -> dict[str, object]:
    return {
        "version": REPORT_VERSION,
        "files_checked": files_checked,
        "findings": [finding.to_dict() for finding in findings],
    }


def main(argv: Sequence[str] | None = None) -> int:
    """``zlint`` entry point: 0 clean, 1 findings, 2 usage error."""
    parser = argparse.ArgumentParser(
        prog="zlint",
        description="AST-based invariant checks for the Zerber+R codebase",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", dest="format"
    )
    parser.add_argument(
        "--rules", default=None, help="comma-separated rule ids to run (default: all)"
    )
    parser.add_argument(
        "--output", default=None, help="also write the JSON report to this file"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, checker in sorted(all_checkers().items()):
            print(f"{rule}: {checker.description}")
        return 0

    rules = sorted(_parse_rule_list(args.rules)) if args.rules else None
    roots = [Path(p) for p in args.paths]
    missing = [str(p) for p in roots if not p.exists()]
    if missing:
        print(f"zlint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        findings, files_checked = analyze_paths(roots, rules=rules)
    except KeyError as error:
        print(f"zlint: {error.args[0]}", file=sys.stderr)
        return 2

    report = _report(findings, files_checked)
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(
            f"zlint: {len(findings)} finding(s) in {files_checked} file(s)",
            file=sys.stderr,
        )
    return 1 if findings else 0
