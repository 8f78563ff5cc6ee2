"""Reachability census: which ``src/repro`` defs a non-test user runs.

    python3 tools/reach.py [--check]

Each top-level function and method under ``src/repro`` is *used*,
*test-only* or *unreached*, as a profile hook in every process records.
A test-only def needs a ``ROWS`` reason or an e2e ``TARGETS`` row;
``--check`` exits 1 on one without, on a stale row and on an unreached
def.  The defs are parsed before the runs, and a source file that
changes during them fails the census ("rerun") instead of leaving its
defs unmatched.  See "Reachability census" in docs/ANALYSIS.md.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TARGETS_FILE = ROOT / "benchmarks" / "e2e" / "tracing.py"
REASON = re.compile(r"fault|reference|observer|item \d+( \([a-z]\))?")

HOOK = """\
import atexit, os, sys, threading, time
_prefix, _out, _seen = os.environ["REACH_SRC"], os.environ["REACH_OUT"], {}
def _hook(frame, event, arg):
    if event == "call" and id(frame.f_code) not in _seen:
        _seen[id(frame.f_code)] = frame.f_code
@atexit.register
def _dump():
    sys.setprofile(None)  # the comprehension below must not add to _seen
    hits = {f"{c.co_filename}:{c.co_firstlineno}" for c in _seen.values()}
    # pid and clock: a later process may reuse an earlier one's pid
    name = f"{os.getpid()}-{time.monotonic_ns()}.hits"
    with open(os.path.join(_out, name), "w") as handle:
        handle.write("\\n".join(h for h in hits if h.startswith(_prefix)))
sys.setprofile(_hook)
threading.setprofile(_hook)
"""

# One reason per test-only def; a module or package row covers every
# test-only def in it.  Item 3 is the attacks' bench, item 2 the priced
# coordinator comparison, item 8 (c) Figs. 12/13 on the closed forms.
ROWS = {
    "repro.errors": "fault",
    "repro.analysis.framework:FileContext.finding": "fault",
    "repro.analysis.framework:Finding.render": "fault",
    "repro.analysis.framework:Finding.to_dict": "fault",
    "repro.analysis.framework:_suppressed": "fault",
    "repro.analysis.checkers.consistency:ConsistencyExhaustivenessChecker._check_match": "fault",
    "repro.core.client:ZerberRClient._failover_retry_budget": "fault",
    "repro.core.cluster:ServerCluster._quorum_refusal": "fault",
    "repro.core.cluster:ServerCluster._ensure_primary_current": "fault",
    "repro.core.replication:ReplicationLog._truncated": "fault",
    "repro.core.cluster:ServerCluster.pause_follower": "fault",
    "repro.core.cluster:ServerCluster.resume_follower": "fault",
    "repro.evalmetrics.retrieval:kendall_tau": "reference",
    "repro.core.client:MultiQueryResult.doc_ids": "observer",
    "repro.core.client:ZerberRClient.version_floor": "observer",
    "repro.core.cluster:ServerCluster.applied_version": "observer",
    "repro.core.cluster:ServerCluster.list_length": "observer",
    "repro.core.cluster:ServerCluster.visible_fraction": "observer",
    "repro.core.ordstat:OrderStatList.__getitem__": "observer",
    "repro.core.ordstat:OrderStatList.__iter__": "observer",
    "repro.core.protocol:BatchFetchResponse.__iter__": "observer",
    "repro.core.protocol:BatchFetchResponse.__len__": "observer",
    "repro.core.protocol:FetchResponse.__len__": "observer",
    "repro.core.replication:ReplicationManager.outstanding_deliveries": "observer",
    "repro.core.router:Coordinator.cluster": "observer",
    "repro.core.router:Coordinator.now": "observer",
    "repro.core.router:CoordinatorStats.slices_shared": "observer",
    "repro.core.views:ReadableViewIndex.__len__": "observer",
    "repro.core.views:ReadableViewIndex.get": "observer",
    "repro.crypto.keys:GroupKeyService.groups": "observer",
    "repro.index.postings:MergedPostingList.keys_in_sync": "observer",
    "repro.obs.metrics:Counter.total": "observer",
    "repro.obs.metrics:Counter.value": "observer",
    "repro.obs.metrics:Gauge.value": "observer",
    "repro.obs.metrics:Histogram.bucket_counts": "observer",
    "repro.obs.metrics:Histogram.count": "observer",
    "repro.obs.metrics:Histogram.mean": "observer",
    "repro.obs.metrics:Histogram.sum": "observer",
    "repro.obs.registry:MetricsRegistry.get": "observer",
    "repro.obs.trace:Span.closed": "observer",
    "repro.obs.trace:Span.duration_ticks": "observer",
    "repro.obs.trace:Span.walk": "observer",
    "repro.obs.trace:Trace.spans": "observer",
    "repro.obs.trace:Tracer.active_trace_ids": "observer",
    "repro.obs.trace:Tracer.last_trace": "observer",
    "repro.obs.trace:Tracer.open_spans": "observer",
    "repro.attacks": "item 3",
    "repro.core.router:Coordinator.run_queries": "item 2",
    "repro.core.router:Coordinator.evict": "item 2",
    "repro.core.router:Coordinator.active_sessions": "item 2",
    "repro.evalmetrics.workload": "item 8 (c)",
    "repro.index.merge:MergePlan.terms_of": "item 8 (c)",
}


# Every CLI command in every ``--format``; a line reads what those before it wrote.
CLI = [
    "build --input {docs} --output {index}",
    "info --index {index}",
    "query --index {index} --term reactor --k 3",
    "snapshot --input {docs} --output {snap} --lag 1",
    "restore --snapshot {snap} --converge --term reactor",
    "info --index {snap}",
    "cluster-status --snapshot {snap}",
    "metrics --format json", "metrics --format text",
    "trace --format json", "trace --format text",
    "lint src --format human", "lint src --format json",
]


def cli_argv(line: str, work: Path) -> list[str]:
    """A ``CLI`` line as argv, over two documents it writes under *work*."""
    docs = work / "docs"
    (docs / "sub").mkdir(parents=True, exist_ok=True)
    (docs / "reactor.txt").write_text("reactor calibration reactor dosing")
    (docs / "sub" / "camera.txt").write_text("reactor defect camera calibration")
    paths = {"docs": docs, "index": work / "index.json", "snap": work / "snap.json"}
    return [arg.format(**paths) for arg in line.split()]


def user_commands(work: Path) -> list[list[str]]:
    """The non-test users of ``src/repro``, ``CLI`` included."""
    python, bench = sys.executable, ROOT / "benchmarks"
    figures = sorted(str(p) for p in bench.glob("bench_*.py"))
    return [
        *([python, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))),
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", *figures],
        [python, str(bench / "e2e" / "run.py"), "--quick"],
        [python, "-m", "repro.analysis", "src"],
        *([python, "-m", "repro.cli", *cli_argv(line, work)] for line in CLI),
    ]


def record(commands: list[list[str]], out: Path, src: Path, cwd: Path = ROOT) -> set[str]:
    """Run *commands* under the hook; the ``file:line`` of every code object
    under *src* they entered.  A command that fails prints its output and
    fails the census."""
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as hookdir:
        (Path(hookdir) / "sitecustomize.py").write_text(HOOK)
        path = [hookdir, str(src), str(cwd), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        env.update(REACH_SRC=str(src), REACH_OUT=str(out))
        for command in commands:
            done = subprocess.run(
                command, cwd=cwd, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            if done.returncode != 0:
                sys.stdout.write(done.stdout)
                raise RuntimeError(f"exit {done.returncode}: {' '.join(command)}")
    return {line for f in out.glob("*.hits") for line in f.read_text().splitlines() if line}


def sources(src: Path) -> dict[Path, bytes]:
    """Every ``.py`` file under *src* with its bytes."""
    return {path: path.read_bytes() for path in src.rglob("*.py")}


def check_unchanged(src: Path, before: dict[Path, bytes]) -> None:
    """Raise ``RuntimeError`` naming the first file under *src* whose bytes
    differ from *before*: hits recorded while it changed name line numbers
    its parsed defs no longer have."""
    after = sources(src)
    for path in sorted(before.keys() | after.keys()):
        if before.get(path) != after.get(path):
            raise RuntimeError(f"{path} changed during the census; rerun")


@dataclass(frozen=True)
class Def:
    key: str  # "repro.core.server:ZerberRServer.fetch"
    site: str  # "<file>:<first line>", decorators included, as a code object names it
    lines: int


def _counted(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    names = {ast.unparse(d).rsplit(".", 1)[-1] for d in node.decorator_list}
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    stub = len(body) == 1 and isinstance(body[0], ast.Raise) and body[0].exc is not None
    return "overload" not in names and not (stub and "NotImplementedError" in ast.unparse(body[0]))


def defs(src: Path) -> list[Def]:
    """Every counted top-level function and method under *src*."""
    found = []
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef):
                members = [("", node)]
            elif any(ast.unparse(base).endswith("Protocol") for base in node.bases):
                continue
            else:
                members = [(f"{node.name}.", item) for item in node.body]
            for prefix, item in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _counted(item):
                    first = min([item.lineno, *(d.lineno for d in item.decorator_list)])
                    lines = item.end_lineno - first + 1  # type: ignore[operator]
                    found.append(Def(f"{module}:{prefix}{item.name}", f"{path}:{first}", lines))
    return found


def pinned(defs_: list[Def], targets_file: Path = TARGETS_FILE) -> set[str]:
    """The defs the e2e harness's ``TARGETS`` wrap, re-exports included."""
    tree = ast.parse(targets_file.read_text())
    node = next(
        n for n in tree.body
        if isinstance(n, ast.AnnAssign) and ast.unparse(n.target) == "TARGETS"
    )
    wanted = {
        (module, f":{owner}.{attr}" if owner else f":{attr}")
        for _, module, owner, attr in ast.literal_eval(node.value)  # type: ignore[arg-type]
    }
    return {d.key for d in defs_ for m, q in wanted if d.key.startswith(m) and d.key.endswith(q)}


def row_for(key: str, rows: dict[str, str]) -> str | None:
    """The row that covers *key*: its own, else its module's or package's."""
    while key and key not in rows:
        key = key.rpartition(":" if ":" in key else ".")[0]
    return key or None


def classify(
    defs_: list[Def], used: set[str], tested: set[str], rows: dict[str, str], pins: set[str]
) -> tuple[dict[str, list[tuple[Def, str]]], list[str]]:
    """``(classes, problems)``: each def under ``used`` / ``test-only`` /
    ``unreached`` with its reason, and what ``--check`` fails on."""
    classes: dict[str, list[tuple[Def, str]]] = {"used": [], "test-only": [], "unreached": []}
    problems, covering = [], set()
    for d in defs_:
        if d.site in used:
            classes["used"].append((d, ""))
            continue
        row = row_for(d.key, rows)
        covering.add(row)
        reason = "pinned" if d.key in pins else rows[row] if row else ""
        if d.site in tested:
            classes["test-only"].append((d, reason))
            if not reason:
                problems.append(f"no row: {d.key} ({d.lines} lines) is reached only by tests")
        else:
            classes["unreached"].append((d, reason))
            problems.append(f"unreached: {d.key} ({d.lines} lines)")
    # A row whose def is used or gone covers nothing.  (Each reason is
    # checked against ``REASON`` by tier-1, which the census runs.)
    stale = [name for name in rows if name not in covering]
    problems += [f"stale row: {name} covers no test-only def" for name in stale]
    return classes, problems


def report(classes: dict[str, list[tuple[Def, str]]]) -> None:
    for kind in ("test-only", "unreached"):
        for d, reason in sorted(classes[kind], key=lambda item: item[0].key):
            print(f"{kind:<10} {reason or '-':<11} {d.lines:>4}  {d.key}")
    for kind, members in classes.items():
        by_reason: dict[str, list[int]] = {}
        for d, reason in members:
            by_reason.setdefault(reason or "-", []).append(d.lines)
        detail = ", ".join(f"{r} {len(v)}/{sum(v)}" for r, v in sorted(by_reason.items()))
        print(f"{kind}: {len(members)} defs, {sum(d.lines for d, _ in members)} lines ({detail})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 on a census problem")
    args = parser.parse_args(argv)
    tier1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    source, all_defs = sources(SRC), defs(SRC)
    with tempfile.TemporaryDirectory() as scratch:
        try:
            used = record(user_commands(Path(scratch)), Path(scratch, "users"), SRC)
            tested = record([tier1], Path(scratch, "tests"), SRC)
            check_unchanged(SRC, source)
        except RuntimeError as error:
            print(f"census failed: {error}")
            return 1
    classes, problems = classify(all_defs, used, tested, ROWS, pinned(all_defs))
    report(classes)
    sys.stdout.writelines(f"{problem}\n" for problem in problems)
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    sys.exit(main())
