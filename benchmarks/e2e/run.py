"""One wall-clock benchmark for the whole fetch/write stack.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--quick] [--output PATH] [--trace-dir DIR]

With ``--workload`` it measures that workload in this process and prints,
as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs all four, each in its own fresh subprocess
(isolated heap, per-workload ``peak_rss_mb``), traced, and prints every
metric by name with its unit; ``--output`` stores the full report that
``compare.py`` reads.

Workload subprocesses run with ``PYTHONHASHSEED=0`` so that set iteration
order cannot leak into the counts.  The load is generated by one process
and one thread.  Exit codes: 0 measured and correct, 1 an op failed its
check, 2 cannot run here (no ``repro`` package), 3 a workload-fidelity
guard fired.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SECONDS = 10.0  # BENCHMARK.json's run_seconds
QUICK_PASSES = 2


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workloads; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="smoke configuration on tiny_corpus"
    )
    parser.add_argument("--output", type=Path, help="write the full report here")
    parser.add_argument("--trace-dir", type=Path, help="write trace-<workload>.json here")
    return parser.parse_args(argv)


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONHASHSEED": "0"}


def _forward(args: argparse.Namespace, **overrides: Any) -> list[str]:
    """The command line of a child run.py with *overrides* applied."""
    values = {**vars(args), **overrides}
    command = [sys.executable, str(HERE / "run.py")]
    for flag in ("workload", "seed", "seconds", "trace", "output", "trace_dir"):
        if values[flag] is not None:
            command += [f"--{flag.replace('_', '-')}", str(values[flag])]
    if values["quick"]:
        command.append("--quick")
    return command


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is no repository, and nothing outside it is to be touched)."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = ROOT / ".git" / head[5:]
        return ref.read_text().strip() if ref.is_file() else head[5:]
    except OSError:
        return "unknown"


def _scratch() -> tempfile.TemporaryDirectory[str]:
    """A throw-away directory inside the checkout (``.gitignore`` names it)."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=scratch)


def _environment(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "commit": _commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def _print_report(report: dict[str, Any]) -> None:
    name = report["workload"]
    print(
        f"# {name}: seed {report['seed']}, {report['passes']} passes x "
        f"{report['ops_per_pass']} ops, latency samples/pass "
        f"{report['latency_samples_per_pass']}"
    )
    for section in ("end_to_end", "per_layer"):
        for metric, entry in report[section].items():
            spread = f"  (pass IQR {entry['iqr']:.6g})" if entry.get("iqr") else ""
            print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}{spread}")
    for reason in report["failure_reasons"]:
        print(f"{name}  FAILED OP: {reason}")
    for violation in report["guard_violations"]:
        print(f"{name}  GUARD: {violation}")


def _exit_code(report: dict[str, Any]) -> int:
    if report["guard_violations"] and report["scale"] == "full":
        return 3
    return 1 if report["failed"] else 0


def run_one(args: argparse.Namespace) -> int:
    """Measure ``args.workload`` in this process."""
    if (ROOT / "src" / "repro").is_dir():
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    import metrics as catalog
    from harness import run_workload
    from workloads import FULL, QUICK

    if args.workload not in catalog.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with _scratch() as workdir:
        report = run_workload(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            scale=QUICK if args.quick else FULL,
            workdir=Path(workdir),
            trace_dir=args.trace_dir,
            passes=QUICK_PASSES if args.quick else None,
        )
    report["environment"] = _environment(args)
    _print_report(report)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=1))
    code = _exit_code(report)
    if code == 3:
        print("workload-fidelity guard fired; no result", file=sys.stderr)
        return code
    wanted = catalog.driver_per_layer() if args.trace else catalog.driver_end_to_end()
    measured = {**report["end_to_end"], **report["per_layer"]}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        # A metric the workload has no op for (writes on a read-only
        # workload, the router off the coordinator path) reads 0.
        "metrics": {
            m.name: {"value": measured.get(m.name, {"value": 0.0})["value"], "unit": m.unit}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return code


def run_all(args: argparse.Namespace) -> int:
    """All four workloads, each traced in its own subprocess; merged report."""
    sys.path.insert(0, str(HERE))
    import metrics as catalog

    reports, worst = [], 0
    with _scratch() as workdir:
        for name in catalog.WORKLOADS:
            part = Path(workdir) / f"{name}.json"
            child = subprocess.run(
                _forward(args, workload=name, trace=1, output=part),
                env=_child_env(),
                stdout=subprocess.PIPE,
                text=True,
            )
            # The full report travels through the file; the driver's JSON
            # object (the child's last line) would only repeat it.
            lines = child.stdout.splitlines()
            if lines and lines[-1].startswith('{"correct"'):
                lines.pop()
            print("\n".join(lines))
            worst = max(worst, child.returncode)
            if part.exists():
                reports.append(json.loads(part.read_text()))
    if args.output is not None and reports:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": "zerber-e2e/1",
            "environment": reports[0]["environment"],
            "workloads": {report["workload"]: report for report in reports},
        }
        args.output.write_text(json.dumps(document, indent=1))
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        return subprocess.run(_forward(args), env=_child_env()).returncode
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
