"""The exact-count gate of the e2e benchmark.

    python3 tools/bench_counts.py --check BENCH_e2e.json
    python3 tools/bench_counts.py --update BENCH_e2e.json

Runs every workload of the committed record once at the record's count
seed, on the full corpus (the smoke corpus for a ``--quick`` record), with
``benchmarks/e2e/run.py --workload W --seed S --seconds 0 --trace 1 --output
...`` (the minimum number of passes, traced: only a traced report carries
the tracer's call counts; ten-odd seconds each), and compares the
machine-independent half of the report with the record's ``counts``
section *exactly*:

* ``requests_per_query``, ``elements_per_query``, ``bytes_per_query`` —
  the paper's cost units (Figs. 11–13);
* ``replication.ops_logged_per_write``, ``views.full_builds_per_op`` and
  ``router.coalesce_ratio`` — what the write path logs, what the read
  path rebuilds and how much the coordinator coalesces;
* ``router.server_calls_per_query`` and ``cluster.server_calls_per_op``
  — the shard-server calls a coordinator query and any op cost;
* ``router.ticks_per_query`` — the flushes per coordinator query, which
  pins the coordinator's same-tick schedule;
* ``index.decode_calls_per_op`` — the posting decodes a query or write
  costs (the tracer's ``PostingElement.from_bytes`` span count), which
  pins how much of a skim is verified and decoded.

They are pure functions of corpus, seeds and tape — no clock, no machine,
no hash seed — so any difference is a change in behaviour, and ``--check``
exits 1 on it.  ``--check`` also exits 1 on a stale record: a ``workloads``
median of a paper unit (requests, elements or bytes per query) more than
5 % away from the same record's ``counts``, i.e. timed medians recorded
on a tree whose counts have since moved.  A change that means to move a count says so and refreshes
the section with ``--update`` (timed metrics stay in the record as
``tools/bench_pairs.py --record`` wrote them).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"

# (report section, metric): the counts the gate compares exactly.
COUNT_METRICS: tuple[tuple[str, str], ...] = (
    ("end_to_end", "requests_per_query"),
    ("end_to_end", "elements_per_query"),
    ("end_to_end", "bytes_per_query"),
    ("per_layer", "replication.ops_logged_per_write"),
    ("per_layer", "views.full_builds_per_op"),
    ("per_layer", "router.coalesce_ratio"),
    ("per_layer", "router.server_calls_per_query"),
    ("per_layer", "cluster.server_calls_per_op"),
    ("per_layer", "router.ticks_per_query"),
    # Reads 0.0 on mixed-write-read, rightly: the traced pass replays the
    # tape of the passes before it, and SIV seals each re-indexed clone to
    # the bytes those passes memoised.  Counted in one traced pass at seed
    # 1: the memo answers all 25 158 reader skims, 714 of them of elements
    # the pass itself wrote; 531 of the 7 582 ciphertexts it writes (7.0 %)
    # are in a reader's memo before the write.  So it pins direct-cold.
    ("per_layer", "index.decode_calls_per_op"),
)


# The paper's units, whose timed-run medians must match the counts.
PAPER_UNITS = ("requests_per_query", "elements_per_query", "bytes_per_query")
STALE_SHARE = 0.05  # a median this far off its own record's count is stale


def counts_of(report: dict[str, Any]) -> dict[str, float]:
    """The gated counts of one workload report written by ``run.py``."""
    return {metric: report[section][metric]["value"] for section, metric in COUNT_METRICS}


def measure(workload: str, seed: int, quick: bool, workdir: Path) -> dict[str, float]:
    """One traced ``--seconds 0`` run of *workload* at *seed*; its gated counts."""
    output = workdir / f"{workload}.json"
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", "0", "--trace", "1", "--output", str(output)]
    command += ["--quick"] * quick
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if done.returncode != 0 or not output.exists():
        raise RuntimeError(f"{workload}: run.py exited with {done.returncode}")
    return counts_of(json.loads(output.read_text()))


def differences(recorded: dict[str, float], measured: dict[str, float]) -> list[str]:
    """One line per gated metric whose measured value is not the recorded one."""
    return [
        f"{metric}: recorded {recorded.get(metric)!r}, measured {measured[metric]!r}"
        for _, metric in COUNT_METRICS
        if recorded.get(metric) != measured[metric]
    ]


def stale_medians(record: dict[str, Any]) -> list[str]:
    """One line per ``workloads`` median of a paper unit more than
    :data:`STALE_SHARE` away from the record's own count of it."""
    lines = []
    for workload, counts in record["counts"]["workloads"].items():
        medians = record["workloads"].get(workload, {}).get("end_to_end", {})
        for metric in PAPER_UNITS:
            median = medians.get(metric, {}).get("median")
            if median is None or abs(median - counts[metric]) > STALE_SHARE * counts[metric]:
                lines.append(f"{workload}: {metric} median {median!r}, count {counts[metric]!r}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", type=Path, metavar="RECORD", help="compare, exit 1 on a drift")
    mode.add_argument("--update", type=Path, metavar="RECORD", help="rewrite the counts section")
    args = parser.parse_args(argv)
    path = args.check or args.update
    record = json.loads(path.read_text())
    seed, recorded = record["counts"]["seed"], record["counts"]["workloads"]
    quick = bool(record["environment"].get("quick"))  # a smoke record gates smoke runs
    stale = [] if args.update else stale_medians(record)
    for line in stale:
        print(f"STALE  {line}")
    failed = bool(stale)
    with tempfile.TemporaryDirectory() as workdir:
        for workload in recorded:
            try:
                measured = measure(workload, seed, quick, Path(workdir))
            except RuntimeError as error:
                print(f"{workload}  FAILED  {error}")
                failed = True
                continue
            if args.update:
                recorded[workload] = measured
                continue
            drift = differences(recorded[workload], measured)
            for line in drift or ["all counts as recorded"]:
                print(f"{workload}  {'DRIFT' if drift else 'ok'}  {line}")
            failed |= bool(drift)
    if args.update and not failed:
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"rewrote the counts of {len(recorded)} workload(s) in {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
