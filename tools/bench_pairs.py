"""Alternating paired runs of the e2e benchmark on two revisions.

    python3 tools/bench_pairs.py REV_A REV_B [--seeds 1-10] [--workload NAME]
        [--seconds S] [--quick] [--out DIR] [--record BENCH_e2e.json]

Each revision (anything ``git rev-parse`` accepts, or ``.`` for the
working tree, untracked files included) is exported with ``git archive``
into ``DIR/checkouts/`` — read-only on the repository, nothing to clean up
in ``.git`` — and ``benchmarks/e2e/run.py --output`` runs once per seed on
each side, alternating which side goes first, so that a slow spell of the
machine lands on both.  ``REV_A`` is the base, ``REV_B`` the change.

It prints, per workload and end-to-end metric: both medians, the change,
the base's IQR, the number of pairs the change won, one sign per pair
(``+`` better, ``-`` worse, ``=`` equal, in the metric's own direction)
and a verdict — ``gain`` / ``loss`` when one side won at least nine pairs
in ten *and* the medians differ by more than the base's IQR.  Then it
runs the change side's ``benchmarks/e2e/compare.py`` on the two sets of
runs.  With ``--record`` the change side's medians, quartiles, per-layer
medians and environment, and the counts ``tools/bench_counts.py`` gates,
are written to the given file (``BENCH_e2e.json`` at the repository root
is the committed record).

The run reports stay in ``DIR/runs/`` (default ``.bench_pairs/``, which
``.gitignore`` names).  Nothing runs concurrently: one benchmark process
at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as catalog  # noqa: E402
from bench_counts import counts_of  # noqa: E402

WORKING_TREE = "."
WIN_SHARE = 0.9  # a claimed gain wins at least nine pairs in ten


def _git(*args: str) -> str:
    command = ["git", *args]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def resolve(rev: str) -> tuple[str, str]:
    """``(label, commit)``: the commit a revision names, or for the
    working tree, ``HEAD`` and a label saying the tree was exported."""
    if rev == WORKING_TREE:
        head = _git("rev-parse", "HEAD")
        return f"{head[:12]}+worktree", f"working tree of {head}"
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    return commit[:12], commit


def export(rev: str, dest: Path) -> None:
    """Write the files of *rev* (``.``: the working tree) into *dest*."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev == WORKING_TREE:
        listed = _git("ls-files", "--cached", "--others", "--exclude-standard", "-z")
        for name in filter(None, listed.split("\0")):
            source = ROOT / name
            if source.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
        return
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(
    checkout: Path, commit: str, seed: int, args: argparse.Namespace, output: Path
) -> dict[str, dict[str, Any]]:
    """One ``run.py`` run of *checkout*; its reports by workload, each
    stamped with the commit it measured (an export has no ``.git``)."""
    command = [sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py")]
    command += ["--seed", str(seed), "--seconds", str(args.seconds), "--output", str(output)]
    if args.workload:
        command += ["--workload", args.workload]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL)
    if not output.exists():
        raise RuntimeError(f"{checkout.name} seed {seed}: run.py exited with {done.returncode}")
    if done.returncode != 0:
        print(f"# {checkout.name} seed {seed}: run.py exited with {done.returncode}")
    document = json.loads(output.read_text())
    reports = document["workloads"] if "workloads" in document else {document["workload"]: document}
    for part in [document, *reports.values()]:
        if "environment" in part:
            part["environment"]["commit"] = commit
    output.write_text(json.dumps(document, indent=1))
    return reports


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def pair_rows(
    base: list[dict[str, dict[str, Any]]], new: list[dict[str, dict[str, Any]]]
) -> list[dict[str, Any]]:
    """Per workload and end-to-end metric both sides reported in every
    pair: medians, change, base IQR, pairs won, signs and verdict."""
    rows = []
    for workload in catalog.WORKLOADS:
        if not all(workload in side for side in base + new):
            continue
        for metric in catalog.END_TO_END:
            if not all(metric.name in side[workload]["end_to_end"] for side in base + new):
                continue
            a = [side[workload]["end_to_end"][metric.name]["value"] for side in base]
            b = [side[workload]["end_to_end"][metric.name]["value"] for side in new]
            sign = 1 if metric.better == "higher" else -1
            signs = "".join(
                "+" if (y - x) * sign > 0 else "-" if y != x else "=" for x, y in zip(a, b)
            )
            q1, base_median, q3 = _quartiles(a)
            new_median = statistics.median(b)
            needed = math.ceil(WIN_SHARE * len(a))
            apart = abs(new_median - base_median) > q3 - q1
            verdict = "—"
            if apart and signs.count("+") >= needed:
                verdict = "gain"
            elif apart and signs.count("-") >= needed:
                verdict = "loss"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "base": base_median,
                    "new": new_median,
                    "change": (new_median - base_median) / base_median if base_median else 0.0,
                    "base_iqr": q3 - q1,
                    "won": signs.count("+"),
                    "signs": signs,
                    "verdict": verdict,
                }
            )
    return rows


def format_rows(rows: list[dict[str, Any]]) -> list[str]:
    lines = [
        f"{'workload':<24}{'metric':<28}{'base':>12}{'new':>12}{'change':>9}"
        f"{'base IQR':>11}  {'won':>5}  signs       verdict"
    ]
    for row in rows:
        pairs = len(row["signs"])
        lines.append(
            f"{row['workload']:<24}{row['metric']:<28}{row['base']:>12.6g}{row['new']:>12.6g}"
            f"{row['change']:>+9.1%}{row['base_iqr']:>11.4g}  {row['won']:>2}/{pairs:<2}  "
            f"{row['signs']:<12}{row['verdict']}"
        )
    return lines


def make_record(
    runs: list[dict[str, dict[str, Any]]], seeds: list[int], commit: str
) -> dict[str, Any]:
    """The committed record of one side: per workload, the median and
    quartiles of every end-to-end metric and the median of every
    per-layer one over *runs*; the environment of the first run; and the
    gated counts of the seed-1 run (the first seed's without one)."""
    workloads: dict[str, Any] = {}
    for workload in runs[0]:
        reports = [run[workload] for run in runs if workload in run]
        end_to_end = {}
        for metric, entry in reports[0]["end_to_end"].items():
            q1, median, q3 = _quartiles([r["end_to_end"][metric]["value"] for r in reports])
            end_to_end[metric] = {"median": median, "q1": q1, "q3": q3, "unit": entry["unit"]}
        per_layer = {
            metric: {
                "median": statistics.median(r["per_layer"][metric]["value"] for r in reports),
                "unit": entry["unit"],
            }
            for metric, entry in reports[0]["per_layer"].items()
        }
        workloads[workload] = {"end_to_end": end_to_end, "per_layer": per_layer}
    count_seed = 1 if 1 in seeds else seeds[0]
    counted = runs[seeds.index(count_seed)]
    environment = dict(next(iter(runs[0].values()))["environment"])
    del environment["seed"]
    environment.update(seeds=seeds, commit=commit)
    return {
        "schema": "zerber-e2e-record/1",
        "environment": environment,
        "workloads": workloads,
        "counts": {
            "seed": count_seed,
            "workloads": {name: counts_of(report) for name, report in counted.items()},
        },
    }


def _seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="REV_A: a git revision, or . for the working tree")
    parser.add_argument("change", help="REV_B: a git revision, or . for the working tree")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--workload", help="one of the four workloads; default: all")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_pairs")
    parser.add_argument("--record", type=Path, help="write the change side's record here")
    args = parser.parse_args(argv)

    sides = []
    for rev in (args.base, args.change):
        label, commit = resolve(rev)
        checkout = args.out / "checkouts" / label
        export(rev, checkout)
        sides.append((label, commit, checkout))
    runs: list[list[dict[str, dict[str, Any]]]] = [[], []]
    files: list[list[str]] = [[], []]
    (args.out / "runs").mkdir(parents=True, exist_ok=True)
    for number, seed in enumerate(args.seeds):
        for side in ((0, 1) if number % 2 == 0 else (1, 0)):
            label, commit, checkout = sides[side]
            output = args.out / "runs" / f"{label}-seed{seed}.json"
            runs[side].append(run_once(checkout, commit, seed, args, output))
            files[side].append(str(output))
        print(f"# pair {number + 1}/{len(args.seeds)} (seed {seed}) done", flush=True)

    print(f"# base {sides[0][1]}\n# new  {sides[1][1]}\n# seeds {args.seeds}")
    print("\n".join(format_rows(pair_rows(runs[0], runs[1]))))
    compare = sides[1][2] / "benchmarks" / "e2e" / "compare.py"
    print(f"\n# {compare.relative_to(args.out)} (base, new)", flush=True)
    verdict = subprocess.run([sys.executable, str(compare), ",".join(files[0]), ",".join(files[1])])
    if args.record is not None:
        record = make_record(runs[1], args.seeds, sides[1][1])
        args.record.write_text(json.dumps(record, indent=1) + "\n")
        print(f"# wrote the change side's record to {args.record}")
    return verdict.returncode


if __name__ == "__main__":
    sys.exit(main())
