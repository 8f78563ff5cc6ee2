"""Compare two sets of benchmark runs, one row per workload x end-to-end metric.

    python3 benchmarks/e2e/compare.py BASE.json[,BASE2.json,...] NEW.json[,NEW2.json,...]

Each file is a report written by ``run.py --output`` (all workloads, or a
single one).  A side given as several files is judged on the median of
its runs, and their IQR is its spread; one file per side has no spread.

Every row shows both medians, the ratio *with its base*, the metric's
bound and a verdict:

``ok``          not worse than the base by more than the bound;
``regressed``   worse by more than the bound;
``unresolved``  the spread (IQR / median, the wider side) exceeds the bound
                and the two sides' samples overlap — the runs cannot tell.

Counts that repeat exactly for a seed (requests, elements and bytes per
query, failed ops) must be *equal* when both sides ran the same seeds;
any change for the worse is a regression whatever its size.

Exits non-zero on any ``regressed`` row, which includes a higher
``failed_ops_fraction``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as catalog  # noqa: E402


def load_side(spec: str) -> dict[str, list[dict[str, Any]]]:
    """workload -> its reports, from a comma-separated list of files."""
    side: dict[str, list[dict[str, Any]]] = {}
    for name in spec.split(","):
        document = json.loads(Path(name).read_text())
        reports = (
            document["workloads"].values() if "workloads" in document else [document]
        )
        for report in reports:
            side.setdefault(report["workload"], []).append(report)
    return side


def _samples(reports: list[dict[str, Any]], metric: str) -> list[float] | None:
    entries = [report["end_to_end"].get(metric) for report in reports]
    if any(entry is None for entry in entries):
        return None
    return [entry["value"] for entry in entries]


def _spread(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / median if median else 0.0


def judge(
    metric: catalog.Metric,
    base: list[float],
    new: list[float],
    same_seeds: bool,
) -> tuple[str, float, float, float]:
    """(verdict, base median, new median, spread) of one row."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    spread = max(_spread(base), _spread(new))
    worse = new_median - base_median if metric.better == "lower" else base_median - new_median
    if metric.exact and same_seeds:
        return ("regressed" if worse > 0 else "ok"), base_median, new_median, spread
    bound = metric.bound or 0.0
    overlap = min(new) <= max(base) and min(base) <= max(new)
    if spread > bound and overlap:
        return "unresolved", base_median, new_median, spread
    worse_by = worse / base_median if base_median else float(worse > 0)
    return ("regressed" if worse_by > bound else "ok"), base_median, new_median, spread


def compare(base_spec: str, new_spec: str) -> tuple[list[str], bool]:
    """The table rows and whether anything regressed."""
    base_side, new_side = load_side(base_spec), load_side(new_spec)
    rows = [
        f"{'workload':<24}{'metric':<28}{'base':>12}{'new':>12}  "
        f"{'new/base (base)':<28}{'bound':>7}{'spread':>8}  verdict"
    ]
    regressed = False
    for workload in catalog.WORKLOADS:
        if workload not in base_side or workload not in new_side:
            continue
        base_reports, new_reports = base_side[workload], new_side[workload]
        same_seeds = sorted(r["seed"] for r in base_reports) == sorted(
            r["seed"] for r in new_reports
        )
        for metric in catalog.END_TO_END:
            if workload not in metric.workloads:
                continue
            base, new = _samples(base_reports, metric.name), _samples(new_reports, metric.name)
            if base is None or new is None:
                continue  # e.g. snapshot_s from an untraced single-workload run
            verdict, base_median, new_median, spread = judge(metric, base, new, same_seeds)
            regressed |= verdict == "regressed"
            ratio = f"{new_median / base_median:.3f}" if base_median else "n/a"
            exact = " exact" if metric.exact and same_seeds else ""
            rows.append(
                f"{workload:<24}{metric.name:<28}{base_median:>12.6g}{new_median:>12.6g}  "
                f"{ratio + ' (base ' + format(base_median, '.6g') + ' ' + metric.unit + ')':<28}"
                f"{(metric.bound or 0.0):>7.0%}{spread:>8.1%}  {verdict}{exact}"
            )
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, regressed = compare(args[0], args[1])
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
