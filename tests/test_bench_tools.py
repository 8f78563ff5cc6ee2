"""The bookkeeping of the benchmark tools in ``tools/``: the pair table's
signs and verdicts, the committed record's shape, and the count gate's
exact comparison — on hand-made reports, without running a benchmark."""

from __future__ import annotations

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import bench_counts  # noqa: E402
import bench_pairs  # noqa: E402

COUNTS = {
    "requests_per_query": 2.048,
    "elements_per_query": 50.316,
    "bytes_per_query": 3176.41,
    "replication.ops_logged_per_write": 151.64,
    "views.full_builds_per_op": 0.0,
    "router.coalesce_ratio": 0.0,
    "router.server_calls_per_query": 0.0,
    "cluster.server_calls_per_op": 3.11167,
    "router.ticks_per_query": 0.0,
}


def _run(seed: int, setup_s: float, throughput: float) -> dict:
    """One run's reports by workload, shaped as ``run.py --output`` writes them."""
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput_ops_s": {"value": throughput, "unit": "ops/s"},
    }
    end_to_end.update(
        (name, {"value": COUNTS[name], "unit": "count"})
        for name in ("requests_per_query", "elements_per_query", "bytes_per_query")
    )
    per_layer = {
        name: {"value": value, "unit": "count"}
        for name, value in COUNTS.items()
        if name not in end_to_end
    }
    environment = {"seed": seed, "seconds": 10.0, "quick": False, "commit": "unknown"}
    report = {"end_to_end": end_to_end, "per_layer": per_layer, "environment": environment}
    return {"mixed-write-read": report}


def test_pair_rows_sign_each_pair_in_the_metrics_direction():
    base = [_run(s, 2.0 + s / 100, 1000.0) for s in range(1, 11)]
    new = [_run(s, 1.7 + s / 100, 1000.0 if s == 1 else 1100.0) for s in range(1, 11)]
    rows = {row["metric"]: row for row in bench_pairs.pair_rows(base, new)}
    setup = rows["setup_s"]
    assert (setup["signs"], setup["won"], setup["verdict"]) == ("+" * 10, 10, "gain")
    assert round(setup["base"], 9) == 2.055 and round(setup["change"], 4) == -0.146
    # Higher is better for throughput; a tie counts for neither side, so
    # nine wins in ten is exactly enough.
    throughput = rows["throughput_ops_s"]
    assert throughput["signs"] == "=" + "+" * 9 and throughput["verdict"] == "gain"
    # Identical counts: all ties, no verdict.
    bytes_row = rows["bytes_per_query"]
    assert bytes_row["signs"] == "=" * 10 and bytes_row["verdict"] == "—"


def test_a_win_inside_the_base_spread_is_no_gain():
    base = [_run(s, [1.0, 2.0][s % 2], 1000.0) for s in range(1, 11)]
    new = [_run(s, [0.99, 1.99][s % 2], 1000.0) for s in range(1, 11)]
    setup = {row["metric"]: row for row in bench_pairs.pair_rows(base, new)}["setup_s"]
    assert setup["won"] == 10 and setup["verdict"] == "—"


def test_the_record_holds_medians_environment_and_the_seed_one_counts():
    runs = [_run(s, 1.0 + s, 900.0 + s) for s in (3, 1, 2)]
    runs[0]["mixed-write-read"]["end_to_end"]["bytes_per_query"]["value"] = 1.0
    record = bench_pairs.make_record(runs, [3, 1, 2], "abc123")
    setup = record["workloads"]["mixed-write-read"]["end_to_end"]["setup_s"]
    assert setup["median"] == 3.0 and setup["unit"] == "s"
    assert setup["q1"] <= setup["median"] <= setup["q3"]
    assert record["environment"]["seeds"] == [3, 1, 2]
    assert record["environment"]["commit"] == "abc123"
    assert "seed" not in record["environment"]
    assert record["counts"] == {"seed": 1, "workloads": {"mixed-write-read": COUNTS}}


def test_the_count_gate_compares_exactly():
    assert bench_counts.differences(COUNTS, dict(COUNTS)) == []
    moved = dict(COUNTS, bytes_per_query=3176.41 + 1e-9)
    (line,) = bench_counts.differences(COUNTS, moved)
    assert line.startswith("bytes_per_query: recorded 3176.41, measured 3176.41")
    assert bench_counts.differences({}, COUNTS)[0].startswith("requests_per_query")
