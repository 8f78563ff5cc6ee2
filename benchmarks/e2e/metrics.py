"""The benchmark's metric catalog: names, units, direction, regression bounds.

One table owns every metric the harness reports, so ``run.py`` (what is
printed), ``compare.py`` (what is gated) and ``BENCHMARK.json`` (what the
driver gates) cannot drift apart — ``test_e2e_smoke.py`` checks the JSON
file against this module.

An *end-to-end* metric is something a user of the system sees; it carries
the bound by which it may worsen before a change counts as a regression.
A *per-layer* metric belongs to one module and has no bound: it explains
an end-to-end movement, it is never a claim by itself (README, "Which
end-to-end number each layer should move").
"""

from __future__ import annotations

import re
from dataclasses import dataclass

WORKLOADS: dict[str, str] = {
    "direct-hot": (
        "2 principals replay a head-heavy tape straight at the cluster; the working "
        "set fits the view LRU and decrypt memo, so time sits in client stepping and decoding"
    ),
    "direct-cold": (
        "50 re-enrolled principals x 20 queries, flat tape, k=50; views and memo start "
        "empty every pass, so nearly every slice pays a full view build and a cold skim"
    ),
    "coordinator-concurrent": (
        "16 sessions kept in flight through the Coordinator at round_latency=1; the only "
        "workload with slice dedup, coalesced envelopes and the event loop on the path"
    ),
    "mixed-write-read": (
        "document inserts and deletes beside reads at replication=3, lag=2, QUORUM writes; "
        "the only workload driving the replication log, view patches and session floors"
    ),
}
WRITES = ("mixed-write-read",)
ALL = tuple(WORKLOADS)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Metric:
    """One named measurement.

    ``bound`` is the share of the baseline's median by which the metric
    may worsen (``None`` for per-layer metrics).  ``exact`` marks counts
    that repeat bit-for-bit for one seed: ``compare.py`` requires equality
    when both sides ran the same seed, and falls back to ``bound`` (the
    seed-to-seed spread allowance) when they did not.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None
    workloads: tuple[str, ...] = ALL
    exact: bool = False


# compare.py gates all of these, each on the workloads it applies to.
# BENCHMARK.json can gate only what every workload reports and what stays
# steady over ten *different* seeds (see ``driver_end_to_end``).
#
# The time bounds are wider than the issue's 10-15%.  On the shared 2-core
# box one run in eight falls into a spell of a minute or more in which
# everything runs 10-25% slower, and no estimator inside a 25 s run can
# see past that; the run-to-run spread (IQR / median of ten runs) of the
# time metrics was 1-5% in a calm hour and up to 10% (throughput, p50)
# and 15% (p95) in a rough one.  A bound inside the noise only produces
# verdicts nobody can act on.  The count bounds are about three times
# the widest seed-to-seed spread seen (0.9-1.7%).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "ops/s", "higher", 0.25),
    Metric("query_latency_p50_us", "us", "lower", 0.25),
    Metric("query_latency_p95_us", "us", "lower", 0.25),
    Metric("query_latency_p99_us", "us", "lower", 0.25),
    Metric("requests_per_query", "count", "lower", 0.04, exact=True),
    Metric("elements_per_query", "count", "lower", 0.06, exact=True),
    Metric("bytes_per_query", "bytes", "lower", 0.06, exact=True),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("write_latency_p50_us", "us", "lower", 0.25, WRITES),
    Metric("write_latency_p90_us", "us", "lower", 0.25, WRITES),
    Metric("snapshot_s", "s", "lower", 0.25, WRITES),
    Metric("restore_s", "s", "lower", 0.25, WRITES),
    Metric("snapshot_bytes_per_element", "bytes", "lower", 0.01, WRITES),
    Metric("failed_ops_fraction", "ratio", "lower", 0.0, exact=True),
)

# End-to-end metrics BENCHMARK.json lists without a bound, and why.
DRIVER_UNGATED: dict[str, str] = {
    "failed_ops_fraction": "the driver reads failed / attempted itself",
    "query_latency_p99_us": (
        "rests on the ten slowest of 1000 ops of direct-cold, which change with "
        "the seed's query-to-principal assignment: 12-22% IQR over ten seeds"
    ),
}


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better)


PER_LAYER: tuple[Metric, ...] = (
    _layer("client.self_us_per_op", "us"),
    _layer("client.build_element_self_us_per_write", "us"),
    _layer("index.decode_self_us_per_op", "us"),
    _layer("index.decode_calls_per_op", "count"),
    _layer("index.list_mutate_self_us_per_write", "us"),
    _layer("crypto.skim_self_us_per_op", "us"),
    _layer("crypto.skim_calls_per_op", "count"),
    _layer("crypto.skim_elements_per_op", "count"),
    _layer("crypto.memo_hit_ratio", "ratio", "higher"),
    _layer("crypto.encrypt_self_us_per_write", "us"),
    _layer("keys.self_us_per_op", "us"),
    _layer("rstf.transform_self_us_per_write", "us"),
    _layer("router.self_us_per_op", "us"),
    _layer("router.coalesce_ratio", "ratio"),
    _layer("router.server_calls_per_query", "count"),
    _layer("router.ticks_per_query", "count"),
    _layer("router.sessions_spilled", "count"),
    _layer("router.backpressure_sheds", "count"),
    _layer("cluster.read_self_us_per_op", "us"),
    _layer("cluster.write_self_us_per_write", "us"),
    _layer("cluster.server_calls_per_op", "count"),
    _layer("cluster.load_imbalance", "ratio"),
    _layer("replication.record_self_us_per_write", "us"),
    _layer("replication.deliver_self_us_per_write", "us"),
    _layer("replication.ops_logged_per_write", "count"),
    _layer("replication.write_ack_syncs_per_write", "count"),
    _layer("replication.follower_ops_applied_per_write", "count"),
    _layer("replication.read_repairs", "count"),
    _layer("replication.stale_reads_detected", "count"),
    _layer("replication.floor_reserves", "count"),
    _layer("server.read_self_us_per_op", "us"),
    _layer("server.write_self_us_per_write", "us"),
    _layer("server.slices_per_op", "count"),
    _layer("views.slice_self_us_per_op", "us"),
    _layer("views.build_self_us_per_op", "us"),
    _layer("views.patch_self_us_per_write", "us"),
    _layer("views.hit_ratio", "ratio", "higher"),
    _layer("views.full_builds_per_op", "count"),
    _layer("views.evictions_per_op", "count"),
    _layer("views.incremental_updates_per_write", "count"),
    _layer("views.stale_rebuilds", "count"),
    Metric("persist.save_self_s", "s", "lower", workloads=WRITES),
    Metric("persist.load_self_s", "s", "lower", workloads=WRITES),
    Metric("persist.snapshot_bytes", "bytes", "lower", workloads=WRITES),
    _layer("trace.overhead_fraction", "ratio"),
    _layer("harness.unattributed_us_per_op", "us"),
)

# Layer metrics that are deltas of the program's public counters (exact
# for a seed) rather than span timings.
COUNT_LAYER_METRICS: frozenset[str] = frozenset(
    m.name
    for m in PER_LAYER
    if not m.name.endswith(("_us_per_op", "_us_per_write", "_self_s"))
    and m.name != "trace.overhead_fraction"
)

BY_NAME: dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def driver_end_to_end() -> list[Metric]:
    """What BENCHMARK.json gates: on every workload, steady across seeds."""
    return [m for m in END_TO_END if m.workloads == ALL and m.name not in DRIVER_UNGATED]


def driver_per_layer() -> list[Metric]:
    """Everything ``--trace 1`` prints: the layer metrics, plus the
    end-to-end metrics the driver cannot gate (those only
    ``mixed-write-read`` has read 0 on the read-only workloads)."""
    gated = {m.name for m in driver_end_to_end()}
    return [
        m for m in END_TO_END if m.name not in gated and m.name != "failed_ops_fraction"
    ] + list(PER_LAYER)
