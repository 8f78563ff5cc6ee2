"""Run shape of one workload: set-up, warm-up, timed passes, traced pass.

The shape is the same on every commit:

* set-up (corpus, offline phase, deployment, registration, one warm-up
  pass) is done ``DEPLOYMENTS`` times and ``setup_s`` is their median;
* on each deployment, passes of a fixed op count are timed, tracing off,
  until its share of ``seconds`` has gone by (at least ``MIN_PASSES``).
  Measuring on every deployment costs nothing and spreads the passes
  over twice the wall-clock span, so a slow spell of the machine that
  outlasts one block of passes still leaves the other;
* before each pass, untimed: the workload's reset, ``gc.collect()`` and
  ``clear_observations()`` on every server (``ZerberRServer.observations``
  grows by one object per slice served and would otherwise make later
  passes slower than earlier ones); GC stays on during the pass;
* with tracing asked for, ``TRACED_PASSES`` more passes run on the last
  deployment under the span wrappers and, on the writing workload, the
  snapshot/restore cycle follows.

**The estimator.**  Every pass replays identical work from an identical
state (the deployments are built from the same seeds; ``gc.collect()``
even resets the collector's counters, so collections land on the same
ops), hence step *i* of one pass does what step *i* of any other does
and only the machine differs.  On the shared
2-core box the machine's noise is bursts of x1.5-1.9 slowdown lasting
0.3-2 s and covering about a quarter of the time (README, "Noise"); it
only ever slows.  So each timed metric is read off the **quiet replay**:
for every step and every op latency, the minimum over the passes.
Throughput is ops / sum of the quiet steps; latency percentiles are taken
over the quiet per-op latencies.  Whatever the program does at a step in
every pass stays in; what the neighbours did in one pass drops out.  The
raw per-pass values and their IQR are stored beside each metric.

Count metrics are deltas of the program's public counters across a pass.
They are reported from the first timed pass, so they do not depend on how
many passes fitted into ``seconds``; the paper's units must repeat
exactly on every later pass or the run fails.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any

import metrics as catalog
from tracing import Tracer, layer_time_metrics, quiet_self_times
from workloads import WORKLOAD_CLASSES, MixedWriteRead, PassResult, Scale, Workload

DEPLOYMENTS = 2
MIN_PASSES = 2  # per deployment
TRACED_PASSES = 5
PERSIST_REPS = 5


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported latency was observed)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def summarize(samples: list[float], value: float | None = None) -> dict[str, Any]:
    """A metric's value (default: the median of *samples*) with the samples' IQR."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {
        "value": statistics.median(samples) if value is None else value,
        "iqr": q3 - q1,
        "passes": samples,
    }


def _quiet(rows: list[list[float]]) -> list[float]:
    """Position by position, the minimum over equally long *rows*."""
    return [min(column) for column in zip(*rows, strict=True)]


def quiet_replay(results: list[PassResult]) -> PassResult:
    """Per step and per op latency, the minimum over *results* (see module doc)."""
    first = results[0]
    return PassResult(
        ops=first.ops,
        queries=first.queries,
        writes=first.writes,
        steps=_quiet([r.steps for r in results]),
        query_latency=_quiet([r.query_latency for r in results]),
        write_latency=_quiet([r.write_latency for r in results]),
        rounds=first.rounds,
        elements=first.elements,
        bits=first.bits,
    )


def _one_pass(
    workload: Workload, tracer: Tracer | None = None
) -> tuple[PassResult, dict[str, float]]:
    """Reset, run one pass, check its samples; returns it with its counter deltas."""
    workload.between_passes()
    gc.collect()
    for index in range(workload.cluster.num_servers):
        workload.cluster.server(index).clear_observations()
    before = workload.counters()
    with tracer.installed() if tracer is not None else nullcontext():
        result = workload.run_pass(tracer)
    after = workload.counters()
    reasons = workload.verify(result)
    result.failed += len(reasons)
    result.reasons += reasons
    return result, {name: after[name] - before[name] for name in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(result: PassResult, delta: dict[str, float]) -> dict[str, float]:
    """Per-layer count metrics of one pass from its public-counter deltas."""
    ops, writes, queries = result.ops, result.writes, result.queries
    loads = [v for name, v in sorted(delta.items()) if name.startswith("cluster.load.")]
    lookups = delta["views.hits"] + delta["views.misses"] + delta["views.stale_rebuilds"]
    return {
        "crypto.memo_hit_ratio": _ratio(delta["crypto.memo_hits"], result.elements),
        "router.coalesce_ratio": _ratio(
            delta["router.slices_sent"], delta["router.slices_requested"]
        ),
        "router.server_calls_per_query": _ratio(delta["router.server_calls"], queries),
        "router.ticks_per_query": _ratio(delta["router.ticks"], queries),
        "router.sessions_spilled": delta["router.sessions_spilled"],
        "router.backpressure_sheds": delta["router.backpressure_sheds"],
        "cluster.server_calls_per_op": _ratio(delta["cluster.total_calls"], ops),
        "cluster.load_imbalance": _ratio(max(loads), sum(loads) / len(loads)),
        "replication.ops_logged_per_write": _ratio(delta["replication.ops_logged"], writes),
        "replication.write_ack_syncs_per_write": _ratio(
            delta["replication.write_ack_syncs"], writes
        ),
        "replication.follower_ops_applied_per_write": _ratio(
            delta["replication.follower_ops_applied"], writes
        ),
        "replication.read_repairs": delta["replication.read_repairs"],
        "replication.stale_reads_detected": delta["replication.stale_reads_detected"],
        "replication.floor_reserves": delta["replication.floor_reserves"],
        "server.slices_per_op": _ratio(sum(loads), ops),
        "views.hit_ratio": _ratio(delta["views.hits"], lookups),
        "views.full_builds_per_op": _ratio(delta["views.full_builds"], ops),
        "views.evictions_per_op": _ratio(delta["views.evictions"], ops),
        "views.incremental_updates_per_write": _ratio(
            delta["views.incremental_updates"], writes
        ),
        "views.stale_rebuilds": delta["views.stale_rebuilds"],
    }


def _paper_units(result: PassResult) -> tuple[float, float, float]:
    queries = len(result.query_latency)
    return (
        result.rounds / queries,
        result.elements / queries,
        result.bits / 8 / queries,
    )


def _pass_metrics(result: PassResult) -> dict[str, float]:
    """The per-pass value of every timed end-to-end metric."""
    requests, elements, bytes_ = _paper_units(result)
    out = {
        "throughput_ops_s": result.ops / result.wall_s,
        "query_latency_p50_us": percentile(result.query_latency, 50) * 1e6,
        "query_latency_p95_us": percentile(result.query_latency, 95) * 1e6,
        "query_latency_p99_us": percentile(result.query_latency, 99) * 1e6,
        "requests_per_query": requests,
        "elements_per_query": elements,
        "bytes_per_query": bytes_,
    }
    if result.write_latency:
        out["write_latency_p50_us"] = percentile(result.write_latency, 50) * 1e6
        out["write_latency_p90_us"] = percentile(result.write_latency, 90) * 1e6
    return out


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale,
    workdir: Path,
    trace_dir: Path | None = None,
    passes: int | None = None,
) -> dict[str, Any]:
    """Measure one workload; returns its report (see README, "Output").

    *passes* fixes the number of timed passes (``--quick``); otherwise
    passes run until *seconds* have gone by.  *workdir* receives the
    snapshot file of the writing workload.
    """
    cls = WORKLOAD_CLASSES[name]
    deployments = 1 if passes is not None else DEPLOYMENTS
    setup_samples: list[float] = []
    timed: list[tuple[PassResult, dict[str, float]]] = []
    workload: Workload | None = None
    for _ in range(deployments):
        workload = None  # let the previous deployment go before building the next
        gc.collect()
        candidate = cls(scale, seed)
        began = perf_counter()
        candidate.build()
        built = perf_counter()
        candidate.prepare()
        prepared = perf_counter()
        _one_pass(candidate)  # warm-up: fills views, memos and lazy state
        setup_samples.append((built - began) + (perf_counter() - prepared))
        workload = candidate
        began, done = perf_counter(), 0
        while (
            done < passes
            if passes is not None
            else done < MIN_PASSES or perf_counter() - began < seconds / deployments
        ):
            timed.append(_one_pass(workload))
            done += 1
    assert workload is not None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [result for result, _ in timed]
    per_pass = [_pass_metrics(result) for result in results]
    end_to_end = {
        metric: summarize([values[metric] for values in per_pass], value)
        for metric, value in _pass_metrics(quiet_replay(results)).items()
    }
    end_to_end["setup_s"] = summarize(setup_samples)
    end_to_end["peak_rss_mb"] = summarize([peak_rss_mb])
    per_layer = count_metrics(*timed[0])
    violations = workload.guards(per_layer, results)
    if len({_paper_units(result) for result in results}) != 1:
        violations.append("requests/elements/bytes per query differ between passes")
    attempted = sum(result.ops for result in results)
    failed = sum(result.failed for result in results)
    reasons = [reason for result in results for reason in result.reasons]

    if trace:
        # The traced passes are replays too, so their spans line up and
        # the quiet estimator applies to the self times as well.
        tracers = [Tracer() for _ in range(1 if passes is not None else TRACED_PASSES)]
        traced = [_one_pass(workload, tracer)[0] for tracer in tracers]
        attempted += sum(result.ops for result in traced)
        failed += sum(result.failed for result in traced)
        reasons += [reason for result in traced for reason in result.reasons]
        try:
            self_times = quiet_self_times(tracers)
        except ValueError:
            violations.append("traced passes recorded different span sequences")
            self_times = tracers[0].self_times()
        per_layer.update(
            layer_time_metrics(tracers[0], self_times, traced[0].ops, traced[0].writes)
        )
        per_layer["trace.overhead_fraction"] = (
            quiet_replay(traced).wall_s / quiet_replay(results).wall_s - 1.0
        )
        if {_paper_units(result) for result in traced} != {_paper_units(results[0])}:
            violations.append("traced pass counts differ from the untraced passes")
        if trace_dir is not None:
            tracers[0].write(trace_dir / f"trace-{name}.json", name)
        if isinstance(workload, MixedWriteRead):
            persisted, restore_reasons = _persist(workload, workdir / f"snapshot-{seed}.json")
            end_to_end.update(persisted["end_to_end"])
            per_layer.update(persisted["per_layer"])
            attempted += len(workload.clones)
            failed += len(restore_reasons)
            reasons += restore_reasons

    end_to_end["failed_ops_fraction"] = summarize([failed / attempted])
    return {
        "workload": name,
        "why": catalog.WORKLOADS[name],
        "seed": seed,
        "scale": scale.name,
        "passes": len(timed),
        "ops_per_pass": results[0].ops,
        "latency_samples_per_pass": {
            "query": len(results[0].query_latency),
            "write": len(results[0].write_latency),
        },
        "attempted": attempted,
        "failed": failed,
        "failure_reasons": reasons[:20],
        "guard_violations": violations,
        "end_to_end": {
            metric: {"unit": catalog.BY_NAME[metric].unit, **summary}
            for metric, summary in end_to_end.items()
        },
        "per_layer": {
            metric: {"unit": catalog.BY_NAME[metric].unit, "value": value}
            for metric, value in per_layer.items()
        },
    }


def _persist(
    workload: MixedWriteRead, path: Path
) -> tuple[dict[str, dict[str, Any]], list[str]]:
    """Snapshot + restore, ``PERSIST_REPS`` times untraced for the timings
    (the fastest counts), once more for the spans."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        snapshots, restores = [], []
        for _ in range(PERSIST_REPS):
            restored = None  # free the previous copy before loading the next
            gc.collect()
            snapshot_s, restore_s, restored = workload.persist_cycle(path)
            snapshots.append(snapshot_s)
            restores.append(restore_s)
        reasons = workload.verify_restored(restored)
        size = path.stat().st_size
        restored = None
        gc.collect()
        tracer = Tracer()
        with tracer.installed():
            workload.persist_cycle(path, tracer)
        spans = tracer.by_name()
    finally:
        path.unlink(missing_ok=True)
    return {
        "end_to_end": {
            # Quiet estimator again: the repetitions do identical work.
            "snapshot_s": summarize(snapshots, min(snapshots)),
            "restore_s": summarize(restores, min(restores)),
            "snapshot_bytes_per_element": summarize([size / workload.cluster.num_elements]),
        },
        "per_layer": {
            "persist.save_self_s": spans["persist.save"]["self_s"],
            "persist.load_self_s": spans["persist.load"]["self_s"],
            "persist.snapshot_bytes": size,
        },
    }, reasons
