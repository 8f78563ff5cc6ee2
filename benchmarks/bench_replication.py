"""Replication microbenchmark: the W×R consistency matrix under lag.

Drives a Zipf-skewed write/read mix against a replicated
:class:`~repro.core.cluster.ServerCluster` for every combination of
write consistency (``one`` / ``quorum`` / ``all``), read consistency
(``one`` / ``primary`` / ``quorum``) and replication lag, and records:

* **staleness** — the fraction of reads that landed on a diverged
  replica (and the worst version gap any read observed);
* **ack latency in ticks** — how many replication ticks pass before a
  write is held by a quorum of its replicas.  ``W=quorum``/``all``
  force the acks through the log at write time (latency 0, paid as
  ``write_ack_ops`` sync work instead); ``W=one`` acks at the primary
  and lets the quorum form at lag speed.  The per-op follower ack
  latency is also read back from the telemetry registry's
  ``replication_ack_latency_ticks`` histogram (the ``fa_ticks``
  column), so the observability layer reports the same story;
* **repair traffic** — catch-up ops applied by read-repair, re-served
  slices, forced write-acks, scheduled follower deliveries and
  anti-entropy ops;
* **throughput proxy** — server calls per read (strong consistency pays
  for divergence with re-serves; ``ONE`` never does).

Claims checked (exit non-zero on failure):

1. ``lag=0`` (the default) never detects a stale read — ops are due in
   the recording call — and every W level acks with zero latency and
   zero forced sync work.
2. With ``lag>0`` and rotated reads, ``W=one``/``R=one`` observes
   staleness and read-repair catches the followers up.
3. ``PRIMARY`` reads always return the log-head version (strong), at the
   cost of re-serves, and ``QUORUM`` never reads staler than ``ONE``.
4. ``W=quorum``/``all`` ack with zero ticks of quorum latency at any
   lag; ``W=one`` pays the lag instead.
5. ``W=all`` makes every read at every level stale-free (each write
   leaves all replicas at the head).
6. A tighter anti-entropy period bounds the worst observed staleness.
7. After healing, one anti-entropy sweep converges every replica.

Standalone script (not collected by pytest):

    PYTHONPATH=src python benchmarks/bench_replication.py [--quick]
        [--output BENCH_replication.json]

``--quick`` runs a seconds-scale configuration for CI smoke checks.
"""

from __future__ import annotations

import argparse
import json
import random
import time

from repro.core.cluster import ServerCluster
from repro.core.protocol import FetchRequest
from repro.crypto.keys import GroupKeyService
from repro.index.postings import EncryptedPostingElement
from repro.obs import Telemetry

WRITE_LEVELS = ("one", "quorum", "all")
READ_LEVELS = ("one", "primary", "quorum")


def make_cluster(config: dict, lag: int, anti_entropy_every: int | None):
    keys = GroupKeyService(master_secret=b"bench-replication".ljust(32, b"."))
    keys.register("u", {"g"})
    return ServerCluster(
        keys,
        num_lists=config["num_lists"],
        num_servers=config["num_servers"],
        replication=config["replication"],
        lag=lag,
        read_strategy="rotate",  # reads must reach followers to observe lag
        anti_entropy_every=anti_entropy_every,
        telemetry=Telemetry(),  # per-point registry: follower ack latency
    )


def zipf_choice(rng: random.Random, n: int) -> int:
    """Zipf(1)-ish pick in [0, n): rank r with weight 1/(r+1)."""
    weights = [1.0 / (rank + 1) for rank in range(n)]
    return rng.choices(range(n), weights=weights, k=1)[0]


class _AckTracker:
    """Ticks until each write is held by a quorum of its replicas."""

    def __init__(self, cluster: ServerCluster):
        self._cluster = cluster
        self._pending: list[tuple[int, int, int]] = []  # (list, version, tick)
        self.latencies: list[int] = []

    def record_write(self, list_id: int, tick: int) -> None:
        version = self._cluster.primary_version(list_id)
        self._pending.append((list_id, version, tick))
        self.resolve(tick)  # W>1 acks resolve at the write itself

    def resolve(self, tick: int) -> None:
        still_pending = []
        for list_id, version, issued in self._pending:
            replicas = self._cluster.replicas_of(list_id)
            needed = len(replicas) // 2 + 1
            holders = sum(
                1
                for s in replicas
                if self._cluster.applied_version(list_id, s) >= version
            )
            if holders >= needed:
                self.latencies.append(tick - issued)
            else:
                still_pending.append((list_id, version, issued))
        self._pending = still_pending

    def drain(self, tick: int, max_extra_ticks: int) -> int:
        """Tick the cluster until every sampled write reached quorum."""
        for extra in range(max_extra_ticks):
            if not self._pending:
                break
            self._cluster.replication_tick()
            tick += 1
            self.resolve(tick)
        return tick


def run_mix(
    cluster: ServerCluster,
    config: dict,
    read_consistency: str,
    write_consistency: str,
    seed: int = 7,
) -> dict:
    """One write/read/tick mix; returns the measured matrix point."""
    rng = random.Random(seed)
    num_lists = config["num_lists"]
    counter = 0
    reads = 0
    tick = 0
    strong_violations = 0
    acks = _AckTracker(cluster)
    calls_before = cluster.total_calls
    started = time.perf_counter()
    for _ in range(config["rounds"]):
        for _ in range(config["writes_per_round"]):
            counter += 1
            list_id = zipf_choice(rng, num_lists)
            cluster.insert(
                "u",
                list_id,
                EncryptedPostingElement(
                    ciphertext=b"w%06d" % counter,
                    group="g",
                    trs=rng.random(),
                ),
                consistency=write_consistency,
            )
            acks.record_write(list_id, tick)
        for _ in range(config["reads_per_round"]):
            list_id = zipf_choice(rng, num_lists)
            response = cluster.fetch(
                FetchRequest(principal="u", list_id=list_id, offset=0, count=5),
                consistency=read_consistency,
            )
            reads += 1
            if (
                read_consistency == "primary"
                and response.replica_version != cluster.primary_version(list_id)
            ):
                strong_violations += 1
        cluster.replication_tick()
        tick += 1
        acks.resolve(tick)
    # Let straggling quorums form at lag speed before healing, so the
    # latency curve measures replication, not the sweep.
    acks.drain(tick, max_extra_ticks=1000)
    elapsed = time.perf_counter() - started
    # Heal and prove convergence: one sweep must zero the backlog.
    cluster.replication_manager.anti_entropy_sweep()
    converged = cluster.replication_backlog() == {}
    stats = cluster.replication_stats
    latencies = acks.latencies
    # The registry's view of the same ack path: one observation per
    # scheduled follower delivery, in ticks from log append to apply
    # (read-repair/anti-entropy syncs take a different path and are
    # deliberately not in this histogram).
    ack_series = []
    if cluster.telemetry is not None:
        ack_series = cluster.telemetry.registry.snapshot()[
            "replication_ack_latency_ticks"
        ]["series"]
    registry_acks = sum(entry["count"] for entry in ack_series)
    registry_tick_sum = sum(entry["sum"] for entry in ack_series)
    return {
        "consistency": read_consistency,
        "write_consistency": write_consistency,
        "reads": reads,
        "writes": counter,
        "stale_reads": stats.stale_reads_detected,
        "stale_fraction": stats.stale_reads_detected / max(1, reads),
        "max_staleness": stats.max_staleness_seen,
        "ack_latency_ticks_mean": sum(latencies) / max(1, len(latencies)),
        "ack_latency_ticks_max": max(latencies, default=0),
        "registry_follower_acks": registry_acks,
        "registry_follower_ack_ticks_mean": registry_tick_sum
        / max(1, registry_acks),
        "write_ack_syncs": stats.write_ack_syncs,
        "write_ack_ops": stats.write_ack_ops,
        "read_repair_ops": stats.repair_ops,
        "re_served_slices": stats.read_reserves,
        "scheduled_follower_ops": stats.follower_ops_applied,
        "anti_entropy_ops": stats.anti_entropy_ops,
        "server_calls_per_read": (cluster.total_calls - calls_before)
        / max(1, reads),
        "strong_violations": strong_violations,
        "converged_after_sweep": converged,
        "elapsed_seconds": round(elapsed, 4),
    }


def sweep(config: dict) -> dict:
    lags = config["lags"]
    results: list[dict] = []
    for lag in lags:
        for write_consistency in WRITE_LEVELS:
            for read_consistency in READ_LEVELS:
                cluster = make_cluster(
                    config,
                    lag=lag,
                    anti_entropy_every=config["anti_entropy_every"],
                )
                point = run_mix(
                    cluster, config, read_consistency, write_consistency
                )
                point["lag"] = lag
                results.append(point)
                print(
                    f"lag={lag:<3d} W={write_consistency:<7s} "
                    f"R={read_consistency:<8s} "
                    f"stale={point['stale_fraction']:.3f} "
                    f"max_gap={point['max_staleness']:<4d} "
                    f"ack_ticks={point['ack_latency_ticks_mean']:.2f} "
                    f"fa_ticks={point['registry_follower_ack_ticks_mean']:.2f} "
                    f"ack_ops={point['write_ack_ops']:<5d} "
                    f"re_serves={point['re_served_slices']:<5d} "
                    f"calls/read={point['server_calls_per_read']:.2f}"
                )
    # Anti-entropy ablation at the largest lag: tighter sweeps, lower
    # worst-case staleness for ONE readers.
    ablation: list[dict] = []
    for period in config["anti_entropy_periods"]:
        cluster = make_cluster(config, lag=max(lags), anti_entropy_every=period)
        point = run_mix(cluster, config, "one", "one")
        ablation.append(
            {
                "anti_entropy_every": period,
                "max_staleness": point["max_staleness"],
                "stale_fraction": point["stale_fraction"],
                "anti_entropy_ops": point["anti_entropy_ops"],
            }
        )
        print(
            f"anti_entropy_every={period} max_gap={point['max_staleness']} "
            f"stale={point['stale_fraction']:.3f} "
            f"ae_ops={point['anti_entropy_ops']}"
        )
    return {"curves": results, "anti_entropy_ablation": ablation}


def check_claims(measured: dict) -> list[str]:
    failures: list[str] = []
    by_key = {
        (point["lag"], point["write_consistency"], point["consistency"]): point
        for point in measured["curves"]
    }
    lags = sorted({lag for lag, _, _ in by_key})
    for write_consistency in WRITE_LEVELS:
        for read_consistency in READ_LEVELS:
            zero = by_key[(0, write_consistency, read_consistency)]
            if zero["stale_reads"] != 0:
                failures.append(
                    f"lag=0/W={write_consistency}/R={read_consistency} "
                    f"detected {zero['stale_reads']} stale reads"
                )
            if zero["ack_latency_ticks_max"] != 0:
                failures.append(
                    f"lag=0/W={write_consistency} acked with latency"
                )
            if zero["write_ack_syncs"] != 0:
                failures.append(
                    f"lag=0/W={write_consistency} forced write-ack syncs: "
                    "ops recorded at lag 0 were not delivered in the call"
                )
    positive = [lag for lag in lags if lag > 0]
    for lag in positive:
        one = by_key[(lag, "one", "one")]
        primary = by_key[(lag, "one", "primary")]
        quorum = by_key[(lag, "one", "quorum")]
        if one["stale_reads"] == 0:
            failures.append(f"lag={lag}/one observed no divergence")
        if one["read_repair_ops"] == 0:
            failures.append(f"lag={lag}/one triggered no read-repair")
        if primary["strong_violations"] != 0:
            failures.append(
                f"lag={lag}/primary returned "
                f"{primary['strong_violations']} non-head reads"
            )
        if quorum["stale_fraction"] > one["stale_fraction"] + 1e-9:
            failures.append(
                f"lag={lag}: quorum read staler than ONE "
                f"({quorum['stale_fraction']:.3f} vs {one['stale_fraction']:.3f})"
            )
        if one["ack_latency_ticks_mean"] <= 0:
            failures.append(
                f"lag={lag}/W=one quorum formed instantly despite lag"
            )
        for write_consistency in ("quorum", "all"):
            for read_consistency in READ_LEVELS:
                point = by_key[(lag, write_consistency, read_consistency)]
                if point["ack_latency_ticks_max"] != 0:
                    failures.append(
                        f"lag={lag}/W={write_consistency}/R={read_consistency}"
                        f" acked {point['ack_latency_ticks_max']} ticks late"
                    )
            if by_key[(lag, write_consistency, "one")]["write_ack_ops"] == 0:
                failures.append(
                    f"lag={lag}/W={write_consistency} forced no ack syncs"
                )
        for read_consistency in READ_LEVELS:
            point = by_key[(lag, "all", read_consistency)]
            if point["stale_reads"] != 0:
                failures.append(
                    f"lag={lag}/W=all/R={read_consistency} observed "
                    f"{point['stale_reads']} stale reads"
                )
    for point in measured["curves"]:
        if not point["converged_after_sweep"]:
            failures.append(
                f"lag={point['lag']}/W={point['write_consistency']}"
                f"/R={point['consistency']} "
                "did not converge after the healing sweep"
            )
    ablation = measured["anti_entropy_ablation"]
    if len(ablation) >= 2:
        loosest, tightest = ablation[0], ablation[-1]
        if tightest["max_staleness"] > loosest["max_staleness"]:
            failures.append(
                "tighter anti-entropy period did not bound staleness "
                f"({tightest['max_staleness']} vs {loosest['max_staleness']})"
            )
        if tightest["anti_entropy_ops"] == 0:
            failures.append("anti-entropy sweep applied no ops at period 1")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="seconds-scale CI configuration"
    )
    parser.add_argument(
        "--output", default=None, help="write the measured JSON here"
    )
    args = parser.parse_args()

    if args.quick:
        config = {
            "num_lists": 8,
            "num_servers": 4,
            "replication": 2,
            "rounds": 50,
            "writes_per_round": 3,
            "reads_per_round": 6,
            "lags": [0, 1, 4],
            "anti_entropy_every": None,
            "anti_entropy_periods": [16, 4, 1],
        }
    else:
        config = {
            "num_lists": 32,
            "num_servers": 6,
            "replication": 3,
            "rounds": 300,
            "writes_per_round": 4,
            "reads_per_round": 8,
            "lags": [0, 1, 2, 4, 8],
            "anti_entropy_every": None,
            "anti_entropy_periods": [64, 16, 4, 1],
        }

    print(
        f"replication bench ({'quick' if args.quick else 'full'} mode): "
        f"{config['num_lists']} lists / {config['num_servers']} servers / "
        f"f={config['replication']}, "
        f"{config['rounds']}x({config['writes_per_round']}w+"
        f"{config['reads_per_round']}r) rounds, "
        f"W={'/'.join(WRITE_LEVELS)} x R={'/'.join(READ_LEVELS)}\n"
    )
    measured = sweep(config)
    failures = check_claims(measured)

    record = {
        "benchmark": "replication",
        "mode": "quick" if args.quick else "full",
        "config": config,
        **measured,
    }
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.output}")

    print()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "OK: lag=0 byte-stable, divergence detected and repaired, PRIMARY "
        "strong, QUORUM <= ONE staleness, W=quorum/all ack in 0 ticks, "
        "W=all stale-free, anti-entropy bounds the gap"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
