"""Command-line interface: build, inspect, and query a confidential index.

Usage (after ``pip install -e .``)::

    repro-index build  --input docs/ --output index.json --r 4.0
    repro-index info   --index index.json
    repro-index query  --index index.json --term budget --k 10
    repro-index lint   src/

``build`` indexes every ``*.txt`` file under ``--input``; the file's
immediate parent directory is its collaboration group and its path
relative to ``--input`` its doc id.  The key service derives group keys
from ``--secret`` (hex, >= 32 hex chars), so running ``query`` with the
same secret reconstructs them and opens the document directories the
dump carries sealed (a posting names its document by a number, so no
path is written in the clear) — a convenience for demos and tests, not
a production key-management story (see ``repro.crypto.keys``).  ``build`` writes the paper's single index server
as a one-server cluster dump, the one format ``snapshot`` writes too, so
``info`` / ``query`` and ``restore`` / ``cluster-status`` read either.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.client import ZerberRClient
from repro.core.system import SystemConfig, ZerberRSystem
from repro.corpus.documents import Corpus, Document
from repro.crypto.keys import GroupKeyService
from repro.errors import ReproError
from repro.persist import load_cluster

DEFAULT_SECRET = "0f" * 32


def _corpus_from_directory(root: Path) -> Corpus:
    corpus = Corpus(name=root.name)
    files = sorted(root.rglob("*.txt"))
    if not files:
        raise ReproError(f"no .txt files under {root}")
    for path in files:
        group = path.parent.name if path.parent != root else "public"
        corpus.add(
            Document(
                doc_id=str(path.relative_to(root)),
                group=group,
                text=path.read_text(errors="replace"),
            )
        )
    return corpus


def _key_service(secret_hex: str, groups: set[str]) -> GroupKeyService:
    service = GroupKeyService(master_secret=bytes.fromhex(secret_hex))
    for group in sorted(groups):
        service.ensure_group(group)
    service.register("superuser", set(groups))
    return service


def cmd_build(args: argparse.Namespace) -> int:
    corpus = _corpus_from_directory(Path(args.input))
    print(
        f"indexing {len(corpus)} documents in {len(corpus.groups())} group(s)...",
        file=sys.stderr,
    )
    service = _key_service(args.secret, corpus.groups())
    system = ZerberRSystem.build(
        corpus,
        SystemConfig(r=args.r, training_fraction=args.training_fraction),
        key_service=service,
    )
    system.snapshot_cluster(args.output, system.cluster)
    audit = system.audit()
    print(
        f"wrote {args.output}: {system.cluster.num_elements} elements, "
        f"{system.merge_plan.num_lists} merged lists, "
        f"r={args.r} (confidential={audit.is_confidential})"
    )
    return 0


def _load(path: str, secret: str):
    """Load a dump; its key service knows every group a list holds a tag of."""
    service = GroupKeyService(master_secret=bytes.fromhex(secret))
    cluster, plan, model = load_cluster(path, service)
    groups = {
        tag
        for list_id in range(cluster.num_lists)
        for tag in cluster.server(cluster.replicas_of(list_id)[0]).visible_group_tags(
            list_id
        )
    }
    for group in sorted(groups):
        service.ensure_group(group)
    return service, cluster, plan, model, groups


def cmd_info(args: argparse.Namespace) -> int:
    _, cluster, plan, model, groups = _load(args.index, args.secret)
    print(f"index: {args.index}")
    print(f"  posting elements : {cluster.num_elements}")
    print(f"  merged lists     : {plan.num_lists} (r={plan.r})")
    print(f"  trained RSTFs    : {model.num_terms}")
    print(f"  groups           : {', '.join(sorted(groups))}")
    return 0


def _run_query(
    service: GroupKeyService,
    backend,
    plan,
    model,
    groups: set[str],
    args: argparse.Namespace,
    with_trace: bool = True,
) -> int:
    """Register the querying principal, run one query, print the hits.

    Shared by ``query`` and ``restore``: *backend* is the loaded cluster.
    """
    service.register(args.principal, set(args.groups) if args.groups else groups)
    client = ZerberRClient(
        principal=args.principal,
        key_service=service,
        server=backend,
        rstf_model=model,
        merge_plan=plan,
    )
    result = client.query(args.term, k=args.k)
    for rank, hit in enumerate(result.hits, start=1):
        print(f"{rank:2d}. {hit.doc_id}  rscore={hit.rscore:.4f}  group={hit.group}")
    if not result.hits:
        print("(no readable results)")
    if with_trace:
        trace = result.trace
        print(
            f"-- {trace.num_requests} request(s), {trace.elements_transferred} "
            f"elements, {trace.bits_transferred / 8 / 1024:.2f} KB",
            file=sys.stderr,
        )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    service, cluster, plan, model, groups = _load(args.index, args.secret)
    return _run_query(service, cluster, plan, model, groups, args)


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Build a sharded deployment and write a whole-cluster snapshot."""
    corpus = _corpus_from_directory(Path(args.input))
    print(
        f"indexing {len(corpus)} documents into {args.servers} server(s) "
        f"(replication={args.replication}, lag={args.lag})...",
        file=sys.stderr,
    )
    service = _key_service(args.secret, corpus.groups())
    system = ZerberRSystem.build(
        corpus,
        SystemConfig(r=args.r, training_fraction=args.training_fraction),
        key_service=service,
    )
    cluster, _ = system.deploy_cluster(
        num_servers=args.servers,
        replication=args.replication,
        lag=args.lag,
        anti_entropy_every=args.anti_entropy_every,
    )
    system.snapshot_cluster(args.output, cluster)
    backlog = cluster.replication_backlog()
    print(
        f"wrote {args.output}: {cluster.num_elements} elements over "
        f"{cluster.num_servers} servers, {cluster.num_lists} merged lists, "
        f"epoch {cluster.placement_epoch}, "
        f"{len(backlog)} replica(s) still catching up (preserved in snapshot)"
    )
    return 0


def cmd_restore(args: argparse.Namespace) -> int:
    """Recover a cluster snapshot; show its state and optionally query it."""
    service, cluster, plan, model, groups = _load(args.snapshot, args.secret)
    backlog = cluster.replication_backlog()
    print(f"snapshot: {args.snapshot}")
    print(f"  posting elements : {cluster.num_elements}")
    print(f"  merged lists     : {plan.num_lists} (r={plan.r})")
    print(f"  servers          : {cluster.num_servers} "
          f"(replication={cluster.replication}, epoch={cluster.placement_epoch})")
    print(f"  trained RSTFs    : {model.num_terms}")
    print(f"  groups           : {', '.join(sorted(groups))}")
    print(f"  catch-up backlog : {len(backlog)} replica(s) behind")
    if args.converge:
        ticks = cluster.run_replication_until_quiet()
        print(f"  converged        : {ticks} replication tick(s), "
              f"{len(cluster.replication_backlog())} pair(s) still held")
    if args.term is None:
        return 0
    return _run_query(service, cluster, plan, model, groups, args, with_trace=False)


def _scripted_workload(
    telemetry,
) -> tuple[ZerberRSystem, object, object]:
    """Build a small deterministic deployment and exercise every layer.

    The workload behind ``repro-index metrics`` / ``trace``: index a
    synthetic corpus into an instrumented 3-server cluster (replication
    2, 1-tick lag, anti-entropy, failover elections),
    run coalesced coordinator sessions plus direct reads and writes at
    each consistency level, force a failover election, and snapshot the
    cluster to a scratch file — so the emitted registry covers the
    coordinator, cluster read/write, replication, view and persist
    metric families in one run.
    """
    import tempfile

    from repro.core.protocol import FetchRequest
    from repro.core.replication import ReadConsistency, WriteConsistency

    corpus = Corpus(name="scripted")
    for i in range(24):
        group = f"g{i % 3}"
        words = [
            "alpha",
            "beta",
            "gamma",
            "delta",
            f"term{i % 5}",
            "shared",
            f"word{i}",
        ]
        corpus.add(
            Document(doc_id=f"doc-{i:02d}", group=group, text=" ".join(words))
        )
    service = _key_service(DEFAULT_SECRET, corpus.groups())
    system = ZerberRSystem.build(
        corpus, SystemConfig(seed=11, training_fraction=0.9), key_service=service
    )
    cluster, coordinator = system.deploy_cluster(
        num_servers=3,
        replication=2,
        lag=1,
        anti_entropy_every=4,
        failover_after=2,
        round_latency=2,
        max_queue_depth=2,
        telemetry=telemetry,
    )
    client = system.client_for("superuser", server=cluster)

    # Coalesced coordinator sessions (coordinator + envelope + skim).
    sessions = [
        coordinator.open_session(client, ["alpha", "beta", "shared"], k=3),
        coordinator.open_session(client, ["gamma", "shared"], k=2),
    ]
    ticks = 0
    while any(not s.done for s in sessions) and ticks < 64:
        coordinator.tick()
        cluster.replication_tick()
        ticks += 1

    # An arrival-driven burst past the queue bound (shed + retry path,
    # round pipelining): staggered arrivals against max_queue_depth=2.
    # The second session is admitted one tick into the first one's
    # in-flight round (initial_size=1 forces several doubling rounds),
    # so their flushes interleave with pending deliveries — pipeline
    # overlap; the later arrivals find the queue full and are shed with
    # retry hints, and retry-on-shed drains every session to completion.
    from repro.core.protocol import ResponsePolicy

    burst_policy = ResponsePolicy(initial_size=1)
    burst = [
        client.open_multi_session(terms, k, policy=burst_policy)
        for terms, k in (
            (["alpha", "shared"], 2),
            (["beta", "shared"], 2),
            (["gamma", "delta"], 2),
            (["alpha", "beta"], 3),
        )
    ]
    for offset, session in enumerate(burst):
        coordinator.submit_arrival(session, at=coordinator.loop.now + offset)
    coordinator.drain()

    # Direct reads at every consistency level (read-path histograms).  A
    # level is the cluster's setting, so each loop sets it per step and
    # puts the deployment's own back when it is done.
    list_id = system.merge_plan.list_of("alpha")
    alpha_slice = FetchRequest(
        principal="superuser", list_id=list_id, offset=0, count=2
    )
    read_level = cluster.read_consistency
    for read in (ReadConsistency.ONE, ReadConsistency.PRIMARY, ReadConsistency.QUORUM):
        cluster.read_consistency = read
        cluster.fetch(alpha_slice)
    cluster.read_consistency = read_level

    # Writes at every consistency level (write counters, ack latency).
    # The ONE write goes last, so alpha's follower is left one op behind.
    owner = system.client_for("owner:g0")
    doc = next(iter(corpus.documents_in_group("g0")))
    doc_stats = corpus.stats(doc.doc_id)
    write_level = cluster.write_consistency
    for write in (WriteConsistency.ALL, WriteConsistency.QUORUM, WriteConsistency.ONE):
        cluster.write_consistency = write
        target_list, element = owner.build_element("alpha", doc_stats, "g0")
        cluster.insert("owner:g0", target_list, element)
    cluster.write_consistency = write_level

    # A failover election (election counters).  While alpha's primary is
    # down, a ONE read of alpha goes to that follower: a stale read,
    # detected and read-repaired (stale-read and repair counters).
    victim = cluster.replicas_of(list_id)[0]
    cluster.fail_server(victim)
    cluster.read_consistency = ReadConsistency.ONE
    cluster.fetch(alpha_slice)
    cluster.read_consistency = read_level
    for _ in range(4):
        cluster.replication_tick()
    cluster.restore_server(victim)
    cluster.run_replication_until_quiet()

    # A snapshot (persist metrics) to a scratch file.
    with tempfile.TemporaryDirectory() as scratch:
        system.snapshot_cluster(Path(scratch) / "snapshot.json", cluster)
    return system, cluster, coordinator


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        Path(output).write_text(text + "\n")
        print(f"wrote {output}", file=sys.stderr)


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run the scripted workload and emit the metrics registry."""
    from repro.obs import Telemetry, metrics_to_json, metrics_to_text

    telemetry = Telemetry()
    _scripted_workload(telemetry)
    snapshot = telemetry.registry.snapshot()
    if args.format == "json":
        _emit(metrics_to_json(snapshot), args.output)
    else:
        _emit(metrics_to_text(snapshot), args.output)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced multi-term query and emit its span tree."""
    from repro.obs import Telemetry, trace_to_json, trace_to_text

    telemetry = Telemetry()
    system, cluster, coordinator = _scripted_workload(telemetry)
    client = system.client_for("superuser", server=cluster)
    session = coordinator.open_session(
        client, ["alpha", "beta", "shared"], k=args.k
    )
    ticks = 0
    while not session.done and ticks < 64:
        coordinator.tick()
        cluster.replication_tick()
        ticks += 1
    session.result()
    trace = next(
        (t for t in telemetry.tracer.traces() if t.trace_id == session.trace_id),
        None,
    )
    if trace is None:
        print("error: traced session left no recorded trace", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(trace_to_json(trace), args.output)
    else:
        _emit(trace_to_text(trace), args.output)
    return 0


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """Recover a snapshot and show its availability / failover state."""
    service = GroupKeyService(master_secret=bytes.fromhex(args.secret))
    cluster, _, _ = load_cluster(args.snapshot, service)
    repl = cluster.replication_manager
    tick = repl.tick_count
    timers = cluster.unreachable_since()
    backlog = cluster.replication_backlog()
    per_server_behind: dict[int, int] = {}
    for (_, server_index), depth in backlog.items():
        per_server_behind[server_index] = (
            per_server_behind.get(server_index, 0) + depth
        )
    print(f"cluster: {args.snapshot}")
    print(
        f"  servers={cluster.num_servers} replication={cluster.replication} "
        f"epoch={cluster.placement_epoch} tick={tick} "
        f"failover_after={cluster.failover_after}"
    )
    for server_index in range(cluster.num_servers):
        alive = cluster.is_alive(server_index)
        paused = repl.is_paused(server_index)
        state = "up" if alive else "DOWN"
        if paused:
            state += ",partitioned"
        line = f"  server {server_index}: {state}"
        since = timers.get(server_index)
        if since is not None:
            line += f"  unreachable_since=tick {since}"
            if cluster.failover_after is not None:
                remaining = cluster.failover_after - (tick - since)
                if remaining > 0:
                    line += f"  election in {remaining} tick(s)"
                else:
                    line += "  election due"
        behind = per_server_behind.get(server_index, 0)
        if behind:
            line += f"  backlog={behind} op(s)"
        outlook = repl.delivery_outlook(server_index)
        if outlook.next_due is not None:
            line += f"  next delivery in {outlook.next_due - tick} tick(s)"
        if outlook.held:
            reason = "partitioned" if alive else "down"
            line += f"  {outlook.held} bucket(s) held ({reason})"
        print(line)
    history = cluster.failover_history()
    print(f"  failover history : {len(history)} election(s)")
    for event in history:
        print(
            f"    tick {event.tick}: list {event.list_id} primary "
            f"{event.old_primary} -> {event.new_primary}"
        )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the zlint invariant checks (see repro.analysis)."""
    from repro.analysis.framework import main as zlint_main

    argv: list[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.report is not None:
        argv += ["--output", args.report]
    if args.rules is not None:
        argv += ["--rules", args.rules]
    return zlint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-index",
        description="Zerber+R confidential top-k index (EDBT 2009 reproduction)",
    )
    parser.add_argument(
        "--secret",
        default=DEFAULT_SECRET,
        help="hex master secret for group-key derivation (demo key management)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="index a directory of .txt files")
    p_build.add_argument("--input", required=True, help="directory of documents")
    p_build.add_argument("--output", required=True, help="index file to write")
    p_build.add_argument("--r", type=float, default=4.0, help="confidentiality bound")
    p_build.add_argument(
        "--training-fraction", type=float, default=0.9, dest="training_fraction"
    )
    p_build.set_defaults(func=cmd_build)

    p_info = sub.add_parser("info", help="show index statistics")
    p_info.add_argument("--index", required=True)
    p_info.set_defaults(func=cmd_info)

    p_query = sub.add_parser("query", help="run a single-term top-k query")
    p_query.add_argument("--index", required=True)
    p_query.add_argument("--term", required=True)
    p_query.add_argument("--k", type=int, default=10)
    p_query.add_argument("--principal", default="reader")
    p_query.add_argument(
        "--groups", nargs="*", help="restrict the principal's group memberships"
    )
    p_query.set_defaults(func=cmd_query)

    p_snapshot = sub.add_parser(
        "snapshot", help="index a directory into a cluster and snapshot it"
    )
    p_snapshot.add_argument("--input", required=True, help="directory of documents")
    p_snapshot.add_argument("--output", required=True, help="snapshot file to write")
    p_snapshot.add_argument("--servers", type=int, default=3)
    p_snapshot.add_argument("--replication", type=int, default=2)
    p_snapshot.add_argument(
        "--lag", type=int, default=0, help="replication lag in scheduler ticks"
    )
    p_snapshot.add_argument(
        "--anti-entropy-every", type=int, default=None, dest="anti_entropy_every"
    )
    p_snapshot.add_argument("--r", type=float, default=4.0, help="confidentiality bound")
    p_snapshot.add_argument(
        "--training-fraction", type=float, default=0.9, dest="training_fraction"
    )
    p_snapshot.set_defaults(func=cmd_snapshot)

    p_restore = sub.add_parser(
        "restore", help="recover a cluster snapshot and optionally query it"
    )
    p_restore.add_argument("--snapshot", required=True)
    p_restore.add_argument(
        "--converge",
        action="store_true",
        help="run replication ticks until reachable followers are caught up",
    )
    p_restore.add_argument("--term", default=None, help="optional query term")
    p_restore.add_argument("--k", type=int, default=10)
    p_restore.add_argument("--principal", default="reader")
    p_restore.add_argument(
        "--groups", nargs="*", help="restrict the principal's group memberships"
    )
    p_restore.set_defaults(func=cmd_restore)

    p_metrics = sub.add_parser(
        "metrics",
        help="run a scripted workload on an instrumented cluster and emit "
        "the metrics registry",
    )
    p_metrics.add_argument("--format", choices=("json", "text"), default="json")
    p_metrics.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_trace = sub.add_parser(
        "trace", help="run one traced multi-term query and emit its span tree"
    )
    p_trace.add_argument("--format", choices=("json", "text"), default="text")
    p_trace.add_argument("--k", type=int, default=3)
    p_trace.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )
    p_trace.set_defaults(func=cmd_trace)

    p_status = sub.add_parser(
        "cluster-status",
        help="show a snapshot's per-replica availability and failover state",
    )
    p_status.add_argument("--snapshot", required=True)
    p_status.set_defaults(func=cmd_cluster_status)

    p_lint = sub.add_parser(
        "lint", help="run the zlint invariant checks over source paths"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    p_lint.add_argument("--format", choices=("human", "json"), default="human")
    p_lint.add_argument(
        "--report", default=None, help="also write a JSON report to this file"
    )
    p_lint.add_argument(
        "--rules", default=None, help="comma-separated rule ids (default: all)"
    )
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
