"""Cluster snapshots: encode, decode, and crash-safe recovery.

A cluster snapshot captures everything the untrusted host tier must not
forget across a restart (the ``cluster`` section of a dump):

* each written list once, as its replication log: the ``run`` the list
  held at the log's ``base_seq``, the retained ops ``(base_seq,
  head_seq]`` and every replica's applied version — a replica at
  version ``v`` *is* the run plus the ops up to ``v``;
* the placement table and its epoch — so a restart keeps every elected
  primary and the election count ``cluster-status`` reports;
* the lag, the anti-entropy cadence and the tick clock;
* the cluster's down and partitioned ("paused") server sets, read and
  restored through the cluster, which owns both (``down`` at the top of
  the section, ``paused`` under ``replication_state``, where earlier
  builds put it).

Readable views are not in the dump: each is derived from its list and
rebuilt on its first read after recovery, as on any cold server.

Recovery (:func:`cluster_from_dict`) rebuilds a live
:class:`~repro.core.cluster.ServerCluster` in dependency order —
topology, clock and partitions, then logs, then down servers — and
replays each list into every replica inside the logs step
(:meth:`~repro.core.replication.ReplicationManager.restore_list_state`).
Replicas behind the restored log head get their remaining ops
*scheduled* through the normal catch-up machinery, so a restarted lagged
or paused follower converges exactly as a live one would: no
acknowledged op is lost, and one anti-entropy sweep bounds how long
convergence takes.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.core.cluster import ServerCluster
from repro.core.replication import FailoverEvent, ReplicationOp
from repro.core.rstf import RstfModel
from repro.crypto.keys import GroupKeyService
from repro.errors import ConfigurationError, ProtocolError, ReproError
from repro.index.merge import MergePlan
from repro.obs.instruments import PersistInstruments, Telemetry
from repro.persist.atomic import atomic_write_text
from repro.persist.encoders import (
    FORMAT_VERSION,
    decode_list_id,
    directories_from_dict,
    directories_to_dict,
    element_from_dict,
    element_to_dict,
    merge_plan_to_dict,
    read_payload,
    rstf_model_to_dict,
    setup_from_payload,
)


# -- section shapes -----------------------------------------------------------


_JSON_TYPES = {dict: "an object", list: "an array", int: "an integer"}


def _typed(value: Any, kind: type, what: str, source: str | Path) -> Any:
    """*value*, refused unless it is exactly a *kind* (``True`` is no
    integer here) — so a section of the wrong shape fails with the file
    named instead of as an ``AttributeError`` deep inside the decode."""
    if type(value) is not kind:
        raise ConfigurationError(
            f"{source}: corrupt cluster dump: {what} must be "
            f"{_JSON_TYPES[kind]}, not {value!r}"
        )
    return value


# -- replication ops ----------------------------------------------------------


def replication_op_to_dict(op: ReplicationOp) -> dict:
    return {"s": op.seq, "k": op.kind, "e": element_to_dict(op.element)}


def replication_op_from_dict(entry: dict, source: str | Path) -> ReplicationOp:
    kind = _typed(entry, dict, "a replication op", source).get("k")
    if kind not in ("insert", "delete"):
        raise ConfigurationError(
            f"{source}: corrupt cluster dump: unknown replication op kind {kind!r}"
        )
    if "e" not in entry:
        raise ConfigurationError(
            f"{source}: corrupt cluster dump: {kind} op {entry.get('s')} "
            "has no element payload"
        )
    return ReplicationOp(int(entry["s"]), kind, element_from_dict(entry["e"]))


# -- whole-cluster encode -----------------------------------------------------


def cluster_to_dict(cluster: ServerCluster) -> dict:
    """The durable state of a cluster as one JSON-ready dict.

    Each written list is written once: its run is read from the first
    replica, in placement order, at the log base (invariant 3 of
    :mod:`repro.core.replication` says one is there).
    """
    repl = cluster.replication_manager
    logs: dict[str, dict] = {}
    applied: dict[str, dict] = {}
    for list_id in range(cluster.num_lists):
        head, base, ops = repl.log_snapshot(list_id)
        if head == 0:
            continue  # never written: every replica is trivially at 0
        versions = repl.applied_snapshot(list_id)
        holder = next((s for s, v in versions.items() if v == base), None)
        if holder is None:
            raise ProtocolError(
                f"list {list_id}: no replica is at the log base {base} "
                f"(applied versions {versions})"
            )
        logs[str(list_id)] = {
            "head": head,
            "base": base,
            "run": [
                element_to_dict(e)
                for e in cluster.server(holder).export_list(list_id)
            ],
            "ops": [replication_op_to_dict(op) for op in ops],
        }
        applied[str(list_id)] = {
            str(server_index): version for server_index, version in versions.items()
        }
    return {
        "num_lists": cluster.num_lists,
        "num_servers": cluster.num_servers,
        "replication": cluster.replication,
        "placement": [list(replicas) for replicas in cluster.placement_table()],
        "epoch": cluster.placement_epoch,
        "read_consistency": cluster.read_consistency.value,
        "write_consistency": cluster.write_consistency.value,
        # Promotion state.  The elected primaries themselves travel in
        # "placement": this section carries the audit trail and the
        # in-progress timers so a restart taken mid-outage resumes the
        # failover clock.
        "failover": {
            "after": cluster.failover_after,
            "unreachable_since": {
                str(server_index): tick
                for server_index, tick in sorted(
                    cluster.unreachable_since().items()
                )
            },
            "history": [
                {
                    "list": event.list_id,
                    "old": event.old_primary,
                    "new": event.new_primary,
                    "tick": event.tick,
                }
                for event in cluster.failover_history()
            ],
        },
        "lag": repl.lag,
        "anti_entropy_every": repl.anti_entropy_every,
        "down": [
            server_index
            for server_index in range(cluster.num_servers)
            if not cluster.is_alive(server_index)
        ],
        "replication_state": {
            "tick_count": repl.tick_count,
            "paused": [
                server_index
                for server_index in range(cluster.num_servers)
                if cluster.is_paused(server_index)
            ],
            "logs": logs,
            "applied": applied,
        },
    }


# -- whole-cluster decode / recovery ------------------------------------------


def cluster_from_dict(
    data: dict,
    key_service: GroupKeyService,
    source: str | Path = "<dump>",
    telemetry: Telemetry | None = None,
) -> ServerCluster:
    """Recover a live cluster from a dumped ``cluster`` section.

    The placement table and epoch come from the dump.  *telemetry* is
    runtime wiring — code, not data — so it is supplied by the caller,
    and instruments the recovered cluster from its first post-restore
    operation on.

    Every section is type-checked before it is read, so a section of the
    wrong JSON type — a v4 ``{"fixed_ticks": n}`` lag included — is a
    :class:`ConfigurationError` naming *source*, never a bare
    ``AttributeError``; so is a setting the cluster refuses.
    """
    lag = _typed(data.get("lag", 0), int, "lag", source)
    failover = _typed(data.get("failover", {}), dict, "failover", source)
    history = _typed(failover.get("history", []), list, "failover.history", source)
    timers = failover.get("unreachable_since", {})
    _typed(timers, dict, "failover.unreachable_since", source)
    try:
        num_lists = int(data["num_lists"])
        num_servers = int(data["num_servers"])
        replication = int(data["replication"])
        failover_after = failover.get("after")
        cluster = ServerCluster(
            key_service,
            num_lists=num_lists,
            num_servers=num_servers,
            replication=replication,
            lag=lag,
            read_consistency=data.get("read_consistency"),
            anti_entropy_every=data.get("anti_entropy_every"),
            write_consistency=data.get("write_consistency"),
            failover_after=None if failover_after is None else int(failover_after),
            telemetry=telemetry,
        )
        cluster.restore_topology(
            [tuple(replicas) for replicas in data["placement"]],
            int(data.get("epoch", 0)),
        )
        cluster.restore_failover_state(
            history=[
                FailoverEvent(
                    list_id=int(entry["list"]),
                    old_primary=int(entry["old"]),
                    new_primary=int(entry["new"]),
                    tick=int(entry["tick"]),
                )
                for entry in history
            ],
            unreachable_since={
                int(server_index): int(tick) for server_index, tick in timers.items()
            },
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(
            f"{source}: corrupt cluster dump: {error!r}"
        ) from error
    except ReproError as error:
        raise ConfigurationError(
            f"{source}: corrupt cluster dump: {error}"
        ) from error

    repl = cluster.replication_manager
    state = _typed(
        data.get("replication_state", {}), dict, "replication_state", source
    )
    paused = _typed(state.get("paused", []), list, "replication_state.paused", source)
    try:
        repl.restore_clock(int(state.get("tick_count", 0)))
        for server_index in paused:
            cluster.pause_follower(int(server_index))
    except (ReproError, TypeError, ValueError) as error:
        raise ConfigurationError(
            f"{source}: corrupt cluster dump: {error}"
        ) from error
    logs = _typed(state.get("logs", {}), dict, "replication_state.logs", source)
    applied_sections = _typed(
        state.get("applied", {}), dict, "replication_state.applied", source
    )
    for list_id_str, log_data in logs.items():
        list_id = decode_list_id(list_id_str, num_lists, source)
        applied_data = applied_sections.get(list_id_str)
        if applied_data is None:
            raise ConfigurationError(
                f"{source}: corrupt cluster dump: list {list_id} has a log "
                "but no applied versions"
            )
        _typed(log_data, dict, f"the log of list {list_id}", source)
        _typed(applied_data, dict, f"the applied versions of list {list_id}", source)
        run = _typed(log_data.get("run"), list, f"the run of list {list_id}", source)
        try:
            repl.restore_list_state(
                list_id,
                int(log_data["head"]),
                int(log_data["base"]),
                [element_from_dict(entry) for entry in run],
                [
                    replication_op_from_dict(entry, source)
                    for entry in log_data.get("ops", ())
                ],
                {
                    int(server_index): int(version)
                    for server_index, version in applied_data.items()
                },
            )
        except (ProtocolError, KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"{source}: corrupt cluster dump: {error}"
            ) from error

    for server_index in _typed(data.get("down", []), list, "down", source):
        if type(server_index) is not int or not 0 <= server_index < num_servers:
            raise ConfigurationError(
                f"{source}: corrupt cluster dump: down-server index "
                f"{server_index!r} is not one of {num_servers} servers"
            )
        cluster.fail_server(server_index)
    return cluster


# -- top-level save/load ------------------------------------------------------


def save_cluster(
    path: str | Path,
    cluster: ServerCluster,
    merge_plan: MergePlan,
    rstf_model: RstfModel,
) -> None:
    """Atomically write a whole-cluster snapshot plus setup artifacts.

    The dump holds only what the untrusted host tier stores (ciphertexts,
    TRS, group tags, logs) plus the public setup artifacts, and the
    cluster's key service's document directories sealed under their
    groups' keys — never keys, never a doc id in the clear.  An
    instrumented cluster records snapshot size and duration into its
    telemetry registry (wall-clock timing is fine here:
    ``repro.persist`` is outside the determinism scope).
    """
    obs = PersistInstruments(cluster.telemetry)
    start = perf_counter()
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "cluster",
        "merge_plan": merge_plan_to_dict(merge_plan),
        "rstf_model": rstf_model_to_dict(rstf_model),
        "directories": directories_to_dict(cluster.key_service.sealed_directories()),
        "cluster": cluster_to_dict(cluster),
    }
    text = json.dumps(payload)
    atomic_write_text(path, text)
    obs.snapshots.inc()
    obs.snapshot_bytes.set(float(len(text.encode())))
    obs.snapshot_seconds.set(perf_counter() - start)


def load_cluster(
    path: str | Path,
    key_service: GroupKeyService,
    telemetry: Telemetry | None = None,
) -> tuple[ServerCluster, MergePlan, RstfModel]:
    """Recover a cluster snapshot against a (trusted) key service.

    The key service is the deployment's, or one rebuilt from its
    secret; it is given the dump's document directories (groups it does
    not know yet are created), and a directory that disagrees with
    numbers it already holds is a :class:`ConfigurationError` naming the
    file, with nothing installed.  Principals are the caller's to register: only the
    untrusted state is restored.  *telemetry* instruments the recovered
    cluster and counts the restore.
    """
    payload = read_payload(path)
    kind = payload.get("kind")
    if kind != "cluster":
        raise ConfigurationError(
            f"{path}: not a cluster dump (kind={kind!r}); this build reads "
            "no other kind: re-index the corpus to carry it over"
        )
    merge_plan, rstf_model = setup_from_payload(payload, path)
    try:
        cluster_section = payload["cluster"]
    except KeyError:
        raise ConfigurationError(
            f"{path}: corrupt cluster dump: missing 'cluster' section"
        ) from None
    directories = _typed(payload.get("directories", {}), dict, "directories", path)
    try:
        sealed = directories_from_dict(directories)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"{path}: corrupt cluster dump: {error!r}"
        ) from error
    cluster = cluster_from_dict(
        cluster_section, key_service, source=path, telemetry=telemetry
    )
    # Last, so a dump refused for anything else leaves the service as it was.
    try:
        key_service.install_directories(sealed)
    except ConfigurationError as error:
        raise ConfigurationError(f"{path}: {error}") from error
    PersistInstruments(telemetry).restores.inc()
    return cluster, merge_plan, rstf_model
