"""CLI tests for the telemetry subcommands: metrics, trace, cluster-status."""

import dataclasses
import json

import pytest

from repro import cli
from repro.cli import main
from repro.core.cluster import ServerCluster
from repro.core.replication import ReplicationStats
from repro.core.router import CoordinatorStats
from repro.core.views import ViewStats
from repro.crypto.keys import GroupKeyService
from repro.index.postings import EncryptedPostingElement
from tests.conftest import sealed


class TestMetricsCommand:
    def test_json_covers_every_metric_family(self, capsys):
        assert main(["metrics"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema_version"] == 1
        families = {name.split("_", 1)[0] for name in record["metrics"]}
        assert {
            "coordinator",
            "cluster",
            "replication",
            "views",
            "crypto",
            "persist",
        } <= families
        assert "monitor" not in record

    def test_scripted_workload_actually_exercises_the_paths(self, capsys):
        assert main(["metrics"]) == 0
        record = json.loads(capsys.readouterr().out)
        metrics = record["metrics"]

        def total(name):
            return sum(
                entry["value"] for entry in metrics[name]["series"]
            )

        def stat(family, field):
            (value,) = [
                entry["value"]
                for entry in metrics[family]["series"]
                if entry["labels"] == {"field": field}
            ]
            return value

        assert total("cluster_reads_total") > 0
        assert total("cluster_writes_total") > 0
        assert stat("replication_stats_total", "failovers") >= 1
        assert stat("replication_stats_total", "read_repairs") > 0
        assert stat("coordinator_stats_total", "server_calls") > 0
        # The staggered burst is refused past the queue bound and its
        # rounds overlap in-flight deliveries.
        assert stat("coordinator_stats_total", "backpressure_sheds") >= 1
        assert stat("coordinator_stats_total", "pipeline_overlap") >= 1
        assert stat("views_stats_total", "hits") > 0
        assert total("crypto_skim_elements_total") > 0
        assert total("persist_snapshots_total") >= 1
        read_labels = {
            entry["labels"]["consistency"]
            for entry in metrics["cluster_reads_total"]["series"]
        }
        assert {"one", "primary", "quorum"} <= read_labels

    @pytest.mark.parametrize(
        "family, stats",
        [
            ("coordinator_stats_total", CoordinatorStats),
            ("replication_stats_total", ReplicationStats),
            ("views_stats_total", ViewStats),
        ],
    )
    def test_every_stats_field_is_an_exported_label(self, capsys, family, stats):
        """Each ``*Stats`` dataclass is exported whole, one ``field=``
        series per field, with no list of names to keep in step."""
        assert main(["metrics", "--format", "json"]) == 0
        series = json.loads(capsys.readouterr().out)["metrics"][family]["series"]
        assert [entry["labels"]["field"] for entry in series] == sorted(
            field.name for field in dataclasses.fields(stats)
        )

    def test_text_format(self, capsys):
        assert main(["metrics", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "cluster_reads_total" in out
        assert "replication_ack_latency_ticks" in out

    def test_output_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["metrics", "--output", str(path)]) == 0
        record = json.loads(path.read_text())
        assert record["schema_version"] == 1


class TestTraceCommand:
    def test_text_shows_the_full_span_chain(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        for name in ("query", "coalesce", "skim"):
            assert name in out, f"span {name!r} missing from trace output"
        assert "server_calls=" in out and "slices=" in out
        assert "envelope" not in out

    def test_json_tree_is_nested(self, capsys):
        assert main(["trace", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["root"]["name"] == "query"
        assert record["root"]["children"], "root span has no children"


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory, docs_dir):
    path = tmp_path_factory.mktemp("snap") / "cluster.json"
    code = main(
        [
            "snapshot",
            "--input",
            str(docs_dir),
            "--output",
            str(path),
            "--servers",
            "3",
            "--replication",
            "2",
            "--lag",
            "2",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    group = root / "alpha"
    group.mkdir()
    (group / "a1.txt").write_text("reactor calibration reactor dosing")
    (group / "a2.txt").write_text("dosing budget meeting notes calibration")
    return root


class TestClusterStatusCommand:
    def test_prints_per_server_state(self, snapshot_file, capsys):
        assert main(["cluster-status", "--snapshot", str(snapshot_file)]) == 0
        out = capsys.readouterr().out
        assert "servers" in out
        assert "server 0" in out
        assert "failover history" in out
        # Recovered at lag 2: every stale follower's remainder is due one
        # lag after the restored clock, and the status line says so.
        stale = [line for line in out.splitlines() if "backlog=" in line]
        assert stale and all("next delivery in 2 tick(s)" in line for line in stale)
        assert "held" not in out

    def test_says_when_a_backlog_is_due_and_why_it_is_held(
        self, capsys, monkeypatch
    ):
        service = GroupKeyService(master_secret=b"s" * 32)
        service.register("u", {"g"})
        cluster = ServerCluster(
            service, num_lists=1, num_servers=3, replication=3, lag=2
        )
        cluster.pause_follower(1)
        cluster.insert("u", 0, EncryptedPostingElement(sealed(b"a"), "g", 0.5))
        cluster.replication_tick()
        cluster.insert("u", 0, EncryptedPostingElement(sealed(b"b"), "g", 0.5))
        cluster.fail_server(2)
        cluster.replication_tick()  # the first write's deliveries come due
        monkeypatch.setattr(
            "repro.cli.load_cluster", lambda path, service: (cluster, None, None)
        )
        assert main(["cluster-status", "--snapshot", "unused"]) == 0
        lines = {
            line.split(":")[0].strip(): line
            for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("server ")
        }
        assert "next delivery" not in lines["server 0"]
        assert "backlog=2 op(s)  next delivery in 1 tick(s)" in lines["server 1"]
        assert "1 bucket(s) held (partitioned)" in lines["server 1"]
        assert (
            "next delivery in 1 tick(s)  1 bucket(s) held (down)" in lines["server 2"]
        )


class TestFollowerBacklogGauge:
    def test_metrics_carries_the_backlog_cluster_status_prints(
        self, capsys, monkeypatch
    ):
        service = GroupKeyService(master_secret=b"s" * 32)
        service.register("u", {"g"})
        built = []

        def paused_follower_workload(telemetry):
            cluster = ServerCluster(
                service,
                num_lists=2,
                num_servers=3,
                replication=3,
                lag=2,
                telemetry=telemetry,
            )
            cluster.pause_follower(1)
            for i, trs in enumerate((0.9, 0.5, 0.1)):
                element = EncryptedPostingElement(sealed(b"e%d" % i), "g", trs)
                cluster.insert("u", i % 2, element)
                cluster.replication_tick()
            built.append(cluster)
            return None, cluster, None

        monkeypatch.setattr("repro.cli._scripted_workload", paused_follower_workload)
        assert main(["metrics"]) == 0
        record = json.loads(capsys.readouterr().out)
        gauge = {
            int(entry["labels"]["server"]): entry["value"]
            for entry in record["metrics"]["replication_follower_backlog"]["series"]
        }
        monkeypatch.setattr(
            "repro.cli.load_cluster", lambda path, service: (built[0], None, None)
        )
        assert main(["cluster-status", "--snapshot", "unused"]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            if line.lstrip().startswith("server "):
                server = int(line.split(":")[0].split()[1])
                behind = line.partition("backlog=")[2].partition(" op(s)")[0]
                printed[server] = float(behind or 0)
        assert gauge == printed
        # Paused, server 1 lacks both ops of list 0 (it leads list 1).
        assert gauge == {0: 0.0, 1: 2.0, 2: 1.0}


class TestReplicationClock:
    """``Coordinator.advance`` runs one cluster replication tick per
    coordinator tick, so a loop driven by ``coordinator.tick()`` adds no
    replication tick of its own."""

    @pytest.mark.parametrize("command", ["metrics", "trace"])
    def test_one_replication_tick_per_coordinator_tick(
        self, capsys, monkeypatch, command
    ):
        deployments, quiet = [], []
        workload = cli._scripted_workload
        until_quiet = ServerCluster.run_replication_until_quiet

        def recording_workload(telemetry):
            deployments.append(workload(telemetry))
            return deployments[-1]

        def recording_until_quiet(cluster, max_ticks=1000):
            quiet.append(until_quiet(cluster, max_ticks))
            return quiet[-1]

        monkeypatch.setattr(cli, "_scripted_workload", recording_workload)
        monkeypatch.setattr(
            ServerCluster, "run_replication_until_quiet", recording_until_quiet
        )
        assert main([command]) == 0
        capsys.readouterr()
        ((_, cluster, coordinator),) = deployments
        # Beside the coordinator's ticks, the script ticks four times while
        # a failover is due, then until the replicas are quiet.
        assert coordinator.now > 0
        assert cluster.replication_stats.ticks == coordinator.now + 4 + sum(quiet)
