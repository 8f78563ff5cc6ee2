"""Tests for the cluster monitor: delta windows and fault visibility."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import ClusterMonitor, Telemetry


class FakeCluster:
    """Minimal duck-typed MonitoredCluster with mutable state."""

    def __init__(self) -> None:
        self.read = {0: 0, 1: 0}
        self.write = {0: 0, 1: 0}
        self.load = [0, 0]
        self.backlog = {}
        self.history = []

    def list_heat(self):
        return dict(self.read)

    def list_write_heat(self):
        return dict(self.write)

    def per_server_load(self):
        return list(self.load)

    def replication_backlog(self):
        return dict(self.backlog)

    def failover_history(self):
        return list(self.history)


class TestClusterMonitor:
    def test_validation(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            ClusterMonitor(telemetry, every=0)
        with pytest.raises(ValueError):
            ClusterMonitor(telemetry, window=0)

    def test_samples_are_deltas_not_totals(self):
        telemetry = Telemetry()
        monitor = ClusterMonitor(telemetry, every=1, window=8)
        cluster = FakeCluster()
        cluster.read[0] = 5
        monitor.sample(cluster, tick=1)
        cluster.read[0] = 12
        cluster.load = [3, 1]
        monitor.sample(cluster, tick=2)
        assert monitor.read_heat_series(0) == [5, 7]
        assert monitor.server_load_series(0) == [0, 3]
        assert monitor.server_load_series(1) == [0, 1]

    def test_maybe_sample_respects_the_period(self):
        telemetry = Telemetry()
        monitor = ClusterMonitor(telemetry, every=4, window=8)
        cluster = FakeCluster()
        sampled = [tick for tick in range(1, 13) if monitor.maybe_sample(cluster, tick)]
        assert sampled == [1, 5, 9]

    def test_window_is_bounded_oldest_dropped(self):
        telemetry = Telemetry()
        monitor = ClusterMonitor(telemetry, every=1, window=3)
        cluster = FakeCluster()
        for tick in range(1, 8):
            monitor.sample(cluster, tick)
        assert [sample.tick for sample in monitor.window()] == [5, 6, 7]

    def test_events_are_attributed_to_one_window(self):
        telemetry = Telemetry()
        monitor = ClusterMonitor(telemetry, every=1, window=8)
        cluster = FakeCluster()
        monitor.sample(cluster, tick=1)
        cluster.history.append("election-1")
        monitor.sample(cluster, tick=2)
        monitor.sample(cluster, tick=3)
        assert [sample.events for sample in monitor.window()] == [
            [],
            ["election-1"],
            [],
        ]

    def test_backlog_feeds_the_lag_histogram(self):
        telemetry = Telemetry()
        monitor = ClusterMonitor(telemetry, every=1, window=8)
        cluster = FakeCluster()
        cluster.backlog = {(0, 1): 4, (1, 0): 2}
        sample = monitor.sample(cluster, tick=1)
        assert sample.replica_backlog == {0: {1: 4}, 1: {0: 2}}
        hist = telemetry.registry.histogram("replication_replica_lag")
        assert hist.count() == 2
        assert hist.sum() == 6.0

    def test_to_dict_is_json_shaped(self):
        import json

        telemetry = Telemetry()
        monitor = ClusterMonitor(telemetry, every=2, window=4)
        cluster = FakeCluster()
        cluster.backlog = {(0, 1): 3}
        monitor.sample(cluster, tick=2)
        data = monitor.to_dict()
        json.dumps(data)
        assert data["every"] == 2
        assert data["samples"][0]["replica_backlog"] == {"0": {"1": 3}}


@pytest.fixture()
def system(micro_corpus):
    from repro import SystemConfig, ZerberRSystem

    return ZerberRSystem.build(micro_corpus, SystemConfig(r=3.0, seed=22))


class TestMonitorIntegration:
    def test_monitor_without_telemetry_is_refused(self, system):
        with pytest.raises(ConfigurationError):
            system.deploy_cluster(num_servers=2, monitor_every=2)

    def test_deploy_attaches_monitor_and_samples_on_ticks(self, system):
        telemetry = Telemetry()
        cluster, _ = system.deploy_cluster(
            num_servers=3,
            replication=2,
            lag=1,
            telemetry=telemetry,
            monitor_every=2,
        )
        assert cluster.monitor is telemetry.monitor
        for _ in range(6):
            cluster.replication_tick()
        assert 1 <= len(cluster.monitor.window()) <= cluster.monitor.window_size

    def test_election_lands_in_a_monitor_window(self, system):
        from repro.core.replication import FailoverEvent

        telemetry = Telemetry()
        cluster, _ = system.deploy_cluster(
            num_servers=3,
            replication=2,
            lag=1,
            failover_after=2,
            telemetry=telemetry,
            monitor_every=1,
        )
        primary = cluster.replicas_of(0)[0]
        cluster.fail_server(primary)
        for _ in range(6):
            cluster.replication_tick()
        events = [
            event
            for event in cluster.monitor.events()
            if isinstance(event, FailoverEvent)
        ]
        assert events, "failover election never showed up in a monitor window"
        assert any(event.old_primary == primary for event in events)
        snapshot = telemetry.registry.snapshot()
        elections = snapshot["replication_elections_total"]["series"]
        assert elections and elections[0]["value"] >= 1.0
