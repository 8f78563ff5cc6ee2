"""Unit tests for the metric primitives and the catalog registry."""

from dataclasses import dataclass

import pytest

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TICK_BUCKETS,
    NULL_BOUND_GAUGE,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    freeze_labels,
)
from repro.obs.registry import CATALOG_BY_NAME, METRIC_CATALOG, MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        assert counter.total() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("c")
        counter.inc(1.0, consistency="one")
        counter.inc(4.0, consistency="quorum")
        assert counter.value(consistency="one") == 1.0
        assert counter.value(consistency="quorum") == 4.0
        assert counter.total() == 5.0

    def test_bound_handle_hits_the_same_series(self):
        counter = Counter("c")
        bound = counter.bind(consistency="one")
        bound.inc()
        bound.inc(2.0)
        assert counter.value(consistency="one") == 3.0

    def test_set_total_overwrites(self):
        counter = Counter("c")
        counter.set_total(7.0)
        counter.set_total(9.0)
        assert counter.value() == 9.0

    def test_label_order_is_canonical(self):
        assert freeze_labels({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
        counter = Counter("c")
        counter.inc(1.0, b="2", a="1")
        counter.inc(1.0, a="1", b="2")
        assert counter.value(a="1", b="2") == 2.0


class TestGauge:
    def test_set_and_bind(self):
        gauge = Gauge("g")
        gauge.set(4.0, server="0")
        gauge.bind(server="0").set(2.0)
        assert gauge.value(server="0") == 2.0
        assert gauge.value(server="1") == 0.0


class TestHistogramBucketMath:
    def test_default_tick_buckets_are_doubling(self):
        assert DEFAULT_TICK_BUCKETS == (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        assert DEFAULT_SIZE_BUCKETS == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

    def test_bounds_are_inclusive_upper_bounds(self):
        hist = Histogram("h", buckets=(0.0, 2.0, 4.0))
        series = hist.bind()
        series.observe(0.0)  # == first bound -> bucket 0
        series.observe(1.0)  # <= 2.0 -> bucket 1
        series.observe(2.0)  # == 2.0 -> bucket 1
        series.observe(3.0)  # <= 4.0 -> bucket 2
        series.observe(99.0)  # overflow (+Inf)
        assert hist.bucket_counts() == [1, 2, 1, 1]
        assert hist.count() == 5
        assert hist.sum() == 105.0
        assert hist.mean() == 21.0

    def test_every_observation_lands_in_exactly_one_bucket(self):
        hist = Histogram("h", buckets=DEFAULT_TICK_BUCKETS)
        for value in range(0, 200, 7):
            hist.bind().observe(float(value))
        assert sum(hist.bucket_counts()) == hist.count()

    def test_overflow_bucket_is_extra(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        assert len(hist.bucket_counts()) == 3

    def test_buckets_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_labeled_series(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.bind(consistency="one").observe(0.5)
        hist.bind(consistency="quorum").observe(1.5)
        assert hist.count(consistency="one") == 1
        assert hist.count(consistency="quorum") == 1
        assert hist.count() == 0

    def test_empty_series_mean_is_zero(self):
        assert Histogram("h", buckets=(1.0,)).mean() == 0.0


class TestNullInstruments:
    def test_null_instruments_swallow_everything(self):
        NULL_COUNTER.inc(5.0)
        NULL_COUNTER.bind(x="1").inc()
        NULL_BOUND_GAUGE.set(5.0)
        NULL_HISTOGRAM.bind(x="1").observe(5.0)
        assert NULL_COUNTER.total() == 0.0
        assert NULL_BOUND_GAUGE._series == {}
        assert NULL_HISTOGRAM.count() == 0


class TestRegistry:
    def test_unknown_metric_name_fails_loudly(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="METRIC_CATALOG"):
            registry.counter("made_up_metric")

    def test_kind_mismatch_fails_loudly(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="declared as a counter"):
            registry.gauge("cluster_reads_total")

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("cluster_reads_total") is registry.counter(
            "cluster_reads_total"
        )

    def test_histogram_gets_catalog_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("cluster_read_lag_ticks")
        assert hist.buckets == DEFAULT_TICK_BUCKETS
        assert registry.histogram("coordinator_envelope_slices").buckets == (
            DEFAULT_SIZE_BUCKETS
        )

    def test_catalog_has_no_duplicates_and_valid_kinds(self):
        assert len(CATALOG_BY_NAME) == len(METRIC_CATALOG)
        assert {spec.kind for spec in METRIC_CATALOG} <= {
            "counter",
            "gauge",
            "histogram",
        }

    def test_collector_runs_before_snapshot(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("cluster_server_load")
        live = {"load": 0}
        registry.register_collector(lambda: gauge.set(float(live["load"])))
        live["load"] = 12
        snapshot = registry.snapshot()
        assert snapshot["cluster_server_load"]["series"] == [
            {"labels": {}, "value": 12.0}
        ]


@dataclass
class _Stats:
    hits: int = 0
    misses: int = 0


class TestStatsExport:
    """A ``*Stats`` dataclass is exported as one counter family, one
    ``field=`` series per field, summed over every registered source."""

    def test_each_field_is_a_series_read_at_snapshot_time(self):
        registry = MetricsRegistry()
        stats = _Stats()
        registry.register_stats(registry.counter("views_stats_total"), lambda: stats)
        stats.hits += 12
        assert registry.snapshot()["views_stats_total"]["series"] == [
            {"labels": {"field": "hits"}, "value": 12.0},
            {"labels": {"field": "misses"}, "value": 0.0},
        ]

    def test_sources_of_one_family_are_summed(self):
        registry = MetricsRegistry()
        counter = registry.counter("views_stats_total")
        first, second = _Stats(hits=2, misses=1), _Stats(hits=5)
        registry.register_stats(counter, lambda: first)
        registry.register_stats(counter, lambda: second)
        registry.collect()
        assert counter.value(field="hits") == 7.0
        assert counter.value(field="misses") == 1.0
        second.misses += 3
        registry.collect()
        assert counter.value(field="misses") == 4.0


class TestSnapshot:
    def test_snapshot_is_sorted_and_json_shaped(self):
        import json

        registry = MetricsRegistry()
        registry.counter("cluster_reads_total").inc(3.0, consistency="one")
        registry.gauge("cluster_server_load").set(5.0, server="0")
        registry.histogram("cluster_read_lag_ticks").bind(consistency="one").observe(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)  # must be serializable as-is
