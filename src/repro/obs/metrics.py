"""Dependency-free metric primitives: Counter / Gauge / Histogram.

Every instrument holds *labeled series*: a mapping from a frozen,
sorted ``(key, value)`` label tuple to that series' state.  All values
are tick- or count-denominated — the registry lives under the
``repro.core`` determinism contract (the replication tick clock is the
only time source), so nothing in this module reads a wall clock.
Snapshots are plain JSON-shaped dicts with deterministic (sorted)
ordering.

Hot paths bind a series once (:meth:`Counter.bind`) and pay one method
call plus one dict update per event.  When telemetry is disabled the
``Null*`` subclasses swallow every mutation, so instrumented code never
branches on "is telemetry on?"
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from typing import Union

LabelKey = tuple[tuple[str, str], ...]

#: Default upper bounds for tick-denominated histograms (``+Inf`` is
#: implicit as the overflow bucket).
DEFAULT_TICK_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Default upper bounds for size/count histograms (slices, ops, ...).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def freeze_labels(labels: Mapping[str, str]) -> LabelKey:
    """Canonical, hashable, deterministically ordered label identity."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Shared naming/metadata shell; concrete kinds add their series."""

    kind = "metric"

    __slots__ = ("name", "help_text", "unit")

    def __init__(self, name: str, *, help_text: str = "", unit: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self.unit = unit

    def to_snapshot(self) -> dict[str, object]:
        raise NotImplementedError

    def _snapshot_shell(self) -> dict[str, object]:
        return {"kind": self.kind, "unit": self.unit, "help": self.help_text}


class BoundCounter:
    """A counter series pre-resolved to one label set (hot-path handle)."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: dict[LabelKey, float], key: LabelKey) -> None:
        self._series = series
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._series[self._key] = self._series.get(self._key, 0.0) + amount


class NullBoundCounter(BoundCounter):
    def inc(self, amount: float = 1.0) -> None:
        pass


class Counter(Metric):
    """Monotonic cumulative count, optionally split by labels."""

    kind = "counter"

    __slots__ = ("_series",)

    def __init__(self, name: str, *, help_text: str = "", unit: str = "") -> None:
        super().__init__(name, help_text=help_text, unit=unit)
        self._series: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = freeze_labels(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: str) -> None:
        """Overwrite the cumulative total (snapshot-time export of a
        ``*Stats`` dataclass field, which is the count's one store)."""
        self._series[freeze_labels(labels)] = value

    def bind(self, **labels: str) -> BoundCounter:
        return BoundCounter(self._series, freeze_labels(labels))

    def value(self, **labels: str) -> float:
        return self._series.get(freeze_labels(labels), 0.0)

    def total(self) -> float:
        return sum(self._series.values())

    def to_snapshot(self) -> dict[str, object]:
        shell = self._snapshot_shell()
        shell["series"] = [
            {"labels": dict(key), "value": self._series[key]}
            for key in sorted(self._series)
        ]
        return shell


class NullCounter(Counter):
    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def bind(self, **labels: str) -> BoundCounter:
        return NULL_BOUND_COUNTER


class BoundGauge:
    """A gauge series pre-resolved to one label set."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: dict[LabelKey, float], key: LabelKey) -> None:
        self._series = series
        self._key = key

    def set(self, value: float) -> None:
        self._series[self._key] = value


class NullBoundGauge(BoundGauge):
    def set(self, value: float) -> None:
        pass


class Gauge(Metric):
    """Point-in-time value, optionally split by labels."""

    kind = "gauge"

    __slots__ = ("_series",)

    def __init__(self, name: str, *, help_text: str = "", unit: str = "") -> None:
        super().__init__(name, help_text=help_text, unit=unit)
        self._series: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._series[freeze_labels(labels)] = value

    def bind(self, **labels: str) -> BoundGauge:
        return BoundGauge(self._series, freeze_labels(labels))

    def value(self, **labels: str) -> float:
        return self._series.get(freeze_labels(labels), 0.0)

    def to_snapshot(self) -> dict[str, object]:
        shell = self._snapshot_shell()
        shell["series"] = [
            {"labels": dict(key), "value": self._series[key]}
            for key in sorted(self._series)
        ]
        return shell


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # + overflow (+Inf)
        self.total = 0.0
        self.count = 0


class BoundHistogram:
    """A histogram series pre-resolved to one label set."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: "Histogram", key: LabelKey) -> None:
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        self._histogram._observe_key(self._key, value)


class NullBoundHistogram(BoundHistogram):
    def observe(self, value: float) -> None:
        pass


class Histogram(Metric):
    """Fixed-bucket distribution (bucket bounds are *upper* bounds).

    Buckets are fixed at construction — tick-denominated by default —
    so two snapshots of the same catalog metric line up bucket by
    bucket.
    """

    kind = "histogram"

    __slots__ = ("buckets", "_series")

    def __init__(
        self,
        name: str,
        *,
        help_text: str = "",
        unit: str = "",
        buckets: Sequence[float] = DEFAULT_TICK_BUCKETS,
    ) -> None:
        super().__init__(name, help_text=help_text, unit=unit)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: histogram buckets must strictly increase")
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def _series_for(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        return series

    def _observe_key(self, key: LabelKey, value: float) -> None:
        series = self._series_for(key)
        # Upper bounds are inclusive, so the first bound >= value is the
        # target bucket; past the last bound lands in the overflow slot.
        series.bucket_counts[bisect_left(self.buckets, value)] += 1
        series.total += value
        series.count += 1

    def bind(self, **labels: str) -> BoundHistogram:
        return BoundHistogram(self, freeze_labels(labels))

    def count(self, **labels: str) -> int:
        series = self._series.get(freeze_labels(labels))
        return series.count if series else 0

    def sum(self, **labels: str) -> float:
        series = self._series.get(freeze_labels(labels))
        return series.total if series else 0.0

    def bucket_counts(self, **labels: str) -> list[int]:
        series = self._series.get(freeze_labels(labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        return list(series.bucket_counts)

    def mean(self, **labels: str) -> float:
        series = self._series.get(freeze_labels(labels))
        if series is None or series.count == 0:
            return 0.0
        return series.total / series.count

    def to_snapshot(self) -> dict[str, object]:
        shell = self._snapshot_shell()
        bounds: list[Union[float, str]] = [*self.buckets, "+Inf"]
        shell["series"] = [
            {
                "labels": dict(key),
                "count": self._series[key].count,
                "sum": self._series[key].total,
                "buckets": [
                    [bound, count]
                    for bound, count in zip(bounds, self._series[key].bucket_counts)
                ],
            }
            for key in sorted(self._series)
        ]
        return shell


class NullHistogram(Histogram):

    def bind(self, **labels: str) -> BoundHistogram:
        return NULL_BOUND_HISTOGRAM


#: Shared no-op singletons handed out when telemetry is disabled.
NULL_BOUND_COUNTER = NullBoundCounter({}, ())
NULL_BOUND_GAUGE = NullBoundGauge({}, ())
NULL_COUNTER = NullCounter("null")
NULL_HISTOGRAM = NullHistogram("null", buckets=(1.0,))
NULL_BOUND_HISTOGRAM = NullBoundHistogram(NULL_HISTOGRAM, ())
