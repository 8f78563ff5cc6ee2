"""Bandwidth and efficiency metrics over query traces (paper §6.4–6.5).

* Eq. 12 — total response size after n follow-ups: ``TRes = b * Σ 2^i``
  (:meth:`~repro.core.protocol.ResponsePolicy.total_after`; traces record
  the measured value, which can be smaller when a list runs out).
* Eq. 13 — average bandwidth overhead over a workload:
  ``AvBO = mean(TRes(q) / k)`` (:func:`average_bandwidth_overhead`).
* Eq. 14 — per-query efficiency ``QRatioeff = k / TRes``
  (:meth:`~repro.core.protocol.QueryTrace.query_efficiency`); Fig. 13
  plots its sorted curve (:func:`efficiency_curve`).

Batched sessions: a multi-term query served over the batch fetch protocol
records a :class:`~repro.core.protocol.BatchQueryTrace` whose
``num_rounds`` counts actual server calls while ``num_subfetches`` counts
the slices those calls carried.  :func:`total_server_requests` sums
honest request counts over mixed trace populations, and
:func:`average_round_trips` / :func:`batched_request_reduction` quantify
the round-trip savings of batching (what the §6.6 request-count
discussion is really about once queries have several terms).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.protocol import BatchQueryTrace, QueryTrace


def average_bandwidth_overhead(traces: Sequence[QueryTrace]) -> float:
    """Eq. 13: mean of ``TRes / k`` over the workload traces."""
    if not traces:
        raise ValueError("no traces")
    return sum(t.bandwidth_overhead() for t in traces) / len(traces)


def average_num_requests(traces: Sequence[QueryTrace]) -> float:
    """Mean requests per query (the Fig. 12 statistic)."""
    if not traces:
        raise ValueError("no traces")
    return sum(t.num_requests for t in traces) / len(traces)


def efficiency_curve(traces: Sequence[QueryTrace]) -> list[float]:
    """QRatioeff per trace, sorted descending (Fig. 13's X-axis ordering).

    Fig. 13 orders "the query terms in the workload (in %), ordered by
    QRatioeff"; index i of the returned list corresponds to the
    ``100*i/len`` percentile of the workload.
    """
    if not traces:
        raise ValueError("no traces")
    return sorted((t.query_efficiency() for t in traces), reverse=True)


def efficiency_at_percentile(curve: Sequence[float], percent: float) -> float:
    """Value of a (descending) efficiency curve at a workload percentile."""
    if not curve:
        raise ValueError("empty curve")
    if not 0.0 <= percent <= 100.0:
        raise ValueError("percent must be in [0, 100]")
    index = min(int(len(curve) * percent / 100.0), len(curve) - 1)
    return curve[index]


def total_server_requests(
    traces: Sequence[QueryTrace | BatchQueryTrace],
) -> int:
    """Client round-trips issued over a mixed trace population.

    A :class:`QueryTrace` contributes its per-term request count; a
    :class:`BatchQueryTrace` contributes its round count (each round is
    one client call no matter how many slices it bundled).  Against a
    sharded :class:`~repro.core.cluster.ServerCluster` one round fans
    out to one sub-batch per touched shard server, so this counts what
    the *client* pays in latency, not per-server load — read per-shard
    load off each server's observation log instead.
    """
    if not traces:
        raise ValueError("no traces")
    return sum(t.num_requests for t in traces)


def average_round_trips(traces: Sequence[BatchQueryTrace]) -> float:
    """Mean server round-trips per batched multi-term session."""
    if not traces:
        raise ValueError("no traces")
    return sum(t.num_rounds for t in traces) / len(traces)


def batched_request_reduction(traces: Sequence[BatchQueryTrace]) -> float:
    """Fraction of round-trips batching saved: ``1 - rounds/subfetches``.

    0.0 means batching never helped (every round carried one slice — the
    single-term case); approaching 1.0 means many slices per call.
    """
    if not traces:
        raise ValueError("no traces")
    rounds = sum(t.num_rounds for t in traces)
    subfetches = sum(t.num_subfetches for t in traces)
    if subfetches == 0:
        raise ValueError("no sub-fetches recorded")
    return 1.0 - rounds / subfetches
