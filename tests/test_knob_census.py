"""The deployment surfaces take exactly these parameters.

Every knob on these signatures is code somebody has to keep working, so
the set is pinned here by name, in order.  Adding a knob means editing
``SURFACES`` in the open, in the same change, and saying who uses it —
the way ``TELEMETRY_FRAME_BUDGET`` in ``test_core_client.py`` makes more
telemetry on the read path a visible decision.  The knob census in
CHANGES.md found knobs with no user outside their own unit tests — the
replica selectors, per-server lag, spill caps and principal credits,
then heat-weighted placement, rebalancing and the cluster monitor, then
rotating reads, per-call staleness bounds and the snapshot view spill,
then the one-shot cipher helpers and the cipher cache behind them,
then the event loop's bands, cancellation, RNG and task handles,
then the telemetry kill switch, snapshot merge/reset and the
``Telemetry`` registry and trace-capacity parameters,
then the per-call ``consistency`` of every cluster read and write (the
cluster's ``read_consistency`` / ``write_consistency`` is the one home of
a level), the per-query ``max_requests`` (now the constant
``repro.core.client.MAX_REQUESTS``) and the shard's view capacity,
then a batch's placement ``epoch`` and ``trace_id`` (a coordinator flush
is one ``ServerCluster.batch_fetch``, routed and served in one call),
then the caller-supplied nonce of ``StreamCipher.encrypt``, the
``NonceSequence`` behind it and the key service's cache of them (sealing
is SIV: the IV is a PRF of the plaintext), and the snippet store,
then the response policy's growth factor (the doubling is the paper's
constant), ``Prf.evaluate_int``, the Zerber ordering ``add_random`` on
the Zerber+R list and every ``size_bits`` (a wire size is a count times
``WIRE_ELEMENT_BITS``),
then the event loop itself (the coordinator keeps a per-tick agenda),
then the coordinator's arrival intake with its ``at`` and
``retry_on_shed`` knobs, its shed log, ``open_session`` and
``run_until_complete`` (``submit`` is the one intake, ``drain`` the one
run-to-quiescence driver), then a shed's ``retry_after_ticks`` (always 1),
then a slice's ``trace_id`` (the coordinator files a flush under the
session's own trace) and the replication manager's partition table (the
cluster owns the topology, ``repro.core.placement`` folded into it);
they were deleted, and this test keeps them from drifting back.
"""

import importlib
import inspect

import pytest

import repro
import repro.baselines
import repro.core
import repro.corpus
import repro.crypto
import repro.errors
import repro.evalmetrics
import repro.index
import repro.obs
import repro.obs.metrics
import repro.persist
import repro.stats
import repro.text
from repro.core.client import ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.confidentiality import ConfidentialityAudit
from repro.core.idf import BucketedIdf
from repro.core.protocol import (
    BatchFetchRequest,
    FetchRequest,
    FetchResponse,
    QueryTrace,
    ResponsePolicy,
)
from repro.core.replication import ReplicationManager
from repro.core.router import Coordinator, CoordinatorStats
from repro.core.rstf import Rstf
from repro.core.server import ZerberRServer
from repro.core.sigma import SigmaSelection
from repro.core.system import ZerberRSystem
from repro.corpus.querylog import QueryLog
from repro.crypto.cipher import StreamCipher
from repro.crypto.keys import GroupKeyService
from repro.crypto.prf import Prf
from repro.index.inverted import OrdinaryInvertedIndex
from repro.index.merge import MergePlan
from repro.index.postings import EncryptedPostingElement, MergedPostingList, PostingElement
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.metrics import Histogram
from repro.obs.trace import Tracer
from repro.persist import load_cluster, save_cluster
from repro.text.vocabulary import Vocabulary

SURFACES = {
    "ZerberRSystem.deploy_cluster": (
        ZerberRSystem.deploy_cluster,
        "num_servers replication lag read_consistency "
        "anti_entropy_every write_consistency failover_after telemetry "
        "round_latency max_queue_depth",
    ),
    "ZerberRSystem.restore_cluster": (
        ZerberRSystem.restore_cluster,
        "path telemetry round_latency max_queue_depth",
    ),
    "ZerberRSystem.snapshot_cluster": (
        ZerberRSystem.snapshot_cluster,
        "path cluster",
    ),
    "ServerCluster.__init__": (
        ServerCluster.__init__,
        "key_service num_lists num_servers replication lag "
        "read_consistency anti_entropy_every write_consistency "
        "failover_after telemetry",
    ),
    "Coordinator.__init__": (
        Coordinator.__init__,
        "cluster round_latency max_queue_depth",
    ),
    # A level is the cluster's setting, never a per-call argument.
    "ServerCluster.insert": (ServerCluster.insert, "principal list_id element"),
    "ServerCluster.insert_many": (ServerCluster.insert_many, "principal items"),
    "ServerCluster.delete_many": (ServerCluster.delete_many, "principal receipts"),
    # A delete names its element by a Receipt, TRS included.
    "ServerCluster.delete_element": (ServerCluster.delete_element, "principal receipt"),
    "ServerCluster.route": (ServerCluster.route, "list_id min_version"),
    "ServerCluster.fetch": (ServerCluster.fetch, "request"),
    "ServerCluster.batch_fetch": (ServerCluster.batch_fetch, "batch"),
    "ServerCluster.serve_envelope": (
        ServerCluster.serve_envelope,
        "server_index envelope",
    ),
    # Slices and nothing else: no placement epoch, no trace id.
    "BatchFetchRequest": (BatchFetchRequest, "requests"),
    # What the server sees of a slice; no session-linkage trace id.
    "FetchRequest": (FetchRequest, "principal list_id offset count min_version"),
    # Every follow-up doubles (§5.2, Eq. 12): b is the one knob.
    "ResponsePolicy": (ResponsePolicy, "initial_size"),
    # The request cap is one constant; ``policy`` is what the figure
    # benches vary.
    "ZerberRClient.query": (ZerberRClient.query, "term k policy"),
    "ZerberRClient.query_multi_batched": (
        ZerberRClient.query_multi_batched,
        "terms k policy",
    ),
    "ZerberRClient.open_multi_session": (
        ZerberRClient.open_multi_session,
        "terms k policy",
    ),
    # The one intake: a session the caller opened, admitted at ``now``.
    "Coordinator.submit": (Coordinator.submit, "session"),
    "Coordinator.run_queries": (Coordinator.run_queries, "jobs policy"),
    "ZerberRServer.__init__": (ZerberRServer.__init__, "key_service num_lists"),
    # The IV is derived from the plaintext; no caller supplies a nonce.
    "StreamCipher.encrypt": (StreamCipher.encrypt, "plaintext"),
    "Telemetry.__init__": (Telemetry.__init__, ""),
    # The coordinator keeps its own clock: a tick's agenda, then one
    # replication tick.  ``now`` is a read-only property.
    "Coordinator.advance": (Coordinator.advance, "ticks"),
    "Coordinator.drain": (Coordinator.drain, "max_ticks"),
    "load_cluster": (
        load_cluster,
        "path key_service telemetry",
    ),
    "save_cluster": (
        save_cluster,
        "path cluster merge_plan rstf_model",
    ),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_surface_takes_exactly_the_pinned_parameters(surface):
    function, expected = SURFACES[surface]
    parameters = [p for p in inspect.signature(function).parameters if p != "self"]
    assert parameters == expected.split()


@pytest.mark.parametrize(
    "function",
    [ZerberRSystem.deploy_cluster, ServerCluster.__init__, ReplicationManager.__init__],
    ids=["deploy_cluster", "ServerCluster", "ReplicationManager"],
)
def test_lag_is_one_int_defaulting_to_zero(function):
    lag = inspect.signature(function).parameters["lag"]
    assert (lag.annotation, lag.default) == ("int", 0)


DELETED_NAMES = {
    "repro": (
        repro,
        "LagModel LeastLoadedReads HeatWeightedPlacement PlacementPolicy "
        "RoundRobinPlacement load_balance_ratio "
        "ReadSelector PrimaryReads RotatingReads coerce_read_selector "
        "QueryLog ZerberRServer save_index load_index "
        "IndexingError CryptoError StaleEpochError __version__ "
        "SnippetStore SnippetClient EventLoop "
        "AuthenticationError ConfidentialityViolationError random_merge",
    ),
    "repro.core": (
        repro.core,
        "LagModel LeastLoadedReads HeatWeightedPlacement PlacementPolicy "
        "RoundRobinPlacement load_balance_ratio "
        "ReadSelector PrimaryReads RotatingReads coerce_read_selector "
        "EventHandle PeriodicTask FOREGROUND BACKGROUND MAINTENANCE "
        "DeliveryOutlook ReplicationLog tfidf_rscore ZerberRServer "
        "SigmaSelection attribution_probabilities probability_amplification "
        "EventLoop rscore require_r_confidential",
    ),
    "repro.crypto": (
        repro.crypto,
        "cipher_for_key encrypt decrypt Principal NonceSequence",
    ),
    "repro.index": (repro.index, "merged_list_confidentiality random_merge"),
    "repro.baselines": (repro.baselines, "OrdinarySearchSystem"),
    "repro.evalmetrics": (
        repro.evalmetrics,
        "query_efficiency total_response_size satisfied_fraction precision_at_k",
    ),
    "repro.stats": (
        repro.stats,
        "gaussian_cdf logistic_cdf ZipfSampler k_fold_indices empirical_cdf",
    ),
    "repro.text": (repro.text, "simple_tokenize normalized_tf raw_tf"),
    "repro.corpus": (repro.corpus, "corpus_from_texts single_term_log"),
    "repro.obs": (
        repro.obs,
        "ClusterMonitor MonitorSample MetricSpec metrics_to_dict trace_to_dict",
    ),
    "repro.persist": (
        repro.persist,
        "DEFAULT_VIEW_SPILL cluster_to_dict cluster_from_dict "
        "merge_plan_from_dict replication_op_to_dict replication_op_from_dict "
        "rstf_model_from_dict save_index load_index server_from_dict "
        "server_to_dict load_server_state",
    ),
}


@pytest.mark.parametrize("module", sorted(DELETED_NAMES))
def test_deleted_names_are_not_exported(module):
    namespace, names = DELETED_NAMES[module]
    for name in names.split():
        assert name not in namespace.__all__ and not hasattr(namespace, name)


@pytest.mark.parametrize(
    "owner, names",
    [
        (
            ServerCluster,
            "_resolve_consistency _resolve_write_consistency _route_read "
            "_serve _check_write_quorum",
        ),
        (
            Coordinator,
            "_envelope_trace loop submit_arrival _admit_arrival _check_intake "
            "open_session run_until_complete sheds",
        ),
        (CoordinatorStats, "stale_epoch_reroutes"),
        (ReplicationManager, "pause resume is_paused paused_servers"),
        (repro.core.protocol.BackpressureSignal("p", 0, 1, 1), "retry_after_ticks"),
        (repro.errors.BackpressureError, "retry_after_ticks"),
        (ZerberRSystem, "with_config"),
        (Rstf, "num_training_points"),
        (repro.errors, "IndexingError StaleEpochError AuthenticationError"),
        (repro.errors.QuorumUnavailableError, "live"),
        (GroupKeyService, "nonce_sequence"),
        (Prf, "evaluate_int"),
        (MergedPostingList, "add_random size_bits slice clear"),
        (EncryptedPostingElement, "size_bits"),
        (FetchResponse, "size_bits"),
        (StreamCipher, "decrypt"),
        (PostingElement, "to_bytes"),
        (MergePlan, "verify all_terms"),
        (ConfidentialityAudit, "violating_lists"),
        (BatchFetchRequest, "for_slices"),
        (QueryTrace, "total_response_size"),
        (SigmaSelection, "is_u_shaped"),
        (BucketedIdf, "leakage_bits empirical_leakage_bits terms"),
        (
            QueryLog,
            "total_queries distinct_queries mean_terms_per_query distinct_terms head_share",
        ),
        (Vocabulary, "idf probability_or_zero total_term_occurrences document_frequencies"),
        (ZerberRClient, "index_document"),
        (OrdinaryInvertedIndex, "num_terms document_frequency scores_for_term"),
        (repro.obs.metrics, "NullGauge NULL_GAUGE"),
        (Histogram, "observe"),
        (Tracer, "reset capacity"),
    ],
    ids=[
        "ServerCluster",
        "Coordinator",
        "CoordinatorStats",
        "ReplicationManager",
        "BackpressureSignal",
        "BackpressureError",
        "ZerberRSystem",
        "Rstf",
        "repro.errors",
        "QuorumUnavailableError",
        "GroupKeyService",
        "Prf",
        "MergedPostingList",
        "EncryptedPostingElement",
        "FetchResponse",
        "StreamCipher",
        "PostingElement",
        "MergePlan",
        "ConfidentialityAudit",
        "BatchFetchRequest",
        "QueryTrace",
        "SigmaSelection",
        "BucketedIdf",
        "QueryLog",
        "Vocabulary",
        "ZerberRClient",
        "OrdinaryInvertedIndex",
        "repro.obs.metrics",
        "Histogram",
        "Tracer",
    ],
)
def test_deleted_members_stay_gone(owner, names):
    for name in names.split():
        assert not hasattr(owner, name), name


def test_the_placement_module_is_folded_into_the_cluster():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.placement")
    assert repro.core.round_robin_placement is repro.core.cluster.round_robin_placement


def test_the_coordinator_clock_is_a_read_only_property():
    assert isinstance(Coordinator.now, property) and Coordinator.now.fset is None


def test_telemetry_has_no_kill_switch_merge_or_reset():
    for cls in (Telemetry, MetricsRegistry):
        for name in ("suspend", "resume", "merge_snapshot", "reset"):
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
