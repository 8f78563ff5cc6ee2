"""Property suite for overload behaviour of the event-driven coordinator.

Hypothesis drives open-loop arrival tapes *above* the admission capacity
— at each tick, that tick's arrivals are submitted, then the coordinator
advances one tick — and checks the backpressure invariants that make
shedding safe:

* the parked-session count never exceeds ``max_queue_depth`` — the bound
  is enforced at admission, not discovered at flush time;
* no acknowledged work is lost: every admitted session completes, and
  each result equals the direct query path (shedding refuses admission,
  it never corrupts scheduling);
* each refused submit raises once, with a well-formed retry hint, is
  counted once, and leaves nothing parked or queued for its session;
* after quiescence the replication data plane converges — all replicas
  of every list agree with the primary (the replication tick that ends
  every coordinator tick is a full substitute for the legacy chained one);
* the same arrival tape against a fresh identical deployment produces
  identical stats and refusals (virtual-time determinism).
"""

from hypothesis import given, settings, strategies as st

from repro.core.client import ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.router import Coordinator
from repro.core.rstf import RstfModel, train_rstf
from repro.crypto.keys import GroupKeyService
from repro.errors import BackpressureError
from repro.index.merge import MergePlan
from repro.text.analysis import DocumentStats
from tests.conftest import held_work

TERMS = ("apple", "pear", "plum")
PRINCIPALS = ("p0", "p1", "p2")

PLAN = MergePlan(groups=(("apple", "pear"), ("plum",)), r=2.0)
MODEL = RstfModel(
    {
        "apple": train_rstf([0.1, 0.2, 0.3, 0.5], sigma=20.0),
        "pear": train_rstf([0.05, 0.15, 0.4], sigma=20.0),
        "plum": train_rstf([0.2, 0.6], sigma=20.0),
    }
)


def _keys():
    svc = GroupKeyService(master_secret=b"b" * 32)
    for principal in PRINCIPALS:
        svc.register(principal, {"g1"})
    return svc


def _deploy(docs, *, max_queue_depth, round_latency, lag=0):
    """Fresh cluster + coordinator with *docs* indexed before arrivals."""
    keys = _keys()
    cluster = ServerCluster(
        keys,
        num_lists=PLAN.num_lists,
        num_servers=2,
        replication=2,
        lag=lag,
    )
    clients = {
        p: ZerberRClient(
            principal=p,
            key_service=keys,
            server=cluster,
            rstf_model=MODEL,
            merge_plan=PLAN,
        )
        for p in PRINCIPALS
    }
    writer = clients[PRINCIPALS[0]]
    for i, counts in enumerate(docs):
        writer.index_document_with_receipts(
            DocumentStats.from_counts(f"doc-{i}", counts), "g1"
        )
    cluster.run_replication_until_quiet()
    coordinator = Coordinator(
        cluster,
        max_queue_depth=max_queue_depth,
        round_latency=round_latency,
    )
    return cluster, coordinator, clients


# One document's term counts: every doc mentions at least one query term.
doc_counts = st.dictionaries(
    st.sampled_from(TERMS), st.integers(1, 6), min_size=1, max_size=3
)

# One arrival: (tick, principal index, terms to query, k).
arrivals_strategy = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, len(PRINCIPALS) - 1),
        st.lists(st.sampled_from(TERMS), min_size=1, max_size=2, unique=True),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=10,
)


def _run_schedule(coordinator, clients, arrivals):
    """At each tick, submit that tick's arrivals, then ``advance(1)``;
    then drain.  Returns the admitted ``(arrival, session)`` pairs, the
    refusals' signals and the queue depth read after each tape tick,
    once its replication tick has run."""
    admitted, refused, depths = [], [], []
    for tick in range(max(arrival[0] for arrival in arrivals) + 1):
        for arrival in (a for a in arrivals if a[0] == tick):
            _, principal_idx, terms, k = arrival
            client = clients[PRINCIPALS[principal_idx]]
            session = client.open_multi_session(terms, k)
            held = held_work(coordinator)
            try:
                coordinator.submit(session)
                admitted.append((arrival, session))
            except BackpressureError as error:
                refused.append(error.signal)
                # Nothing parked or queued for a refused session.
                assert held_work(coordinator) == held
        coordinator.advance(1)
        depths.append(coordinator.active_sessions)
    coordinator.drain(max_ticks=1_000)
    return admitted, refused, depths


@given(
    docs=st.lists(doc_counts, min_size=1, max_size=5),
    arrivals=arrivals_strategy,
    max_queue_depth=st.integers(1, 3),
    round_latency=st.integers(0, 2),
)
@settings(max_examples=25, deadline=None)
def test_overload_sheds_without_losing_work(
    docs, arrivals, max_queue_depth, round_latency
):
    cluster, coordinator, clients = _deploy(
        docs,
        max_queue_depth=max_queue_depth,
        round_latency=round_latency,
    )
    admitted, refused, depths = _run_schedule(coordinator, clients, arrivals)
    # Bounded queue: admission enforces the depth cap at every instant.
    assert all(depth <= max_queue_depth for depth in depths)
    # No lost acknowledged work: every admitted session completed.
    assert all(session.done for _, session in admitted)
    assert coordinator.stats.sessions_completed == len(admitted)
    # Each refused submit raised once, was counted once, and carries a
    # well-formed signal.
    assert len(admitted) + len(refused) == len(arrivals)
    assert coordinator.stats.backpressure_sheds == len(refused)
    for signal in refused:
        assert signal.queue_depth >= signal.limit == max_queue_depth
    # Scheduling never corrupts results: each equals the direct path.
    for (tick, principal_idx, terms, k), session in admitted:
        direct = clients[PRINCIPALS[principal_idx]].query_multi_batched(
            terms, k
        )
        assert session.result().ranked == direct.ranked


@given(
    docs=st.lists(doc_counts, min_size=1, max_size=4),
    arrivals=arrivals_strategy,
    lag=st.integers(1, 4),
)
@settings(max_examples=15, deadline=None)
def test_replication_converges_after_quiesce(docs, arrivals, lag):
    cluster, coordinator, clients = _deploy(
        docs, max_queue_depth=2, round_latency=1, lag=lag
    )
    _run_schedule(coordinator, clients, arrivals)
    cluster.run_replication_until_quiet()
    for list_id in range(PLAN.num_lists):
        versions = {
            cluster.applied_version(list_id, s)
            for s in cluster.replicas_of(list_id)
        }
        assert versions == {cluster.primary_version(list_id)}


@given(
    docs=st.lists(doc_counts, min_size=1, max_size=4),
    arrivals=arrivals_strategy,
    round_latency=st.integers(0, 2),
)
@settings(max_examples=10, deadline=None)
def test_same_tape_is_deterministic(docs, arrivals, round_latency):
    runs = []
    for _ in range(2):
        _, coordinator, clients = _deploy(
            docs, max_queue_depth=2, round_latency=round_latency
        )
        admitted, refused, depths = _run_schedule(coordinator, clients, arrivals)
        runs.append(
            (
                coordinator.stats,
                refused,
                depths,
                [session.result().ranked for _, session in admitted],
                coordinator.now,
            )
        )
    assert runs[0] == runs[1]
