"""The four workloads: what each deploys, replays and guards.

Every workload is a closed loop driven by one thread — the system under
test is a single-threaded in-process library, so the next op is issued
only after the previous one returned.  A *pass* replays the same seeded
tape against the same logical state, so the paper's count units repeat
exactly from pass to pass while the timings are sampled again.

Why these four (the one-line reasons live in ``metrics.WORKLOADS``):
``direct-hot`` and ``direct-cold`` drive the same layers the opposite
way — the hot working set fits the per-server view LRU (256) and the
per-(principal, group) decrypt memo (8192), the cold one cannot — so a
cache or kernel change that helps one and costs the other shows.
``coordinator-concurrent`` is the only one that puts the router on the
path, ``mixed-write-read`` the only one that writes.

Op counts are the issue's reference shape scaled by one common factor
(1/4) so that a run fits the driver's time cap; the ratios between
workloads are kept.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from time import perf_counter
from typing import Any, ClassVar

from model import PlaintextModel
from tracing import CHECK, Tracer

from repro import SystemConfig, ZerberRSystem
from repro.core.client import ZerberRClient
from repro.core.replication import ReadConsistency, WriteConsistency
from repro.corpus import QueryLogConfig, QueryLogGenerator, studip_like, tiny_corpus
from repro.corpus.documents import Corpus
from repro.errors import ReproError
from repro.text.analysis import DocumentStats

NUM_SERVERS = 4
IN_FLIGHT = 16  # coordinator-concurrent keeps this many sessions parked
READS_PER_STEP = 10  # mixed-write-read: reader queries per insert+delete step


@dataclass(frozen=True)
class Scale:
    """Input sizes: ``FULL`` is what is measured, ``QUICK`` a seconds-scale
    smoke configuration (its numbers mean nothing; guards are not enforced)."""

    name: str
    corpus: Callable[[], Corpus]
    hot_queries: int
    hot_groups: int
    cold_principals: int
    cold_groups: int
    coord_queries: int
    mixed_steps: int
    mixed_delete_lag: int
    check_every: int


FULL = Scale(
    name="full",
    corpus=lambda: studip_like(num_documents=400, vocabulary_size=5000, seed=7),
    hot_queries=2000,
    hot_groups=12,
    cold_principals=50,
    cold_groups=8,
    coord_queries=1500,
    mixed_steps=50,
    mixed_delete_lag=15,
    check_every=25,
)
QUICK = Scale(
    name="quick",
    corpus=tiny_corpus,
    hot_queries=60,
    hot_groups=2,
    cold_principals=3,
    cold_groups=2,
    coord_queries=60,
    mixed_steps=5,
    mixed_delete_lag=2,
    check_every=5,
)
COLD_RUN = 20  # consecutive queries per cold principal

_NO_SPAN: AbstractContextManager[None] = nullcontext()


def _no_root(name: str, op: int = -1) -> AbstractContextManager[None]:
    return _NO_SPAN


@dataclass
class PassResult:
    """What one pass measured.

    ``steps`` are the consecutive timed stretches the pass consists of
    (one per op, loop iteration or replication tick — the same stretch at
    the same position in every pass), checks and resets excluded; they sum
    to the pass's wall time.  ``query_latency`` is in tape order.
    """

    ops: int = 0
    queries: int = 0
    writes: int = 0
    failed: int = 0
    steps: list[float] = field(default_factory=list)
    query_latency: list[float] = field(default_factory=list)
    write_latency: list[float] = field(default_factory=list)
    rounds: int = 0
    elements: int = 0
    bits: int = 0
    # (client index, terms, ranked) of the 1-in-N sampled queries.
    samples: list[tuple[int, tuple[str, ...], tuple[tuple[str, float], ...]]] = field(
        default_factory=list
    )
    max_in_flight: int = 0
    # Why ops failed their correctness checks (each also counts in ``failed``).
    reasons: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.steps)

    def record_query(self, latency: float, result: Any) -> None:
        self.query_latency.append(latency)
        trace = result.batch_trace
        self.rounds += trace.num_rounds
        self.elements += trace.elements_transferred
        self.bits += trace.bits_transferred


class Workload:
    """Shared deployment, tape and counter plumbing of the four workloads."""

    name: ClassVar[str]
    k: ClassVar[int]
    popularity_exponent: ClassVar[float]
    deploy: ClassVar[dict[str, Any]]

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self.principals: list[str] = []
        self.groups: list[frozenset[str]] = []
        self.clients: list[ZerberRClient] = []
        self.tape: list[tuple[int, tuple[str, ...]]] = []

    # -- setup (timed as setup_s, together with the warm-up pass) -----------------

    def build(self) -> None:
        """Corpus, offline phase, cluster deployment, principal registration."""
        self.corpus = self.scale.corpus()
        self.system = ZerberRSystem.build(self.corpus, SystemConfig(r=4.0, seed=41))
        self.cluster, self.coordinator = self.system.deploy_cluster(
            num_servers=NUM_SERVERS, **self.deploy
        )
        self.register()

    def register(self) -> None:
        raise NotImplementedError

    def _register(self, prefix: str, count: int, groups_each: int) -> None:
        all_groups = sorted(self.corpus.groups())
        for index in range(count):
            name = f"{prefix}{index}"
            # Drawn per principal name, not per seed: seed-drawn group sets
            # moved elements_per_query by ~3% (IQR over ten seeds), more
            # than a regression bound can absorb.
            groups = frozenset(
                random.Random(f"groups:{name}").sample(all_groups, groups_each)
            )
            self.system.key_service.register(name, set(groups))
            self.principals.append(name)
            self.groups.append(groups)
            self.clients.append(self._new_client(name))

    def _new_client(self, principal: str) -> ZerberRClient:
        return ZerberRClient(
            principal=principal,
            key_service=self.system.key_service,
            server=self.cluster,
            rstf_model=self.system.rstf_model,
            merge_plan=self.system.merge_plan,
        )

    # -- harness bookkeeping (untimed) ---------------------------------------------

    def prepare(self) -> None:
        """Build the plaintext model and the seeded query tape."""
        self.model = PlaintextModel(self.corpus, self.system.rstf_model)
        self.tape = self._make_tape()

    def _queries(self, count: int) -> list[tuple[str, ...]]:
        """*count* query term tuples: a fixed synthetic log in seeded order.

        The log is generated once (the generator's own default seed); the
        benchmark seed decides the order of its queries and, in
        ``_make_tape``, who issues each.  Seeding the generator itself
        re-rolls which terms form the head, which moved the work per query
        by ~15% between seeds, and even replaying a seeded 7-of-8 sample
        of the log moved it by ~1.5% — the driver judges steadiness over
        ten different seeds, and these are the paper's units.
        """
        log = QueryLogGenerator(
            self.system.vocabulary,
            QueryLogConfig(num_queries=count, popularity_exponent=self.popularity_exponent),
        ).generate()
        queries = [query.terms for query in log]
        self.rng.shuffle(queries)
        return queries

    def _make_tape(self) -> list[tuple[int, tuple[str, ...]]]:
        raise NotImplementedError

    def between_passes(self) -> None:
        """Untimed reset that makes every pass start from the same state."""

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError

    def verify(self, result: PassResult) -> list[str]:
        """Reasons the sampled queries of a pass failed their checks."""
        reasons = []
        for who, terms, ranked in result.samples:
            reason = self.model.check(self.groups[who], terms, self.k, ranked)
            if reason is not None:
                reasons.append(f"{self.principals[who]} {terms}: {reason}")
        return reasons

    # -- public counters, read at pass boundaries ------------------------------------

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, stats in (
            ("views", self.cluster.view_stats()),
            ("replication", self.cluster.replication_stats),
            ("router", self.coordinator.stats),
        ):
            for f in dataclass_fields(stats):
                out[f"{prefix}.{f.name}"] = getattr(stats, f.name)
        out["cluster.total_calls"] = self.cluster.total_calls
        for index, load in enumerate(self.cluster.per_server_load()):
            out[f"cluster.load.{index}"] = load
        keys = self.system.key_service
        out["crypto.memo_hits"] = sum(
            keys.cipher_for(principal, group).memo_hits
            for principal, groups in zip(self.principals, self.groups)
            for group in groups
        )
        return out

    def guards(self, layer: dict[str, float], passes: Sequence[PassResult]) -> list[str]:
        """Fidelity violations: the workload no longer is what its name says."""
        raise NotImplementedError


class DirectWorkload(Workload):
    """One caller replaying the tape with ``query_multi_batched``."""

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        root = tracer.root if tracer is not None else _no_root
        out = PassResult()
        clients, k, every = self.clients, self.k, self.scale.check_every
        starts = []
        for index, (who, terms) in enumerate(self.tape):
            began = perf_counter()
            starts.append(began)
            try:
                with root("op.query", index):
                    result = clients[who].query_multi_batched(terms, k)
            except ReproError:
                out.failed += 1
                continue
            out.record_query(perf_counter() - began, result)
            if index % every == 0:
                out.samples.append((who, terms, result.ranked))
        starts.append(perf_counter())
        out.steps = [b - a for a, b in zip(starts, starts[1:])]
        out.ops = out.queries = len(self.tape)
        return out


class DirectHot(DirectWorkload):
    name = "direct-hot"
    k = 10
    popularity_exponent = 1.5
    deploy = {"replication": 2}

    def register(self) -> None:
        self._register("hot", 2, self.scale.hot_groups)

    def _make_tape(self) -> list[tuple[int, tuple[str, ...]]]:
        return [
            (self.rng.randrange(2), terms)
            for terms in self._queries(self.scale.hot_queries)
        ]

    def guards(self, layer: dict[str, float], passes: Sequence[PassResult]) -> list[str]:
        out = []
        if layer["views.hit_ratio"] < 0.99:
            out.append(f"views.hit_ratio {layer['views.hit_ratio']:.4f} < 0.99")
        if layer["crypto.memo_hit_ratio"] < 0.95:
            out.append(f"crypto.memo_hit_ratio {layer['crypto.memo_hit_ratio']:.4f} < 0.95")
        return out


class DirectCold(DirectWorkload):
    name = "direct-cold"
    k = 50
    popularity_exponent = 0.8
    deploy = {"replication": 2}

    def register(self) -> None:
        self._register("cold", self.scale.cold_principals, self.scale.cold_groups)

    def _make_tape(self) -> list[tuple[int, tuple[str, ...]]]:
        queries = self._queries(self.scale.cold_principals * COLD_RUN)
        return [(index // COLD_RUN, terms) for index, terms in enumerate(queries)]

    def between_passes(self) -> None:
        # Both the key service and the client cache the per-group cipher
        # (and with it the decrypt memo), so both must go for the memo to
        # start empty.  The views need no reset: principals x lists far
        # exceeds the LRU, so they were evicted before their owner returns.
        keys = self.system.key_service
        for index, (principal, groups) in enumerate(zip(self.principals, self.groups)):
            for group in sorted(groups):
                keys.revoke(principal, group)
                keys.enroll(principal, group)
            self.clients[index] = self._new_client(principal)

    def guards(self, layer: dict[str, float], passes: Sequence[PassResult]) -> list[str]:
        out = []
        if layer["views.hit_ratio"] > 0.5:
            out.append(f"views.hit_ratio {layer['views.hit_ratio']:.4f} > 0.5")
        if layer["crypto.memo_hit_ratio"] > 0.2:
            out.append(f"crypto.memo_hit_ratio {layer['crypto.memo_hit_ratio']:.4f} > 0.2")
        return out


class CoordinatorConcurrent(Workload):
    name = "coordinator-concurrent"
    k = 10
    popularity_exponent = 1.5
    deploy = {"replication": 2, "round_latency": 1}

    def register(self) -> None:
        self._register("coord", 4, self.scale.hot_groups)

    def _make_tape(self) -> list[tuple[int, tuple[str, ...]]]:
        return [
            (self.rng.randrange(4), terms)
            for terms in self._queries(self.scale.coord_queries)
        ]

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        """Keep ``IN_FLIGHT`` sessions parked; refill as they complete.

        Latency runs from opening the session to the tick in which it is
        observed done — what a caller polling its session would see.
        """
        root = tracer.root if tracer is not None else _no_root
        out = PassResult()
        coordinator, clients, k = self.coordinator, self.clients, self.k
        tape, every = self.tape, self.scale.check_every
        parked: list[tuple[Any, float, int]] = []
        latency: dict[int, float] = {}
        next_index = 0
        starts = []
        while parked or next_index < len(tape):
            starts.append(perf_counter())
            while len(parked) < IN_FLIGHT and next_index < len(tape):
                who, terms = tape[next_index]
                began = perf_counter()
                try:
                    with root("op.submit", next_index):
                        session = clients[who].open_multi_session(terms, k)
                        coordinator.submit(session)
                except ReproError:
                    out.failed += 1
                else:
                    parked.append((session, began, next_index))
                next_index += 1
            out.max_in_flight = max(out.max_in_flight, len(parked))
            with root("op.tick"):
                coordinator.tick()
            now = perf_counter()
            still = []
            for entry in parked:
                session, began, index = entry
                if not session.done:
                    still.append(entry)
                    continue
                with root("op.result", index):
                    result = session.result()
                out.record_query(now - began, result)
                latency[index] = now - began
                if index % every == 0:
                    who, terms = tape[index]
                    out.samples.append((who, terms, result.ranked))
            parked = still
        starts.append(perf_counter())
        out.steps = [b - a for a, b in zip(starts, starts[1:])]
        out.query_latency = [latency[index] for index in sorted(latency)]
        out.ops = out.queries = len(tape)
        return out

    def verify(self, result: PassResult) -> list[str]:
        reasons = super().verify(result)
        for who, terms, ranked in result.samples:
            direct = self.clients[who].query_multi_batched(terms, self.k).ranked
            if direct != ranked:
                reasons.append(
                    f"{self.principals[who]} {terms}: session result differs "
                    "from query_multi_batched"
                )
        return reasons

    def guards(self, layer: dict[str, float], passes: Sequence[PassResult]) -> list[str]:
        out = []
        if layer["router.coalesce_ratio"] >= 1.0:
            out.append("router.coalesce_ratio >= 1: no slice was shared")
        if min(p.max_in_flight for p in passes) < IN_FLIGHT:
            out.append(f"never had {IN_FLIGHT} sessions in flight")
        return out


class MixedWriteRead(Workload):
    name = "mixed-write-read"
    k = 10
    popularity_exponent = 1.5
    deploy = {
        "replication": 3,
        "lag": 2,
        "write_consistency": WriteConsistency.QUORUM,
        "read_consistency": ReadConsistency.PRIMARY,
        "anti_entropy_every": 16,
    }

    def register(self) -> None:
        self._register("reader", 8, self.scale.hot_groups)

    def prepare(self) -> None:
        """Besides model and tape: pick the documents to clone and prime
        the index with the last ``delete_lag`` clones, so that every pass —
        the warm-up included — deletes what the pass before it left behind
        and the index size is steady."""
        super().prepare()
        steps, lag = self.scale.mixed_steps, self.scale.mixed_delete_lag
        vocabulary = self.system.vocabulary
        self.clones: list[tuple[DocumentStats, str, str]] = []
        # The clones are a fixed set — the middle document of each of
        # ``steps`` document-length strata (lengths are log-normal) — and
        # the seed decides the order in which they are written and deleted.
        by_length = sorted(
            self.corpus.doc_ids(), key=lambda d: (self.corpus.stats(d).length, d)
        )
        sources = [
            by_length[(2 * i + 1) * len(by_length) // (2 * steps)] for i in range(steps)
        ]
        self.rng.shuffle(sources)
        for step, doc_id in enumerate(sources):
            stats = self.corpus.stats(doc_id)
            # Clone ids repeat from pass to pass, so passes are identical
            # down to the PRF-derived TRS of training-unseen terms.
            clone = DocumentStats.from_counts(f"{doc_id}#w{step}", stats.counts)
            probe = min(stats.counts, key=lambda t: (vocabulary.document_frequency(t), t))
            self.clones.append((clone, self.corpus.document(doc_id).group, probe))
        self.receipts: dict[int, list[tuple[int, bytes]]] = {}
        for step in range(steps - lag, steps):
            clone, group, _ = self.clones[step]
            self.receipts[step] = self._owner(group).index_document_with_receipts(
                clone, group
            )
            self.cluster.replication_tick()
            self.model.add(clone, group)

    def between_passes(self) -> None:
        # Start every pass on the same phase of the anti-entropy cadence
        # (and with the lagged deliveries of the last writes drained), so
        # that a sweep lands on the same op in every pass.
        period = self.deploy["anti_entropy_every"]
        for _ in range(self.deploy["lag"]):
            self.cluster.replication_tick()
        while self.cluster.replication_manager.tick_count % period:
            self.cluster.replication_tick()

    def _owner(self, group: str, backend: Any = None) -> ZerberRClient:
        return self.system.client_for(
            f"owner:{group}", server=self.cluster if backend is None else backend
        )

    def _make_tape(self) -> list[tuple[int, tuple[str, ...]]]:
        return [
            (self.rng.randrange(8), terms)
            for terms in self._queries(self.scale.mixed_steps * READS_PER_STEP)
        ]

    def _clone_visible(self, step: int, backend: Any = None) -> bool:
        """Whether the owner's single-term query (k > df) returns clone *step*."""
        clone, group, probe = self.clones[step]
        k = self.model.readable_df(probe, (group,)) + 1
        return clone.doc_id in self._owner(group, backend).query(probe, k).doc_ids()

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        """Per step: insert a clone, tick, 5 reads, delete the clone inserted
        ``delete_lag`` steps earlier, tick, 5 reads.  Only the ops and ticks
        are timed: model upkeep and the read-your-write probe after each
        write fall between the timed stretches."""
        root = tracer.root if tracer is not None else _no_root
        out = PassResult()
        steps, lag = self.scale.mixed_steps, self.scale.mixed_delete_lag
        cluster, clients, k, every = self.cluster, self.clients, self.k, self.scale.check_every
        reads = iter(enumerate(self.tape))
        timed = out.steps.append
        op = 0

        def read_some() -> None:
            # Sampled reads are checked on the spot: the model must still
            # describe the index the query saw.
            nonlocal op
            for _ in range(READS_PER_STEP // 2):
                index, (who, terms) = next(reads)
                began = perf_counter()
                op += 1
                try:
                    with root("op.query", op):
                        result = clients[who].query_multi_batched(terms, k)
                except ReproError:
                    out.failed += 1
                    continue
                done = perf_counter()
                timed(done - began)
                out.record_query(done - began, result)
                if index % every == 0:
                    with root(CHECK):
                        reason = self.model.check(self.groups[who], terms, k, result.ranked)
                    if reason is not None:
                        out.failed += 1
                        out.reasons.append(f"{self.principals[who]} {terms}: {reason}")

        def write(kind: str, action: Callable[[], None]) -> float:
            """Time one document write and the replication tick after it."""
            nonlocal op
            op += 1
            began = perf_counter()
            with root(kind, op):
                action()
            written = perf_counter()
            with root("op.tick", op):
                cluster.replication_tick()
            timed(written - began)
            timed(perf_counter() - written)
            return written - began

        def insert(step: int) -> None:
            clone, group, _ = self.clones[step]
            self.receipts[step] = self._owner(group).index_document_with_receipts(clone, group)

        def delete(step: int) -> None:
            self._owner(self.clones[step][1]).delete_document(self.receipts.pop(step))

        for step in range(steps):
            clone, group, _ = self.clones[step]
            try:
                out.write_latency.append(write("op.insert", lambda: insert(step)))
            except ReproError:
                out.failed += 1
            else:
                self.model.add(clone, group)
                with root(CHECK):
                    visible = self._clone_visible(step)
                if not visible:
                    out.failed += 1
                    out.reasons.append(f"{clone.doc_id!r} not returned after its insert")
            read_some()

            old = (step - lag) % steps
            try:
                write("op.delete", lambda: delete(old))
            except ReproError:
                out.failed += 1
            else:
                self.model.remove(self.clones[old][0])
                with root(CHECK):
                    visible = self._clone_visible(old)
                if visible:
                    out.failed += 1
                    out.reasons.append(
                        f"{self.clones[old][0].doc_id!r} still returned after its delete"
                    )
            read_some()
        out.queries = len(self.tape)
        out.writes = 2 * steps
        out.ops = out.queries + out.writes
        return out

    # -- durability: snapshot, restore, nothing acknowledged lost -----------------

    def persist_cycle(self, path: Path, tracer: Tracer | None = None) -> tuple[float, float, Any]:
        """One snapshot + restore; returns both durations and the restored cluster."""
        root = tracer.root if tracer is not None else _no_root
        began = perf_counter()
        with root("op.snapshot"):
            self.system.snapshot_cluster(path, self.cluster)
        saved = perf_counter()
        with root("op.restore"):
            restored, _ = self.system.restore_cluster(path)
        return saved - began, perf_counter() - saved, restored

    def verify_restored(self, restored: Any) -> list[str]:
        """Every acknowledged, undeleted clone survives; every deleted one stays gone."""
        reasons = []
        for step, (clone, _, _) in enumerate(self.clones):
            live = step in self.receipts
            if self._clone_visible(step, backend=restored) != live:
                state = "missing" if live else "resurrected"
                reasons.append(f"after restore: {clone.doc_id!r} is {state}")
        return reasons

    def guards(self, layer: dict[str, float], passes: Sequence[PassResult]) -> list[str]:
        return [
            f"{name} is zero"
            for name in (
                "views.incremental_updates_per_write",
                "replication.write_ack_syncs_per_write",
                "replication.follower_ops_applied_per_write",
            )
            if layer[name] <= 0
        ]


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (DirectHot, DirectCold, CoordinatorConcurrent, MixedWriteRead)
}
