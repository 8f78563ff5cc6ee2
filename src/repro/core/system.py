"""End-to-end Zerber+R system assembly (the paper's two-phase pipeline).

Offline pre-computing phase (paper §5): sample a training set from the
corpus, train and publish one RSTF per training term, build the
r-confidential merge plan from (public) document-frequency statistics, and
stand up the key service and the untrusted index server — a one-server
:class:`~repro.core.cluster.ServerCluster` at replication 1.

Online phase: each document's owning group encrypts and uploads its posting
elements; registered users run top-k queries through
:class:`~repro.core.client.ZerberRClient`.

:class:`ZerberRSystem` packages all of that behind one constructor so
examples, tests and benchmarks share a single, correct assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from weakref import WeakValueDictionary

import numpy as np

from repro.core.client import QueryResult, ZerberRClient
from repro.core.cluster import ServerCluster
from repro.core.confidentiality import ConfidentialityAudit, audit_merge_plan
from repro.core.replication import ReadConsistency, WriteConsistency
from repro.core.protocol import ResponsePolicy
from repro.core.router import Coordinator
from repro.core.rstf import RstfModel, RstfTrainer, TrainerConfig
from repro.corpus.documents import Corpus
from repro.crypto.keys import GroupKeyService
from repro.errors import ConfigurationError
from repro.index.merge import MergePlan, bfm_merge, greedy_pairing_merge
from repro.obs import Telemetry
from repro.text.vocabulary import Vocabulary

MERGE_SCHEMES = ("bfm", "greedy")


@dataclass(frozen=True)
class SystemConfig:
    """Assembly parameters.

    Attributes
    ----------
    r:
        Confidentiality parameter (Def. 1/2); must be > 1.
    training_fraction:
        Fraction of the corpus sampled as the RSTF training set (paper
        §6.1.2: 30%).
    merge_scheme:
        ``"bfm"`` (the paper's choice) or ``"greedy"`` (the ablation
        that mixes frequencies, see :mod:`repro.index.merge`).
    trainer:
        RSTF training policy; ``None`` selects the heuristic-σ strategy,
        which is fast enough for whole-corpus training (the CV strategy
        reproduces Fig. 9 but costs a σ sweep per term).
    seed:
        Seed for training-set sampling.
    """

    r: float = 4.0
    training_fraction: float = 0.30
    merge_scheme: str = "bfm"
    trainer: TrainerConfig | None = None
    seed: int = 41

    def __post_init__(self) -> None:
        if self.r <= 1.0:
            raise ConfigurationError("r must be > 1")
        if not 0.0 < self.training_fraction <= 1.0:
            raise ConfigurationError("training_fraction must be in (0, 1]")
        if self.merge_scheme not in MERGE_SCHEMES:
            raise ConfigurationError(f"merge_scheme must be one of {MERGE_SCHEMES}")


class ZerberRSystem:
    """A fully assembled Zerber+R deployment over one corpus."""

    def __init__(
        self,
        corpus: Corpus,
        vocabulary: Vocabulary,
        merge_plan: MergePlan,
        rstf_model: RstfModel,
        key_service: GroupKeyService,
        cluster: ServerCluster,
        config: SystemConfig,
    ) -> None:
        self.corpus = corpus
        self.vocabulary = vocabulary
        self.merge_plan = merge_plan
        self.rstf_model = rstf_model
        self.key_service = key_service
        self.cluster = cluster
        self.config = config
        # (principal, backend id) -> client, held only while a caller holds
        # it: a cached client would pin its backend for the system's life.
        # A live client keeps its backend, hence the backend's id, alive.
        self._clients: WeakValueDictionary[tuple[str, int], ZerberRClient] = (
            WeakValueDictionary()
        )

    # -- assembly ---------------------------------------------------------------

    @classmethod
    def build(
        cls,
        corpus: Corpus,
        config: SystemConfig | None = None,
        key_service: GroupKeyService | None = None,
    ) -> "ZerberRSystem":
        """Run the offline phase and index the whole corpus.

        Each document is uploaded by a per-group owner principal (the
        collaboration-group member who shares it); a ``superuser`` principal
        enrolled in every group is registered for whole-collection query
        experiments (paper §6.6 assumes such a user).

        Pass *key_service* to use externally managed group keys (e.g. the
        CLI derives them from a user-supplied secret so a later process
        can decrypt the persisted index).
        """
        if len(corpus) == 0:
            raise ConfigurationError("corpus is empty")
        config = config if config is not None else SystemConfig()
        rng = np.random.default_rng(config.seed)

        stats = corpus.all_stats()
        vocabulary = Vocabulary.from_documents(stats)
        probabilities = {
            term: vocabulary.probability(term) for term in vocabulary
        }
        merge_plan = cls._build_merge_plan(probabilities, config)

        trainer_config = (
            config.trainer
            if config.trainer is not None
            else TrainerConfig(sigma_strategy="heuristic")
        )
        training_docs = corpus.sample(config.training_fraction, rng)
        trainer = RstfTrainer(trainer_config)
        rstf_model = trainer.train_from_documents(
            corpus.stats(doc.doc_id) for doc in training_docs
        )

        if key_service is None:
            key_service = GroupKeyService()
        for group in sorted(corpus.groups()):
            key_service.ensure_group(group)
        # Check every group, not an arbitrary one: a pre-seeded key service
        # may have enrolled the superuser in some groups but not others.
        missing = sorted(
            group
            for group in corpus.groups()
            if not key_service.is_member("superuser", group)
        )
        if missing:
            try:
                key_service.register("superuser", set(missing))
            except ConfigurationError:
                for group in missing:
                    key_service.enroll("superuser", group)

        cluster = ServerCluster(
            key_service, num_lists=merge_plan.num_lists, num_servers=1
        )
        system = cls(
            corpus=corpus,
            vocabulary=vocabulary,
            merge_plan=merge_plan,
            rstf_model=rstf_model,
            key_service=key_service,
            cluster=cluster,
            config=config,
        )
        system._index_corpus()
        return system

    @staticmethod
    def _build_merge_plan(
        probabilities: dict[str, float], config: SystemConfig
    ) -> MergePlan:
        if config.merge_scheme == "bfm":
            return bfm_merge(probabilities, config.r)
        return greedy_pairing_merge(probabilities, config.r)

    def _owner_of(self, group: str) -> str:
        """The principal that uploads *group*'s elements, enrolled if it
        is not (a pre-seeded key service may already know it)."""
        owner = f"owner:{group}"
        if not self.key_service.is_member(owner, group):
            try:
                self.key_service.register(owner, {group})
            except ConfigurationError:
                self.key_service.enroll(owner, group)
        return owner

    def _index_corpus(self) -> None:
        """Online insertion phase: per-group owners encrypt and upload.

        The one place a corpus is encrypted: each element is built once,
        into this system's own one-server :attr:`cluster`;
        :meth:`deploy_cluster` shards what is there instead of running the
        pipeline again.
        """
        for group in sorted(self.corpus.groups()):
            owner = self._owner_of(group)
            client = self.client_for(owner)
            items = []
            for doc in self.corpus.documents_in_group(group):
                items.extend(
                    client.build_document(self.corpus.stats(doc.doc_id), group)
                )
            self.cluster.insert_many(owner, items)

    def _shard_index_into(self, cluster: ServerCluster) -> None:
        """Upload the built index, as it stands, into *cluster*.

        Every list of :attr:`cluster`'s one server, read through
        ``export_list`` in list-id order, goes to one ``cluster.insert_many``
        by ``superuser`` — the gate, admission, log and ack pass of any
        write, so a superuser revoked from a group is refused before
        anything is written, and deploying enrols no one.  The new
        cluster holds the very (immutable) element objects this system's
        holds, in the same order, ties included: nothing is encrypted
        again, and a document written to or deleted from this system
        since :meth:`build` is deployed or left out like the rest.
        """
        source = self.cluster.server(0)
        lists = range(source.num_lists)
        cluster.insert_many(
            "superuser",
            ((lid, e) for lid in lists for e in source.export_list(lid)),
        )

    # -- principals and clients -----------------------------------------------------

    def register_user(self, name: str, groups: set[str]) -> ZerberRClient:
        """Register a new principal and return its client."""
        self.key_service.register(name, groups)
        return self.client_for(name)

    def client_for(
        self, principal: str, server: ServerCluster | None = None
    ) -> ZerberRClient:
        """A (cached) client bound to *principal*.

        Without *server*, the client talks to this system's own
        :attr:`cluster`; with *server* — e.g. a cluster deployed via
        :meth:`deploy_cluster` — to that backend.  Clients
        are cached per ``(principal, backend)`` for object identity and
        to avoid re-deriving key material, for as long as a caller holds
        the client: the cache never keeps a dropped deployment alive, and
        a dropped client's session floors go with it.  Sealing does not
        depend on the cache either: a ciphertext is a function of its
        plaintext under the group key (SIV), so independently
        constructed clients seal a posting to the same bytes.
        """
        backend = self.cluster if server is None else server
        cache_key = (principal, id(backend))
        client = self._clients.get(cache_key)
        if client is None:
            client = ZerberRClient(
                principal=principal,
                key_service=self.key_service,
                server=backend,
                rstf_model=self.rstf_model,
                merge_plan=self.merge_plan,
            )
            self._clients[cache_key] = client
        return client

    def deploy_cluster(
        self,
        num_servers: int,
        replication: int = 1,
        lag: int = 0,
        read_consistency: ReadConsistency | str | None = None,
        anti_entropy_every: int | None = None,
        write_consistency: WriteConsistency | str | None = None,
        failover_after: int | None = None,
        telemetry: Telemetry | None = None,
        round_latency: int = 0,
        max_queue_depth: int | None = None,
    ) -> tuple[ServerCluster, Coordinator]:
        """Stand up a sharded deployment of this system's index.

        Builds a :class:`~repro.core.cluster.ServerCluster` over the same
        key service and merge plan, uploads the index :attr:`cluster`
        holds at this moment into it as ``superuser`` (the same element
        objects in the same order — nothing is encrypted again, see
        :meth:`_shard_index_into`), and fronts it with a
        :class:`~repro.core.router.Coordinator` for cross-query slice
        coalescing.  Query it either directly
        (``system.client_for(p, server=cluster)``) or through coordinator
        sessions — results are identical.

        *lag*, *read_consistency*, *anti_entropy_every*,
        *write_consistency* and *failover_after* configure the
        replication subsystem (see :mod:`repro.core.replication` and
        :meth:`~repro.core.cluster.ServerCluster.check_failovers`); the
        defaults — zero lag, strong ``PRIMARY`` reads, ``ONE`` writes,
        no failover election — give the same results as :attr:`cluster`,
        the system's one server, fed the same writes.  The two levels are
        set here once: every read and write of the deployment obeys the
        cluster's ``read_consistency`` / ``write_consistency`` attribute,
        and no query or write call takes a per-call level.
        ``max_queue_depth`` is the coordinator's admission backpressure
        bound and ``round_latency`` defers skim delivery to pipeline
        rounds (see :mod:`repro.core.router`).

        *telemetry* (see :mod:`repro.obs`) instruments every layer of the
        deployment — coordinator, cluster read/write paths, replication,
        views, clients obtained via ``client_for(p, server=cluster)``.  It
        defaults to off: an uninstrumented deployment runs the seed code
        paths with shared no-op instruments.
        """
        cluster = ServerCluster(
            self.key_service,
            num_lists=self.merge_plan.num_lists,
            num_servers=num_servers,
            replication=replication,
            lag=lag,
            read_consistency=read_consistency,
            anti_entropy_every=anti_entropy_every,
            write_consistency=write_consistency,
            failover_after=failover_after,
            telemetry=telemetry,
        )
        self._shard_index_into(cluster)
        return cluster, Coordinator(
            cluster, round_latency=round_latency, max_queue_depth=max_queue_depth
        )

    # -- durability (see repro.persist) ------------------------------------------

    def snapshot_cluster(self, path: str | Path, cluster: ServerCluster) -> None:
        """Snapshot a deployed cluster (lists, logs, placement).

        The snapshot is crash-consistent with whatever the cluster has
        *acknowledged* at call time: in-flight follower backlogs are
        captured in the replication logs and survive a restart.
        """
        from repro.persist import save_cluster

        save_cluster(path, cluster, self.merge_plan, self.rstf_model)

    def restore_cluster(
        self,
        path: str | Path,
        telemetry: Telemetry | None = None,
        round_latency: int = 0,
        max_queue_depth: int | None = None,
    ) -> tuple[ServerCluster, Coordinator]:
        """Recover a snapshotted cluster deployment of *this* system.

        Unlike :meth:`deploy_cluster`, nothing is uploaded: servers,
        replication logs, applied versions and placement come back from
        the snapshot, and lagged/paused followers resume converging
        through the normal catch-up machinery.  The snapshot must have
        been taken from a deployment of the same merge plan (the trusted
        setup artifacts are the compatibility contract).
        """
        from repro.persist import load_cluster

        cluster, merge_plan, _ = load_cluster(
            path, self.key_service, telemetry=telemetry
        )
        if merge_plan != self.merge_plan:
            raise ConfigurationError(
                f"{path}: snapshot was taken under a different merge plan; "
                "restore it through repro.persist.load_cluster instead"
            )
        return cluster, Coordinator(
            cluster, round_latency=round_latency, max_queue_depth=max_queue_depth
        )

    # -- convenience -----------------------------------------------------------------

    def query(
        self,
        term: str,
        k: int,
        principal: str = "superuser",
        policy: ResponsePolicy | None = None,
    ) -> QueryResult:
        """Run one single-term top-k query as *principal*."""
        return self.client_for(principal).query(term, k, policy=policy)

    def audit(self) -> ConfidentialityAudit:
        """Def. 2 audit of the deployed merge plan under corpus statistics."""
        probabilities = {
            term: self.vocabulary.probability(term) for term in self.vocabulary
        }
        return audit_merge_plan(self.merge_plan, probabilities)
