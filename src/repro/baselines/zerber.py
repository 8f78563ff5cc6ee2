"""Zerber (EDBT 2008) — the predecessor system Zerber+R improves on.

Zerber stores encrypted posting elements in r-confidential *merged* lists,
but "posting elements are placed randomly inside the merged posting list"
and carry **no** server-readable score.  Consequently "the complete lists
need to be retrieved by the querying client to obtain the top-k results"
(paper §3.1) — the bandwidth pathology Zerber+R's TRS fixes.

The implementation reuses the crypto, merging, and access-control
substrates; only the ordering discipline (random) and the query procedure
(download-everything, rank client-side) differ from Zerber+R.
"""

from __future__ import annotations

import numpy as np

from repro.core.client import QueryResult, ranked_hits, skim_matches
from repro.core.protocol import QueryTrace
from repro.corpus.documents import Corpus
from repro.crypto.keys import GroupKeyService
from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    ProtocolError,
    UnknownListError,
    UnknownTermError,
)
from repro.index.merge import MergePlan, bfm_merge
from repro.index.postings import EncryptedPostingElement, MergedPostingList, PostingElement
from repro.text.vocabulary import Vocabulary


class ZerberServer:
    """Merged, randomly-ordered, access-controlled posting-list store."""

    def __init__(
        self,
        key_service: GroupKeyService,
        num_lists: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_lists < 1:
            raise ProtocolError("num_lists must be >= 1")
        self._keys = key_service
        self._rng = rng if rng is not None else np.random.default_rng()
        self._lists: dict[int, MergedPostingList] = {
            list_id: MergedPostingList(list_id) for list_id in range(num_lists)
        }

    @property
    def num_lists(self) -> int:
        return len(self._lists)

    @property
    def num_elements(self) -> int:
        return sum(len(lst) for lst in self._lists.values())

    def _list(self, list_id: int) -> MergedPostingList:
        merged = self._lists.get(list_id)
        if merged is None:
            raise UnknownListError(list_id)
        return merged

    def insert(
        self, principal: str, list_id: int, element: EncryptedPostingElement
    ) -> None:
        """Accept an element from a group member; placement is random."""
        if element.trs is not None:
            raise ProtocolError("Zerber elements must not carry a plaintext score")
        if not self._keys.is_member(principal, element.group):
            raise AccessDeniedError(principal, element.group)
        self._list(list_id).add_random(element, self._rng)

    def download(self, principal: str, list_id: int) -> list[EncryptedPostingElement]:
        """Return the principal-readable portion of a whole merged list.

        This is Zerber's only retrieval primitive: no scores are visible,
        so no server-side pruning is possible.
        """
        merged = self._list(list_id)
        return [
            e
            for e in merged.elements
            if self._keys.is_member(principal, e.group)
        ]


class ZerberClient:
    """A group member querying a Zerber server (client-side ranking)."""

    def __init__(
        self,
        principal: str,
        key_service: GroupKeyService,
        server: ZerberServer,
        merge_plan: MergePlan,
    ) -> None:
        self.principal = principal
        self._keys = key_service
        self._server = server
        self._plan = merge_plan

    def query(self, term: str, k: int) -> QueryResult:
        """Download the whole merged list, decrypt, filter, rank locally."""
        if k < 1:
            raise ValueError("k must be >= 1")
        try:
            list_id = self._plan.list_of(term)
        except KeyError:
            raise UnknownTermError(term) from None
        elements = self._server.download(self.principal, list_id)
        trace = QueryTrace(
            term=term,
            k=k,
            num_requests=1,
            elements_transferred=len(elements),
            bits_transferred=sum(e.size_bits for e in elements),
        )
        # Zerber downloads the WHOLE merged list, so the skim is the
        # dominant client cost: one pass, one keyring for all of it.
        matches = skim_matches(
            elements, term, self._keys.keyring(self.principal, self._plan)
        )
        trace.satisfied = len(matches) >= k or len(matches) > 0
        return QueryResult(hits=ranked_hits(matches, k), trace=trace)


class ZerberSystem:
    """Fully assembled Zerber deployment (the EDBT 2008 baseline)."""

    def __init__(
        self,
        corpus: Corpus,
        vocabulary: Vocabulary,
        merge_plan: MergePlan,
        key_service: GroupKeyService,
        server: ZerberServer,
    ) -> None:
        self.corpus = corpus
        self.vocabulary = vocabulary
        self.merge_plan = merge_plan
        self.key_service = key_service
        self.server = server
        self._clients: dict[str, ZerberClient] = {}

    @classmethod
    def build(cls, corpus: Corpus, r: float = 4.0, seed: int = 41) -> "ZerberSystem":
        """Index *corpus* under BFM merging with parameter *r*."""
        if len(corpus) == 0:
            raise ConfigurationError("corpus is empty")
        stats = corpus.all_stats()
        vocabulary = Vocabulary.from_documents(stats)
        probabilities = {t: vocabulary.probability(t) for t in vocabulary}
        merge_plan = bfm_merge(probabilities, r)

        key_service = GroupKeyService()
        for group in sorted(corpus.groups()):
            key_service.ensure_group(group)
        key_service.register("superuser", set(corpus.groups()))
        server = ZerberServer(
            key_service, num_lists=merge_plan.num_lists, rng=np.random.default_rng(seed)
        )
        system = cls(corpus, vocabulary, merge_plan, key_service, server)
        system._index_corpus()
        return system

    def _index_corpus(self) -> None:
        for group in sorted(self.corpus.groups()):
            owner = f"owner:{group}"
            self.key_service.register(owner, {group})
            cipher = self.key_service.cipher_for(owner, group)
            # The key service owns THE nonce sequence per (owner, group) —
            # a private sequence here would restart the counter stream.
            nonces = self.key_service.nonce_sequence(owner, group)
            for doc in self.corpus.documents_in_group(group):
                doc_stats = self.corpus.stats(doc.doc_id)
                doc_number = self.key_service.document_number(
                    owner, group, doc_stats.doc_id
                )
                encode = PostingElement.encoder(doc_number, doc_stats.length)
                for term in sorted(doc_stats.counts):
                    list_id, number = self.merge_plan.locate(term)
                    plaintext = encode(doc_stats.tf(term), number)
                    ciphertext = cipher.encrypt(plaintext, nonces.next(plaintext))
                    element = EncryptedPostingElement(
                        ciphertext=ciphertext, group=group, trs=None
                    )
                    self.server.insert(owner, list_id, element)

    def client_for(self, principal: str) -> ZerberClient:
        client = self._clients.get(principal)
        if client is None:
            client = ZerberClient(
                principal=principal,
                key_service=self.key_service,
                server=self.server,
                merge_plan=self.merge_plan,
            )
            self._clients[principal] = client
        return client

    def query(self, term: str, k: int, principal: str = "superuser") -> QueryResult:
        return self.client_for(principal).query(term, k)
