"""Document and corpus model.

A :class:`Document` carries raw text or precomputed term counts plus the
access-control *group* it belongs to (the paper's collaboration groups:
StudIP courses, ODP topics).  A :class:`Corpus` is an ordered collection of
documents with a shared :class:`~repro.text.Vocabulary` built lazily.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.text.analysis import DocumentStats
from repro.text.tokenizer import Tokenizer

DEFAULT_GROUP = "public"


@dataclass(frozen=True)
class Document:
    """One access-controlled document.

    Exactly one of *text* or *counts* must be provided; synthetic corpora
    supply counts directly to avoid materialising token streams.
    """

    doc_id: str
    group: str = DEFAULT_GROUP
    text: str | None = None
    counts: Mapping[str, int] | None = None
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.text is None) == (self.counts is None):
            raise ValueError("provide exactly one of text= or counts=")

    def stats(self, tokenizer: Tokenizer | None = None) -> DocumentStats:
        """Term statistics for this document."""
        if self.counts is not None:
            return DocumentStats.from_counts(self.doc_id, self.counts)
        tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        assert self.text is not None
        return DocumentStats.from_tokens(self.doc_id, tokenizer.tokens(self.text))


class Corpus:
    """An ordered, group-partitioned document collection."""

    def __init__(
        self,
        documents: Iterable[Document] = (),
        tokenizer: Tokenizer | None = None,
        name: str = "corpus",
    ) -> None:
        self.name = name
        self._tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self._documents: list[Document] = []
        self._by_id: dict[str, int] = {}
        self._stats_cache: dict[str, DocumentStats] = {}
        for doc in documents:
            self.add(doc)

    # -- construction ------------------------------------------------------

    def add(self, doc: Document) -> None:
        """Append a document; ids must be unique within the corpus."""
        if doc.doc_id in self._by_id:
            raise ValueError(f"duplicate document id: {doc.doc_id!r}")
        self._by_id[doc.doc_id] = len(self._documents)
        self._documents.append(doc)

    # -- access ------------------------------------------------------------

    def document(self, doc_id: str) -> Document:
        """Look up a document by id."""
        try:
            return self._documents[self._by_id[doc_id]]
        except KeyError:
            raise KeyError(f"no such document: {doc_id!r}") from None

    def stats(self, doc_id: str) -> DocumentStats:
        """Term statistics for one document (cached)."""
        cached = self._stats_cache.get(doc_id)
        if cached is None:
            cached = self.document(doc_id).stats(self._tokenizer)
            self._stats_cache[doc_id] = cached
        return cached

    def all_stats(self) -> list[DocumentStats]:
        """Term statistics for every document, in corpus order."""
        return [self.stats(doc.doc_id) for doc in self._documents]

    def groups(self) -> set[str]:
        """The set of access-control groups present."""
        return {doc.group for doc in self._documents}

    def documents_in_group(self, group: str) -> list[Document]:
        """All documents belonging to *group*."""
        return [doc for doc in self._documents if doc.group == group]

    def doc_ids(self) -> list[str]:
        """All document ids in corpus order."""
        return [doc.doc_id for doc in self._documents]

    def sample(self, fraction: float, rng) -> list[Document]:
        """A random sample of ``fraction`` of the documents (paper §6.1.2)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        n = max(1, int(len(self._documents) * fraction))
        idx = rng.choice(len(self._documents), size=n, replace=False)
        return [self._documents[i] for i in sorted(idx.tolist())]

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    # ``doc_id in corpus`` would compare an id against each Document and be
    # False: make ``in`` a TypeError; ``doc_ids()`` holds the ids.
    __contains__ = None
