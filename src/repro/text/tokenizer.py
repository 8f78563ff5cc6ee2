"""Tokenisation of document text into index terms.

The paper indexes full text ("8,500 documents with 570,000 terms"); the
precise analyser is unspecified, so we provide a conventional IR tokenizer:
lower-casing, unicode-aware word splitting, optional stopword removal and
minimum token length.  All downstream components work on the token streams
this module produces, so the choice is encapsulated here.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

# Word characters incl. unicode letters/digits; apostrophes inside words kept
# ("don't" -> "don't") because enterprise text is full of contractions.
_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*", re.UNICODE)

# A small English stopword list.  The paper's corpora are German/English; we
# keep the list minimal because stopwords are exactly the frequent terms the
# merging scheme needs to reason about — removing too many would change the
# df distribution the experiments depend on.
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """a an and are as at be by for from has he in is it its of on that the
    to was were will with""".split()
)


@dataclass(frozen=True)
class Tokenizer:
    """Configurable analyser turning raw text into index terms.

    Parameters
    ----------
    lowercase:
        Fold case before emitting tokens (default ``True``).
    stopwords:
        Terms to drop after case folding.  Empty by default; pass
        :data:`DEFAULT_STOPWORDS` for conventional English filtering.
    min_length / max_length:
        Bounds on emitted token length (inclusive).  Overlong tokens are
        usually base64 blobs or URLs that pollute the vocabulary.
    """

    lowercase: bool = True
    stopwords: frozenset[str] = field(default_factory=frozenset)
    min_length: int = 1
    max_length: int = 64

    def __post_init__(self) -> None:
        if self.min_length < 1:
            raise ValueError("min_length must be >= 1")
        if self.max_length < self.min_length:
            raise ValueError("max_length must be >= min_length")

    def tokens(self, text: str) -> Iterator[str]:
        """Yield index terms from *text* in document order."""
        for match in _TOKEN_RE.finditer(text):
            token = match.group(0)
            if self.lowercase:
                token = token.lower()
            if not self.min_length <= len(token) <= self.max_length:
                continue
            if token in self.stopwords:
                continue
            yield token
