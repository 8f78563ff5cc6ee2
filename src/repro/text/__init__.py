"""Text processing substrate: tokenisation, term statistics, vocabulary."""

from repro.text.tokenizer import Tokenizer
from repro.text.analysis import DocumentStats, term_frequencies
from repro.text.vocabulary import Vocabulary

__all__ = [
    "Tokenizer",
    "DocumentStats",
    "term_frequencies",
    "Vocabulary",
]
