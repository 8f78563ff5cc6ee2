"""Unit tests for the tokenizer."""

import pytest

from repro.text.tokenizer import DEFAULT_STOPWORDS, Tokenizer


def _tokens(text, **options):
    return list(Tokenizer(**options).tokens(text))


class TestDefaultTokenizer:
    def test_basic_splitting(self):
        assert _tokens("Hello, world!") == ["hello", "world"]

    def test_numbers_kept(self):
        assert _tokens("report v2 2009") == ["report", "v2", "2009"]

    def test_apostrophes_inside_words(self):
        assert _tokens("don't stop") == ["don't", "stop"]

    def test_unicode_letters(self):
        assert _tokens("Vergütung für Arbeit") == ["vergütung", "für", "arbeit"]

    def test_empty_string(self):
        assert _tokens("") == []

    def test_punctuation_only(self):
        assert _tokens("... --- !!!") == []

    def test_underscores_split(self):
        assert _tokens("foo_bar") == ["foo", "bar"]


class TestTokenizer:
    def test_case_preserved_when_disabled(self):
        assert _tokens("Ab Cd", lowercase=False) == ["Ab", "Cd"]

    def test_stopwords_removed_after_folding(self):
        assert _tokens("The cat AND the hat", stopwords=DEFAULT_STOPWORDS) == ["cat", "hat"]

    def test_min_length_filter(self):
        assert _tokens("a an the cat", min_length=3) == ["the", "cat"]

    def test_max_length_filter(self):
        assert _tokens("short verylongtoken", max_length=5) == ["short"]

    def test_tokens_is_lazy_iterator(self):
        iterator = Tokenizer().tokens("a b c")
        assert next(iterator) == "a"

    def test_invalid_min_length_rejected(self):
        with pytest.raises(ValueError):
            Tokenizer(min_length=0)

    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError):
            Tokenizer(min_length=5, max_length=3)

    def test_frozen_dataclass(self):
        tokenizer = Tokenizer()
        with pytest.raises(AttributeError):
            tokenizer.lowercase = False
