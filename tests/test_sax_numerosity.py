"""Unit and property tests for repro.sax.numerosity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles.sax import expand_tokens, numerosity_reduction
from repro.sax.numerosity import TokenSequence

word_lists = st.lists(
    st.text(alphabet="abc", min_size=2, max_size=2), min_size=1, max_size=60
)


class TestNumerosityReduction:
    def test_paper_equation_2_and_3(self):
        """The paper's example: Eq. (2) compresses to Eq. (3)."""
        words = ["ba", "ba", "ba", "dc", "dc", "aa", "ac", "ac"]
        tokens = numerosity_reduction(words, window=4)
        assert tokens.words == ("ba", "dc", "aa", "ac")
        assert tokens.offsets.tolist() == [0, 3, 5, 6]

    def test_no_repeats_keeps_all(self):
        words = ["aa", "bb", "cc"]
        tokens = numerosity_reduction(words, window=4)
        assert tokens.words == ("aa", "bb", "cc")
        assert tokens.offsets.tolist() == [0, 1, 2]

    def test_all_identical_collapses_to_one(self):
        tokens = numerosity_reduction(["zz"] * 10, window=4)
        assert tokens.words == ("zz",)
        assert tokens.offsets.tolist() == [0]
        assert tokens.n_windows == 10

    def test_alternating_words_kept(self):
        words = ["ab", "ba", "ab", "ba"]
        tokens = numerosity_reduction(words, window=4)
        assert tokens.words == ("ab", "ba", "ab", "ba")

    def test_none_strategy_keeps_everything(self):
        words = ["aa", "aa", "bb"]
        tokens = numerosity_reduction(words, window=4, strategy="none")
        assert tokens.words == ("aa", "aa", "bb")
        assert tokens.offsets.tolist() == [0, 1, 2]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            numerosity_reduction(["aa"], window=4, strategy="bogus")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            numerosity_reduction([], window=4)

    @given(word_lists)
    def test_reduction_is_lossless(self, words):
        """Section 4.2: S_NR retains all information — expansion inverts it."""
        tokens = numerosity_reduction(words, window=4)
        assert expand_tokens(tokens) == words

    @given(word_lists)
    def test_no_consecutive_duplicates_after_reduction(self, words):
        tokens = numerosity_reduction(words, window=4)
        for left, right in zip(tokens.words, tokens.words[1:]):
            assert left != right

    @given(word_lists)
    def test_idempotent(self, words):
        once = numerosity_reduction(words, window=4)
        twice = numerosity_reduction(list(once.words), window=4)
        assert twice.words == once.words

    @given(word_lists)
    def test_offsets_strictly_increasing(self, words):
        tokens = numerosity_reduction(words, window=4)
        assert np.all(np.diff(tokens.offsets) > 0) or len(tokens.offsets) == 1


class TestTokenSequence:
    def test_len(self):
        tokens = numerosity_reduction(["aa", "bb"], window=4)
        assert len(tokens) == 2

    def test_token_span_single_token(self):
        tokens = numerosity_reduction(["aa", "bb", "cc"], window=5)
        assert tokens.token_span(1, 1) == (1, 5)

    def test_token_span_range(self):
        # words at offsets [0, 3, 5, 6], window 4 (paper Eq. 3).
        tokens = numerosity_reduction(
            ["ba", "ba", "ba", "dc", "dc", "aa", "ac", "ac"], window=4
        )
        # Tokens 0..2 ('ba' at 0 .. 'aa' at 5): span [0, 5 + 4 - 1].
        assert tokens.token_span(0, 2) == (0, 8)

    def test_token_span_out_of_range(self):
        tokens = numerosity_reduction(["aa"], window=4)
        with pytest.raises(IndexError):
            tokens.token_span(0, 1)
        with pytest.raises(IndexError):
            tokens.token_span(-1, 0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="align"):
            TokenSequence(("aa",), np.array([0, 1]), 3, 4)

    def test_n_windows_must_exceed_last_offset(self):
        with pytest.raises(ValueError, match="n_windows"):
            TokenSequence(("aa", "bb"), np.array([0, 5]), 5, 4)
