"""Unit tests for repro.grammar.motifs."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.sax import numerosity_reduction
from repro.grammar.motifs import Motif, discover_motifs, motifs_from_grammar
from repro.grammar.sequitur import induce_grammar


@pytest.fixture
def periodic_series() -> np.ndarray:
    """20 repetitions of one cycle — a dense motif landscape."""
    return np.tile(np.sin(np.linspace(0, 2 * np.pi, 100, endpoint=False)), 20)


class TestMotifRecord:
    def test_count_and_mean_length(self):
        motif = Motif(1, ((0, 9), (20, 31)), word_length=3)
        assert motif.count == 2
        assert motif.mean_length == pytest.approx((10 + 12) / 2)

    def test_single_occurrence_rejected(self):
        with pytest.raises(ValueError, match="two occurrences"):
            Motif(1, ((0, 9),), word_length=3)


class TestMotifsFromGrammar:
    def _build(self, words, window, length):
        tokens = numerosity_reduction(words, window)
        grammar = induce_grammar(list(tokens.words))
        return grammar, tokens, length

    def test_repeating_block_found(self):
        words = ["aa", "bb", "cc", "aa", "bb", "cc", "aa", "bb", "cc", "xy"]
        grammar, tokens, length = self._build(words, 2, 11)
        motifs = motifs_from_grammar(grammar, tokens, length)
        assert motifs
        top = motifs[0]
        assert top.count >= 2
        # The motif instances spell the repeating block.
        assert (0, 3) in top.occurrences or (0, 6) in top.occurrences

    def test_sorted_by_count_then_length(self):
        words = ["aa", "bb"] * 6 + ["cc", "dd", "ee", "cc", "dd", "ee"]
        grammar, tokens, length = self._build(words, 2, 19)
        motifs = motifs_from_grammar(grammar, tokens, length)
        counts = [m.count for m in motifs]
        assert counts == sorted(counts, reverse=True)

    def test_min_token_length_filter(self):
        words = ["aa", "bb"] * 6
        grammar, tokens, length = self._build(words, 2, 13)
        long_only = motifs_from_grammar(grammar, tokens, length, min_token_length=4)
        assert all(m.word_length >= 4 for m in long_only)

    def test_no_motifs_in_incompressible_sequence(self):
        words = ["aa", "bb", "cc", "dd", "ee", "ff"]
        grammar, tokens, length = self._build(words, 2, 7)
        assert motifs_from_grammar(grammar, tokens, length) == []


class TestDiscoverMotifs:
    def test_finds_cycle_motif(self, periodic_series):
        motifs = discover_motifs(
            periodic_series, window=100, paa_size=5, alphabet_size=4
        )
        assert motifs
        assert motifs[0].count >= 4

    def test_k_limits_output(self, periodic_series):
        motifs = discover_motifs(
            periodic_series, window=100, paa_size=5, alphabet_size=4, k=2
        )
        assert len(motifs) <= 2

    def test_occurrences_lie_within_series(self, periodic_series):
        motifs = discover_motifs(periodic_series, window=100, paa_size=5, alphabet_size=4)
        for motif in motifs:
            for start, end in motif.occurrences:
                assert 0 <= start <= end < len(periodic_series)

    def test_motif_instances_similar_shapes(self, periodic_series):
        """Instances of the top motif are near-identical subsequences."""
        from repro.sax.znorm import znorm

        motifs = discover_motifs(periodic_series, window=100, paa_size=5, alphabet_size=4)
        top = motifs[0]
        (s1, e1), (s2, e2) = top.occurrences[0], top.occurrences[1]
        length = min(e1 - s1, e2 - s2) + 1
        a = znorm(periodic_series[s1 : s1 + length])
        b = znorm(periodic_series[s2 : s2 + length])
        assert float(np.linalg.norm(a - b)) / np.sqrt(length) < 0.5

    def test_invalid_k(self, periodic_series):
        with pytest.raises(ValueError, match="positive"):
            discover_motifs(periodic_series, window=100, k=0)
