"""Unit tests for repro.core.multiresolution (Section 6.2 fast path)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.interner import MAX_PACKED_WIDTH, pack_symbol_rows
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.sax.alphabet import WordInterner
from repro.sax.numerosity import kept_window_mask, numerosity_reduction
from repro.sax.sax import discretize


@pytest.fixture
def discretizer(rng) -> tuple[MultiResolutionDiscretizer, np.ndarray]:
    series = np.cumsum(rng.standard_normal(400))
    return MultiResolutionDiscretizer(series, 50, max_paa_size=10, max_alphabet_size=10), series


class TestWordsEquivalence:
    def test_matches_direct_discretize_all_combinations(self, discretizer):
        """The headline contract: fast multi-resolution words == plain SAX."""
        d, series = discretizer
        for w in (2, 5, 10):
            for a in (2, 6, 10):
                assert d.words(w, a) == discretize(series, 50, w, a), (w, a)

    def test_tokens_match_direct_pipeline(self, discretizer):
        d, series = discretizer
        for w, a in [(3, 4), (7, 9)]:
            direct = numerosity_reduction(discretize(series, 50, w, a), 50)
            fast = d.tokens(w, a)
            assert fast.words == direct.words
            assert np.array_equal(fast.offsets, direct.offsets)
            assert fast.n_windows == direct.n_windows

    def test_n_windows(self, discretizer):
        d, series = discretizer
        assert d.n_windows == len(series) - 50 + 1


class TestCaching:
    def test_interval_matrix_cached_per_w(self, discretizer):
        d, _ = discretizer
        first = d.interval_matrix(5)
        second = d.interval_matrix(5)
        assert first is second

    def test_tokens_cached_per_combination(self, discretizer):
        d, _ = discretizer
        assert d.tokens(4, 5) is d.tokens(4, 5)

    def test_different_alphabets_share_interval_matrix(self, discretizer):
        """The Section 6.2.2 speedup: one interval matrix serves all a."""
        d, _ = discretizer
        d.words(6, 3)
        matrix = d.interval_matrix(6)
        d.words(6, 9)
        assert d.interval_matrix(6) is matrix


class TestValidation:
    def test_paa_size_above_declared_max_rejected(self, discretizer):
        d, _ = discretizer
        with pytest.raises(ValueError, match="max_paa_size"):
            d.interval_matrix(11)

    def test_alphabet_above_declared_max_rejected(self, discretizer):
        d, _ = discretizer
        with pytest.raises(ValueError, match="outside table range"):
            d.words(4, 11)

    def test_window_larger_than_series_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            MultiResolutionDiscretizer(rng.standard_normal(30), 31, 4, 4)

    def test_max_paa_above_window_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            MultiResolutionDiscretizer(rng.standard_normal(30), 10, 11, 4)


def _same_equality_pattern(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a[i] == a[j]`` exactly when ``b[i] == b[j]``, for all i, j."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(a) == len(b) and len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


class TestTokenIds:
    """Batch ids skip the interner: only their equality pattern is contract."""

    @pytest.fixture
    def wide(self, rng) -> MultiResolutionDiscretizer:
        # Low-entropy series so even 16-symbol words repeat.
        series = np.tile(np.sin(np.linspace(0, 2 * np.pi, 40)), 15)
        series += 0.05 * rng.standard_normal(len(series))
        return MultiResolutionDiscretizer(series, 40, max_paa_size=16, max_alphabet_size=6)

    @pytest.mark.parametrize("w, a", [(2, 2), (4, 3), (8, 6), (12, 6), (13, 4), (16, 6)])
    def test_equality_pattern_matches_interners(self, wide, w, a):
        ids = wide.token_ids(w, a)
        symbols = wide.alphabet_table.symbols_for(wide.interval_matrix(w), a)
        kept = np.flatnonzero(kept_window_mask(symbols))
        assert np.array_equal(ids.offsets, kept)
        assert ids.ids.dtype == np.int64
        # Dense ids of the distinct kept rows, in first-occurrence order.
        assert sorted(set(ids.ids.tolist())) == list(range(int(ids.ids.max()) + 1))
        assert len(set(ids.ids.tolist())) < len(ids)  # some word repeats
        assert _same_equality_pattern(ids.ids, WordInterner().intern_matrix(symbols[kept]))
        # The streaming interner's fused pass keeps the same rows and, being
        # first-occurrence too, gives the same ids, at every width: words
        # past the oracle's packable 12 symbols take the same native path.
        packed = WordInterner().intern_packed(symbols)
        assert np.array_equal(packed[:, 0], kept)
        assert _same_equality_pattern(ids.ids, packed[:, 1])
        assert np.array_equal(ids.ids, packed[:, 1])
        assert (pack_symbol_rows(symbols) is None) == (w > MAX_PACKED_WIDTH)

    @pytest.mark.parametrize("w, a", [(5, 4), (14, 5)])
    def test_equality_pattern_matches_words(self, wide, w, a):
        ids = wide.token_ids(w, a)
        tokens = wide.tokens(w, a)
        assert np.array_equal(ids.offsets, tokens.offsets)
        assert (ids.n_windows, ids.window) == (tokens.n_windows, tokens.window)
        words = np.unique(np.asarray(tokens.words), return_inverse=True)[1]
        assert _same_equality_pattern(ids.ids, words)

    def test_cached_per_combination(self, wide):
        assert wide.token_ids(6, 4) is wide.token_ids(6, 4)

    def test_rejects_non_exact_numerosity(self, rng):
        series = np.cumsum(rng.standard_normal(100))
        d = MultiResolutionDiscretizer(series, 20, 4, 4, numerosity="none")
        with pytest.raises(ValueError, match="numerosity='exact'"):
            d.token_ids(4, 4)


class TestNumerosityModes:
    def test_none_strategy_keeps_every_window(self, rng):
        series = np.cumsum(rng.standard_normal(100))
        d = MultiResolutionDiscretizer(series, 20, 4, 4, numerosity="none")
        tokens = d.tokens(4, 4)
        assert len(tokens) == d.n_windows
