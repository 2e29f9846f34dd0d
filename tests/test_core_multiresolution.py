"""Unit tests for repro.core.multiresolution (Section 6.2 fast path).

The discretizer shares the interval matrices; a member's tokens come from
one :func:`repro.sax._kernel.sax_tokens` pass over them, checked here
against plain SAX and the oracle pipeline's
:func:`oracles.pipeline.member_tokens`.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import pipeline
from oracles.interner import MAX_PACKED_WIDTH, pack_symbol_rows
from oracles.sax import discretize, first_occurrence_ids, kept_window_mask, numerosity_reduction
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.sax._kernel import sax_tokens
from repro.sax.alphabet import WordInterner, index_matrix_to_words


def native_tokens(d: MultiResolutionDiscretizer, w: int, a: int, *, reduce: bool = True):
    """``(offsets, ids)`` of member ``(w, a)`` from the shared interval matrix."""
    return sax_tokens(d.interval_matrix(w), d.alphabet_table.symbol_column(a), reduce=reduce)


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
                symbols = d.alphabet_table.symbols_for(d.interval_matrix(w), a)
                assert index_matrix_to_words(symbols) == discretize(series, 50, w, a), (w, a)

    def test_tokens_match_direct_pipeline(self, discretizer):
        d, series = discretizer
        for w, a in [(3, 4), (7, 9)]:
            direct = numerosity_reduction(discretize(series, 50, w, a), 50)
            oracle = pipeline.member_tokens(series, 50, w, a)
            offsets, ids = native_tokens(d, w, a)
            assert oracle.words == direct.words
            assert np.array_equal(ids, first_occurrence_ids(direct.words))
            assert np.array_equal(offsets, direct.offsets)
            assert np.array_equal(oracle.offsets, direct.offsets)
            assert d.n_windows == direct.n_windows == oracle.n_windows

    def test_n_windows(self, discretizer):
        d, series = discretizer
        assert d.n_windows == len(series) - 50 + 1


class TestCaching:
    def test_interval_matrix_cached_per_w(self, discretizer):
        d, _ = discretizer
        first = d.interval_matrix(5)
        second = d.interval_matrix(5)
        assert first is second

    def test_tokens_repeat_per_combination(self, discretizer):
        d, _ = discretizer
        first, second = native_tokens(d, 4, 5), native_tokens(d, 4, 5)
        assert all(np.array_equal(x, y) for x, y in zip(first, second))

    def test_different_alphabets_share_interval_matrix(self, discretizer):
        """The Section 6.2.2 speedup: one interval matrix serves all a."""
        d, _ = discretizer
        native_tokens(d, 6, 3)
        matrix = d.interval_matrix(6)
        native_tokens(d, 6, 9)
        assert d.interval_matrix(6) is matrix


class TestValidation:
    def test_paa_size_above_declared_max_rejected(self, discretizer):
        d, _ = discretizer
        with pytest.raises(ValueError, match="max_paa_size"):
            d.interval_matrix(11)

    def test_alphabet_above_declared_max_rejected(self, discretizer):
        d, _ = discretizer
        with pytest.raises(ValueError, match="outside table range"):
            d.token_ids(4, 11)

    def test_window_larger_than_series_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            MultiResolutionDiscretizer(rng.standard_normal(30), 31, 4, 4)

    def test_max_paa_above_window_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            MultiResolutionDiscretizer(rng.standard_normal(30), 10, 11, 4)

    def test_unknown_numerosity_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown numerosity 'bogus'"):
            MultiResolutionDiscretizer(rng.standard_normal(30), 10, 4, 4, numerosity="bogus")


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
        offsets, ids = native_tokens(wide, w, a)
        symbols = wide.alphabet_table.symbols_for(wide.interval_matrix(w), a)
        kept = np.flatnonzero(kept_window_mask(symbols))
        assert np.array_equal(offsets, kept)
        assert ids.dtype == np.int64
        # Dense ids of the distinct kept rows, in first-occurrence order.
        assert sorted(set(ids.tolist())) == list(range(int(ids.max()) + 1))
        assert len(set(ids.tolist())) < len(ids)  # some word repeats
        assert _same_equality_pattern(ids, WordInterner().intern_matrix(symbols[kept]))
        # The streaming interner's fused pass keeps the same rows and, being
        # first-occurrence too, gives the same ids, at every width: words
        # past the oracle's packable 12 symbols take the same native path.
        packed = WordInterner().intern_packed(symbols)
        assert np.array_equal(packed[:, 0], kept)
        assert _same_equality_pattern(ids, packed[:, 1])
        assert np.array_equal(ids, packed[:, 1])
        assert (pack_symbol_rows(symbols) is None) == (w > MAX_PACKED_WIDTH)

    @pytest.mark.parametrize("w, a", [(5, 4), (14, 5)])
    def test_equality_pattern_matches_words(self, wide, w, a):
        offsets, ids = native_tokens(wide, w, a)
        tokens = pipeline.member_tokens(wide.series, wide.window, w, a)
        assert np.array_equal(offsets, tokens.offsets)
        assert (wide.n_windows, wide.window) == (tokens.n_windows, tokens.window)
        words = np.unique(np.asarray(tokens.words), return_inverse=True)[1]
        assert _same_equality_pattern(ids, words)

    def test_token_ids_is_the_discretizers_member_pass(self, wide):
        """The method runs :func:`sax_tokens` under the discretizer's strategy
        (the end-to-end benchmark's tracer times the tokenize stage by its name)."""
        for produced, expected in zip(wide.token_ids(6, 4), native_tokens(wide, 6, 4)):
            assert np.array_equal(produced, expected)


class TestNumerosityModes:
    def test_none_strategy_keeps_every_window(self, rng):
        series = np.cumsum(rng.standard_normal(100))
        d = MultiResolutionDiscretizer(series, 20, 4, 4, numerosity="none")
        offsets, ids = d.token_ids(4, 4)
        tokens = pipeline.member_tokens(series, 20, 4, 4, numerosity="none")
        assert len(ids) == len(offsets) == d.n_windows
        assert np.array_equal(offsets, tokens.offsets)
        assert np.array_equal(ids, first_occurrence_ids(tokens.words))
        for produced, expected in zip((offsets, ids), native_tokens(d, 4, 4, reduce=False)):
            assert np.array_equal(produced, expected)
