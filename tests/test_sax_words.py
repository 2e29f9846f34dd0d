"""Unit and property tests for repro.sax.alphabet and repro.sax.sax."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles.sax import discretize
from repro.sax.alphabet import ALPHABET, index_matrix_to_words, indices_to_word, word_to_indices
from repro.sax.breakpoints import gaussian_breakpoints
from repro.sax.paa import CumulativeStats, paa
from repro.sax.sax import mindist, sax_word
from repro.sax.znorm import znorm

values_strategy = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestAlphabetConversions:
    def test_round_trip(self):
        word = indices_to_word(np.array([0, 1, 2, 25]))
        assert word == "abcz"
        assert word_to_indices(word).tolist() == [0, 1, 2, 25]

    def test_empty_word(self):
        assert indices_to_word(np.array([], dtype=int)) == ""

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="symbol indices"):
            indices_to_word(np.array([26]))

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError, match="outside the SAX alphabet"):
            word_to_indices("aB")

    def test_matrix_to_words(self):
        matrix = np.array([[0, 1], [2, 3], [4, 5]])
        assert index_matrix_to_words(matrix) == ["ab", "cd", "ef"]

    def test_matrix_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            index_matrix_to_words(np.array([0, 1]))

    def test_alphabet_is_lowercase_latin(self):
        assert ALPHABET == "abcdefghijklmnopqrstuvwxyz"

    @given(st.lists(st.integers(0, 25), min_size=1, max_size=30))
    def test_round_trip_property(self, indices):
        word = indices_to_word(np.array(indices))
        assert word_to_indices(word).tolist() == indices


class TestSaxWord:
    def test_paper_figure_3_style_word(self):
        """A rising subsequence maps low symbols then high symbols."""
        assert sax_word(np.array([-2.0, -1.0, 1.0, 2.0]), 2, 3) == "ac"

    def test_word_length_equals_paa_size(self):
        word = sax_word(np.sin(np.linspace(0, 6, 50)), 7, 5)
        assert len(word) == 7

    def test_constant_subsequence_middle_symbols(self):
        # Zero PAA coefficients land in the middle region.
        assert sax_word(np.full(16, 3.0), 4, 3) == "bbbb"
        assert sax_word(np.full(16, 3.0), 4, 4) == "cccc"  # 0 is a breakpoint; region above

    def test_offset_amplitude_invariance(self):
        base = np.sin(np.linspace(0, 6, 64))
        assert sax_word(base, 8, 6) == sax_word(base * 17.0 + 3.0, 8, 6)

    @given(
        arrays(np.float64, st.integers(8, 64), elements=values_strategy),
        st.integers(2, 8),
        st.integers(2, 8),
    )
    def test_symbols_within_alphabet(self, values, w, a):
        word = sax_word(values, w, a)
        assert len(word) == w
        assert all(symbol in ALPHABET[:a] for symbol in word)


class TestDiscretize:
    def test_one_word_per_window(self, rng):
        series = rng.standard_normal(100)
        words = discretize(series, 20, 4, 4)
        assert len(words) == 81

    def test_matches_per_window_sax(self, rng):
        series = np.cumsum(rng.standard_normal(150))
        words = discretize(series, 25, 5, 6)
        for p in [0, 42, 125]:
            assert words[p] == sax_word(series[p : p + 25], 5, 6)

    def test_shared_stats_reuse(self, rng):
        series = rng.standard_normal(80)
        stats = CumulativeStats(series)
        with_shared = discretize(series, 16, 4, 4, stats=stats)
        without = discretize(series, 16, 4, 4)
        assert with_shared == without

    def test_window_equal_series_length(self, rng):
        series = rng.standard_normal(30)
        words = discretize(series, 30, 3, 3)
        assert len(words) == 1

    def test_invalid_window(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            discretize(rng.standard_normal(10), 11, 2, 2)

    @given(
        arrays(np.float64, st.integers(20, 100), elements=values_strategy),
        st.integers(4, 16),
        st.integers(2, 6),
        st.integers(2, 6),
    )
    def test_vectorized_matches_scalar_path(self, series, window, w, a):
        window = min(window, len(series))
        w = min(w, window)
        words = discretize(series, window, w, a)
        breakpoints = gaussian_breakpoints(a)
        # Spot-check three windows against the independent scalar path.
        # Skipped: near-constant windows (ill-conditioned normalization) and
        # windows whose PAA coefficients land exactly on a breakpoint — the
        # two paths round differently there and either symbol is valid.
        scale = max(1.0, float(np.abs(series).max()))
        for p in np.linspace(0, len(series) - window, 3).astype(int):
            segment = series[p : p + window]
            if segment.std(ddof=1) < 1e-6 * scale:
                continue
            coefficients = paa(znorm(segment), w)
            if np.min(np.abs(coefficients[:, None] - breakpoints[None, :])) < 1e-6:
                continue
            assert words[p] == sax_word(segment, w, a)


class TestMindist:
    def test_zero_for_identical_words(self):
        assert mindist("abc", "abc", 4, 12) == 0.0

    def test_zero_for_adjacent_symbols(self):
        """cell(r, c) = 0 when |r - c| <= 1 — the classic SAX table."""
        assert mindist("ab", "ba", 4, 8) == 0.0

    def test_positive_for_distant_symbols(self):
        assert mindist("aa", "cc", 3, 8) > 0.0

    def test_scales_with_window(self):
        d_small = mindist("aa", "cc", 3, 8)
        d_large = mindist("aa", "cc", 3, 32)
        assert d_large == pytest.approx(d_small * 2.0)

    def test_symmetric(self):
        assert mindist("ac", "ca", 3, 8) == mindist("ca", "ac", 3, 8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            mindist("ab", "abc", 3, 8)

    def test_word_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="outside the given alphabet"):
            mindist("ad", "aa", 3, 8)

    @given(
        arrays(np.float64, st.integers(16, 48), elements=values_strategy),
        arrays(np.float64, st.integers(16, 48), elements=values_strategy),
        st.integers(2, 8),
        st.integers(3, 8),
    )
    def test_lower_bounds_euclidean(self, x, y, w, a):
        """The defining SAX property: MINDIST lower-bounds the z-normalized
        Euclidean distance (Lin et al. 2007, Experiencing SAX)."""
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        w = min(w, n)
        word_x = sax_word(x, w, a)
        word_y = sax_word(y, w, a)
        euclidean = float(np.linalg.norm(znorm(x) - znorm(y)))
        assert mindist(word_x, word_y, a, n) <= euclidean + 1e-6
