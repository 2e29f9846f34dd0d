"""Unit and property tests for repro.sax.breakpoints."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from oracles.sax import all_symbols_for, interval_indices
from repro.sax.breakpoints import (
    MultiResolutionAlphabet,
    gaussian_breakpoints,
    symbol_indices,
)


class TestGaussianBreakpoints:
    def test_alphabet_three_matches_paper_figure_3(self):
        """The paper's Figure 3 table: a=3 -> breakpoints (-0.43, 0.43)."""
        breakpoints = gaussian_breakpoints(3)
        assert breakpoints == pytest.approx([-0.43, 0.43], abs=0.005)

    def test_alphabet_two_single_zero(self):
        assert gaussian_breakpoints(2) == pytest.approx([0.0], abs=1e-12)

    def test_alphabet_four_matches_paper_figure_3(self):
        breakpoints = gaussian_breakpoints(4)
        assert breakpoints == pytest.approx([-0.67, 0.0, 0.67], abs=0.005)

    @given(st.integers(2, 26))
    def test_count_and_monotone(self, a):
        breakpoints = gaussian_breakpoints(a)
        assert len(breakpoints) == a - 1
        assert np.all(np.diff(breakpoints) > 0)

    @given(st.integers(2, 26))
    def test_equiprobable_regions(self, a):
        """Each region has mass 1/a under the standard normal."""
        breakpoints = gaussian_breakpoints(a)
        edges = np.concatenate(([-np.inf], breakpoints, [np.inf]))
        masses = np.diff(norm.cdf(edges))
        assert np.allclose(masses, 1.0 / a, atol=1e-12)

    @given(st.integers(2, 26))
    def test_symmetric_about_zero(self, a):
        breakpoints = gaussian_breakpoints(a)
        assert np.allclose(breakpoints, -breakpoints[::-1], atol=1e-12)

    def test_cached_array_readonly(self):
        breakpoints = gaussian_breakpoints(5)
        with pytest.raises(ValueError):
            breakpoints[0] = 0.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            gaussian_breakpoints(1)
        with pytest.raises(ValueError):
            gaussian_breakpoints(27)


class TestSymbolIndices:
    def test_paper_figure_3_regions(self):
        """a=3: (-inf,-0.43) -> a, [-0.43,0.43) -> b, [0.43,inf) -> c."""
        values = np.array([-1.0, 0.0, 1.0])
        assert symbol_indices(values, 3).tolist() == [0, 1, 2]

    def test_boundary_value_closed_on_left(self):
        breakpoints = gaussian_breakpoints(3)
        assert symbol_indices(np.array([breakpoints[0]]), 3).tolist() == [1]

    def test_extremes(self):
        assert symbol_indices(np.array([-100.0, 100.0]), 5).tolist() == [0, 4]

    @given(st.integers(2, 20), st.floats(-5, 5, allow_nan=False))
    def test_index_in_range(self, a, value):
        index = symbol_indices(np.array([value]), a)[0]
        assert 0 <= index < a


class TestMultiResolutionAlphabet:
    def test_merged_breakpoints_sorted_unique(self):
        table = MultiResolutionAlphabet(6)
        merged = table.merged_breakpoints
        assert np.all(np.diff(merged) > 0)

    def test_interval_count(self):
        table = MultiResolutionAlphabet(4)
        # a=2: {0}; a=3: {-0.43, 0.43}; a=4: {-0.67, 0, 0.67} -> 5 unique.
        assert table.n_intervals == 6

    def test_symbol_matrix_shape(self):
        table = MultiResolutionAlphabet(5)
        assert table.symbol_matrix.shape == (table.n_intervals, 4)

    @given(st.integers(2, 12), st.floats(-4, 4, allow_nan=False))
    def test_matches_single_resolution(self, amax, value):
        """The paper's Section 6.2.2 claim: one lookup = all resolutions."""
        table = MultiResolutionAlphabet(amax)
        interval = interval_indices(table, np.array([value]))
        for a in table.alphabet_sizes():
            fast = table.symbols_for(interval, a)[0]
            direct = symbol_indices(np.array([value]), a)[0]
            assert fast == direct, (a, value)

    def test_all_symbols_for_figure_6_shape(self):
        """Figure 6: each coefficient maps to one symbol per alphabet size."""
        table = MultiResolutionAlphabet(4)
        intervals = interval_indices(table, np.array([-1.0, -0.2, 1.0]))
        symbols = all_symbols_for(table, intervals)
        assert symbols.shape == (3, 3)
        # For a=2, value -1.0 -> 'a'(0), -0.2 -> 'a'(0), 1.0 -> 'b'(1).
        assert symbols[:, 0].tolist() == [0, 0, 1]

    def test_figure_6_symbol_sequences(self):
        """The paper's worked example: values in the three highlighted
        intervals map to sequences aaa, abb, bcd for a = 2, 3, 4."""
        table = MultiResolutionAlphabet(4)
        values = np.array([-0.8, -0.2, 0.8])  # in (-inf,-0.67), (-0.43,0), (0.67,inf)
        intervals = interval_indices(table, values)
        rows = all_symbols_for(table, intervals)
        words = ["".join("abcd"[s] for s in row) for row in rows]
        assert words == ["aaa", "abb", "bcd"]

    def test_rejects_alphabet_outside_range(self):
        table = MultiResolutionAlphabet(6, min_alphabet_size=3)
        intervals = interval_indices(table, np.array([0.0]))
        with pytest.raises(ValueError, match="outside table range"):
            table.symbols_for(intervals, 2)
        with pytest.raises(ValueError, match="outside table range"):
            table.symbols_for(intervals, 7)

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            MultiResolutionAlphabet(3, min_alphabet_size=5)

    def test_binary_search_cost_logarithmic(self):
        """Structural check for the O(log amax) claim: table size is linear
        in the number of distinct breakpoints, not resolutions x values."""
        table = MultiResolutionAlphabet(20)
        assert len(table.merged_breakpoints) <= sum(a - 1 for a in range(2, 21))
