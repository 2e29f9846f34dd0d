"""Unit tests for repro.grammar.density (rule density curve, Section 5.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles.pipeline import rule_density_curve
from oracles.sax import discretize, numerosity_reduction
from repro.grammar.density import density_curve_from_token_spans, density_from_intervals
from repro.grammar.sequitur import induce_grammar


class TestDensityFromIntervals:
    def test_single_interval(self):
        curve = density_from_intervals([(2, 4)], 8)
        assert curve.tolist() == [0, 0, 1, 1, 1, 0, 0, 0]

    def test_overlapping_intervals_sum(self):
        curve = density_from_intervals([(0, 3), (2, 5)], 7)
        assert curve.tolist() == [1, 1, 2, 2, 1, 1, 0]

    def test_interval_clipped_to_length(self):
        curve = density_from_intervals([(5, 100)], 8)
        assert curve.tolist() == [0, 0, 0, 0, 0, 1, 1, 1]

    def test_negative_start_clipped(self):
        curve = density_from_intervals([(-3, 2)], 5)
        assert curve.tolist() == [1, 1, 1, 0, 0]

    def test_interval_outside_range_ignored(self):
        curve = density_from_intervals([(10, 20)], 5)
        assert curve.tolist() == [0, 0, 0, 0, 0]

    def test_empty_interval_list(self):
        assert density_from_intervals([], 4).tolist() == [0, 0, 0, 0]

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            density_from_intervals([(3, 2)], 5)

    def test_float_empty_interval_rejected_before_truncation(self):
        """Emptiness is judged on the raw values, as in the scalar loop:
        (1.9, 1.2) is empty even though both truncate to 1."""
        with pytest.raises(ValueError, match="empty"):
            density_from_intervals([(1.9, 1.2)], 5)

    def test_huge_endpoints_clip_like_the_loop(self):
        """Endpoints beyond int64 range must clip to the curve, not overflow
        to INT64_MIN and silently vanish (the scalar loop used Python ints)."""
        assert density_from_intervals([(5.0, 1e30)], 10).tolist() == [
            0, 0, 0, 0, 0, 1, 1, 1, 1, 1,
        ]
        assert density_from_intervals([(-1e30, 2)], 5).tolist() == [1, 1, 1, 0, 0]

    def test_non_finite_endpoints_rejected(self):
        """Corrupted intervals must fail loudly (the scalar loop raised on
        int(inf)/int(nan)), never silently contribute nothing."""
        with pytest.raises(ValueError, match="finite"):
            density_from_intervals([(0, np.inf)], 10)
        with pytest.raises(ValueError, match="finite"):
            density_from_intervals([(np.nan, 3.0)], 10)

    def test_non_positive_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            density_from_intervals([], 0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
                lambda pair: (min(pair), max(pair))
            ),
            max_size=30,
        )
    )
    def test_total_mass_equals_interval_lengths(self, intervals):
        length = 60
        curve = density_from_intervals(intervals, length)
        expected = sum(end - start + 1 for start, end in intervals)
        assert curve.sum() == expected
        assert np.all(curve >= 0)

    @staticmethod
    def _loop_reference(intervals, length):
        """The seed scalar loop, kept verbatim as the vectorized ground truth."""
        diff = np.zeros(length + 1, dtype=np.int64)
        for start, end in intervals:
            if end < start:
                raise ValueError(f"interval ({start}, {end}) is empty")
            start = max(int(start), 0)
            end = min(int(end), length - 1)
            if start >= length or end < 0:
                continue
            diff[start] += 1
            diff[end + 1] -= 1
        return np.cumsum(diff[:-1]).astype(np.float64)

    @given(
        st.lists(
            st.tuples(st.integers(-20, 80), st.integers(0, 60)).map(
                lambda pair: (pair[0], pair[0] + pair[1])
            ),
            max_size=40,
        ),
        st.integers(1, 50),
    )
    def test_vectorized_matches_loop_reference(self, intervals, length):
        """The np.bincount scatter must reproduce the scalar loop exactly,
        including out-of-range clipping on both sides."""
        assert np.array_equal(
            density_from_intervals(intervals, length),
            self._loop_reference(intervals, length),
        )


def _oracle_from_spans(offsets, window, firsts, lasts, length, horizon_start=0):
    """The numpy path the native ``seq_density`` replaced: gather the
    intervals, then :func:`density_from_intervals`."""
    starts = offsets[firsts] - horizon_start
    ends = offsets[lasts] + (window - 1) - horizon_start
    return density_from_intervals(np.column_stack((starts, ends)), length)


@st.composite
def span_cases(draw):
    """Sorted offsets, any spans over them (none included), a horizon that
    can put spans left of, across or past the curve, and a curve length."""
    gaps = draw(st.lists(st.integers(0, 12), min_size=1, max_size=40))
    offsets = np.cumsum(np.asarray(gaps, dtype=np.int64))
    window = draw(st.integers(1, 30))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, len(offsets) - 1), st.integers(0, len(offsets) - 1)),
            max_size=30,
        )
    )
    firsts = np.asarray([min(pair) for pair in pairs], dtype=np.int64)
    lasts = np.asarray([max(pair) for pair in pairs], dtype=np.int64)
    reach = int(offsets[-1]) + window
    horizon_start = draw(st.integers(-10, reach + 10))
    length = draw(st.one_of(st.just(1), st.integers(1, reach + 10)))
    return offsets, window, firsts, lasts, length, horizon_start


class TestNativeDensityDifferential:
    """``density_curve_from_token_spans`` (the native ``seq_density``)
    against the numpy oracle, byte for byte."""

    @staticmethod
    def _assert_same(offsets, window, firsts, lasts, length, horizon_start=0):
        native = density_curve_from_token_spans(
            offsets, window, firsts, lasts, length, horizon_start=horizon_start
        )
        oracle = _oracle_from_spans(offsets, window, firsts, lasts, length, horizon_start)
        assert native.dtype == np.float64
        assert native.tobytes() == oracle.tobytes()

    @given(span_cases())
    @example((np.array([0, 3, 7]), 4, np.array([], dtype=np.int64),
              np.array([], dtype=np.int64), 12, 0))
    def test_matches_numpy_oracle(self, case):
        self._assert_same(*case)

    @pytest.mark.parametrize(
        "horizon_start, length",
        [
            (0, 40),  # the batch case: every span inside the curve
            (100, 20),  # every span wholly left of the curve
            (8, 20),  # spans straddling the left edge
            (-30, 25),  # the curve ends before the spans start
            (5, 10),  # spans straddling the right edge
            (3, 1),  # a one-point curve
        ],
    )
    def test_horizon_placements(self, horizon_start, length):
        offsets = np.array([0, 2, 5, 9, 14, 20], dtype=np.int64)
        firsts = np.array([0, 1, 2, 0, 4, 3], dtype=np.int64)
        lasts = np.array([1, 3, 2, 5, 5, 4], dtype=np.int64)
        self._assert_same(offsets, 6, firsts, lasts, length, horizon_start)

    def test_accepts_lists_and_other_integer_dtypes(self):
        offsets = np.array([0, 4, 9], dtype=np.int32)
        native = density_curve_from_token_spans(offsets, 3, [0, 1], [1, 2], 15)
        oracle = _oracle_from_spans(offsets.astype(np.int64), 3, [0, 1], [1, 2], 15)
        assert native.tobytes() == oracle.tobytes()

    def test_empty_interval_rejected(self):
        """Unsorted offsets map a span to an interval ending before it starts."""
        offsets = np.array([10, 0], dtype=np.int64)
        firsts, lasts = np.array([0]), np.array([1])
        with pytest.raises(ValueError, match="empty"):
            _oracle_from_spans(offsets, 1, firsts, lasts, 20)
        with pytest.raises(ValueError, match="empty"):
            density_curve_from_token_spans(offsets, 1, firsts, lasts, 20)

    @pytest.mark.parametrize("length", [0, -3])
    def test_non_positive_length_rejected(self, length):
        offsets = np.array([0, 1], dtype=np.int64)
        spans = np.array([0]), np.array([1])
        with pytest.raises(ValueError, match="positive"):
            _oracle_from_spans(offsets, 2, *spans, length)
        with pytest.raises(ValueError, match="positive"):
            density_curve_from_token_spans(offsets, 2, *spans, length)

    @pytest.mark.parametrize(
        "firsts, lasts", [([0, 3], [1, 3]), ([0, 1], [1, 7]), ([-1], [0]), ([0], [-2])]
    )
    def test_span_index_out_of_range(self, firsts, lasts):
        """Every span index must lie in ``[0, len(offsets))``. Negative
        indices raise too, where numpy indexing would wrap around."""
        offsets = np.array([0, 2, 4], dtype=np.int64)
        with pytest.raises(IndexError):
            density_curve_from_token_spans(offsets, 2, np.array(firsts), np.array(lasts), 10)

    def test_index_error_takes_precedence_over_empty_interval(self):
        """As in the numpy path, which gathers before it checks emptiness."""
        offsets = np.array([10, 0], dtype=np.int64)
        with pytest.raises(IndexError):
            density_curve_from_token_spans(offsets, 1, np.array([0, 5]), np.array([1, 1]), 20)

    def test_mismatched_span_arrays_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            density_curve_from_token_spans(np.arange(4), 2, np.array([0, 1]), np.array([1]), 9)


class TestRuleDensityCurve:
    def _curve_for(self, words: list[str], window: int, series_length: int) -> np.ndarray:
        tokens = numerosity_reduction(words, window)
        grammar = induce_grammar(list(tokens.words))
        return rule_density_curve(grammar, tokens, series_length)

    def test_paper_toy_example_coverage(self):
        """Eq. (1): the repeated aa bb cc spans are rule-covered; the xx
        region gets no coverage of its own (its points are only reached by
        the tails of the flanking rule spans)."""
        words = ["aa", "bb", "cc", "xx", "aa", "bb", "cc"]
        window = 2
        curve = self._curve_for(words, window, series_length=8)
        # R1 -> aa bb cc covers [offset 0, offset 2 + 1] and [4, 7].
        assert curve.tolist() == [1, 1, 1, 1, 1, 1, 1, 1]

    def test_incompressible_middle_has_zero_density(self):
        """A longer version of the Eq. (1) toy: an incompressible stretch
        strictly inside the series has exactly zero rule density."""
        words = (
            ["aa", "bb", "cc", "aa", "bb", "cc"]
            + ["xx", "yy", "zz"]
            + ["aa", "bb", "cc", "aa", "bb", "cc"]
        )
        window = 2
        curve = self._curve_for(words, window, series_length=16)
        # The repeated blocks cover [0, 6] and [9, 15]; points 7-8 are the
        # interior of the incompressible stretch.
        assert curve[7] == 0.0
        assert curve[8] == 0.0
        assert curve[:6].min() >= 1.0
        assert curve[10:].min() >= 1.0

    def test_incompressible_sequence_all_zero(self):
        words = ["aa", "bb", "cc", "dd", "ee"]
        curve = self._curve_for(words, 2, series_length=6)
        assert np.allclose(curve, 0.0)

    def test_repetitive_sequence_positive_everywhere_inside(self):
        words = ["aa", "bb"] * 10
        curve = self._curve_for(words, 2, series_length=21)
        assert curve[:-1].min() >= 1.0

    def test_curve_length_matches_series(self):
        words = ["aa", "bb", "aa", "bb"]
        curve = self._curve_for(words, 3, series_length=12)
        assert len(curve) == 12

    def test_nested_rules_increase_density(self):
        """abab abab -> nested rules cover the repeated region multiple times."""
        words = ["ab", "cd"] * 8
        curve = self._curve_for(words, 2, series_length=17)
        assert curve.max() >= 2.0

    def test_mismatched_grammar_and_tokens_rejected(self):
        tokens = numerosity_reduction(["aa", "bb", "aa", "bb"], window=2)
        wrong_grammar = induce_grammar(["aa", "bb"])
        with pytest.raises(ValueError, match="same discretization"):
            rule_density_curve(wrong_grammar, tokens, 10)

    def test_anomaly_sits_at_density_minimum(self, anomalous_sine):
        """Integration: the planted anomaly is in the lowest-density region."""
        series, gt_position, gt_length = anomalous_sine
        words = discretize(series, 100, 5, 5)
        tokens = numerosity_reduction(words, 100)
        grammar = induce_grammar(list(tokens.words))
        curve = rule_density_curve(grammar, tokens, len(series))
        # The mean density over the anomalous window is below the global mean.
        anomaly_region = curve[gt_position : gt_position + gt_length].mean()
        assert anomaly_region < curve.mean()
