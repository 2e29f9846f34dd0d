"""Unit and property tests for repro.sax.paa (PAA and FastPAA, Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles.sax import paa_naive
from repro.sax._kernel import paa_rows_block
from repro.sax.paa import CumulativeStats, paa, znorm_paa
from repro.sax.znorm import znorm


def sliding_rows(stats: CumulativeStats, window: int, paa_size: int) -> np.ndarray:
    """The native z-normalized PAA row of every window of ``stats.series``."""
    windows = len(stats.series) - window + 1
    return paa_rows_block(
        stats.prefix_sum, stats.prefix_sq, stats.series, 0, windows, window, paa_size
    )

values_strategy = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def series_and_paa_size(draw):
    n = draw(st.integers(2, 80))
    w = draw(st.integers(1, n))
    data = draw(arrays(np.float64, n, elements=values_strategy))
    return data, w


class TestPaaReference:
    def test_whole_series_mean_when_w1(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        assert paa_naive(data, 1) == pytest.approx([2.5])

    def test_identity_when_w_equals_n(self):
        data = np.array([3.0, -1.0, 2.0])
        assert np.allclose(paa_naive(data, 3), data)

    def test_divisible_segments(self):
        data = np.array([1.0, 3.0, 5.0, 7.0])
        assert np.allclose(paa_naive(data, 2), [2.0, 6.0])

    def test_fractional_boundary(self):
        # n=3, w=2: segment 1 = x0 + x1/2, segment 2 = x1/2 + x2 (each / 1.5)
        data = np.array([0.0, 3.0, 6.0])
        expected = [(0.0 + 1.5) / 1.5, (1.5 + 6.0) / 1.5]
        assert np.allclose(paa_naive(data, 2), expected)

    def test_rejects_w_above_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            paa_naive(np.zeros(4), 5)


class TestPaaFastAgainstNaive:
    @given(series_and_paa_size())
    def test_paa_equals_naive(self, case):
        data, w = case
        assert np.allclose(paa(data, w), paa_naive(data, w), atol=1e-8)

    @given(series_and_paa_size())
    def test_mean_preserved(self, case):
        """The weighted mean of PAA coefficients equals the series mean."""
        data, w = case
        coefficients = paa(data, w)
        assert coefficients.mean() == pytest.approx(data.mean(), abs=1e-6)


class TestCumulativeStats:
    def test_subsequence_sum(self, rng):
        series = rng.standard_normal(50)
        stats = CumulativeStats(series)
        assert stats.subsequence_sum(5, 20) == pytest.approx(series[5:20].sum())

    def test_mean_std_matches_numpy(self, rng):
        series = rng.standard_normal(100)
        stats = CumulativeStats(series)
        for start, stop in [(0, 10), (20, 90), (99, 100), (0, 100)]:
            mean, std = stats.mean_std(start, stop)
            segment = series[start:stop]
            assert mean == pytest.approx(segment.mean(), abs=1e-9)
            expected_std = segment.std(ddof=1) if len(segment) > 1 else 0.0
            assert std == pytest.approx(expected_std, abs=1e-9)

    def test_empty_subsequence_rejected(self):
        stats = CumulativeStats(np.arange(10.0))
        with pytest.raises(ValueError, match="empty"):
            stats.mean_std(5, 5)

    def test_len(self):
        assert len(CumulativeStats(np.arange(7.0))) == 7

    def test_fast_paa_matches_znorm_paa(self, rng):
        series = np.cumsum(rng.standard_normal(200))
        stats = CumulativeStats(series)
        for start, n, w in [(0, 50, 5), (30, 64, 8), (100, 100, 7), (150, 50, 50)]:
            fast = stats.fast_paa(start, n, w)
            reference = znorm_paa(series[start : start + n], w)
            assert np.allclose(fast, reference, atol=1e-8), (start, n, w)

    def test_fast_paa_constant_window_is_zero(self):
        series = np.concatenate([np.full(30, 2.0), np.arange(20.0)])
        stats = CumulativeStats(series)
        assert np.allclose(stats.fast_paa(0, 20, 4), 0.0)

    def test_sliding_means_stds(self, rng):
        series = rng.standard_normal(60)
        stats = CumulativeStats(series)
        means, stds = stats.sliding_means_stds(12)
        assert len(means) == 49
        for p in [0, 17, 48]:
            assert means[p] == pytest.approx(series[p : p + 12].mean(), abs=1e-9)
            assert stds[p] == pytest.approx(series[p : p + 12].std(ddof=1), abs=1e-9)

    def test_sliding_rows_match_fast_paa(self, rng):
        series = np.cumsum(rng.standard_normal(120))
        stats = CumulativeStats(series)
        matrix = sliding_rows(stats, 30, 6)
        assert matrix.shape == (91, 6)
        for p in [0, 13, 55, 90]:
            assert np.allclose(matrix[p], stats.fast_paa(p, 30, 6), atol=1e-10)

    def test_sliding_rows_window_equals_series(self, rng):
        series = rng.standard_normal(40)
        stats = CumulativeStats(series)
        matrix = sliding_rows(stats, 40, 10)
        assert matrix.shape == (1, 10)
        assert np.allclose(matrix[0], znorm_paa(series, 10), atol=1e-8)


class TestFastPaaProperty:
    @given(
        arrays(np.float64, st.integers(30, 120), elements=values_strategy),
        st.integers(4, 25),
        st.integers(1, 20),
    )
    def test_every_window_matches_reference(self, series, window, paa_size):
        window = min(window, len(series))
        paa_size = min(paa_size, window)
        stats = CumulativeStats(series)
        matrix = sliding_rows(stats, window, paa_size)
        # Prefix-sum cancellation error scales with the *global* magnitude,
        # so windows whose own variation is small relative to it are
        # ill-conditioned by construction and outside the contract (the
        # dedicated constant-window unit test covers the guard behaviour).
        scale = max(1.0, float(np.abs(series).max()))
        for p in np.linspace(0, len(series) - window, 4).astype(int):
            segment = series[p : p + window]
            if segment.std(ddof=1) < 1e-6 * scale:
                continue
            reference = paa_naive(znorm(segment), paa_size)
            assert np.allclose(matrix[p], reference, atol=1e-6)
