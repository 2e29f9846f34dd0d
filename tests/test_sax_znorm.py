"""Unit and property tests for repro.sax.znorm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD, constancy_cutoff, znorm

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def is_constant(values: np.ndarray) -> bool:
    """``znorm``'s own constancy decision for ``values``."""
    return bool(values.std(ddof=1) < constancy_cutoff(values.mean()))


class TestZnormBasics:
    def test_zero_mean_unit_std(self):
        out = znorm(np.array([1.0, 2.0, 3.0, 4.0]))
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_uses_sample_std(self):
        # With ddof=1 the normalized values of [0, 2] are +-1/sqrt(2)*2/2...
        out = znorm(np.array([0.0, 2.0]))
        expected = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(out, expected)

    def test_constant_input_centred_not_scaled(self):
        out = znorm(np.full(10, 3.7))
        assert np.allclose(out, 0.0)

    def test_near_constant_below_threshold(self):
        values = np.full(10, 5.0) + 1e-12
        out = znorm(values)
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_near_constant_above_custom_threshold_scaled(self):
        values = np.array([0.0, 1e-3, 0.0, 1e-3])
        out = znorm(values, threshold=1e-6)
        assert out.std(ddof=1) == pytest.approx(1.0)

    def test_single_element(self):
        out = znorm(np.array([42.0]))
        assert np.allclose(out, 0.0)

    def test_empty_returns_empty(self):
        assert znorm(np.array([])).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            znorm(np.zeros((2, 3)))

    def test_does_not_mutate_input(self):
        values = np.array([1.0, 2.0, 3.0])
        original = values.copy()
        znorm(values)
        assert np.array_equal(values, original)

    def test_default_threshold_is_small(self):
        assert 0 < DEFAULT_ZNORM_THRESHOLD < 1e-4


class TestZnormProperties:
    @given(arrays(np.float64, st.integers(2, 64), elements=finite_floats))
    def test_output_mean_is_zero(self, values):
        out = znorm(values)
        assert abs(out.mean()) < 1e-6

    @given(arrays(np.float64, st.integers(2, 64), elements=finite_floats))
    def test_output_std_is_one_or_zero(self, values):
        out = znorm(values)
        std = out.std(ddof=1)
        # Either scaled to unit std, or flagged constant — in which case the
        # residual std is below the (relative) constancy cutoff.
        cutoff = DEFAULT_ZNORM_THRESHOLD * max(1.0, abs(float(values.mean())))
        assert std == pytest.approx(1.0, abs=1e-6) or std < cutoff + 1e-15

    @given(
        arrays(np.float64, st.integers(2, 64), elements=finite_floats),
        st.floats(min_value=0.5, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @example(values=np.array([6e-8, 0, 0, 0, 0, 0, 0, 0]), scale=0.5, offset=3.0)
    def test_offset_amplitude_invariance(self, values, scale, offset):
        """The invariance property the paper's Section 3.1 requires.

        It holds for a fixed constancy decision. The cutoff
        ``threshold * max(1, |mean|)`` moves with the offset, so a
        transform can carry a window whose deviation sits near it across
        it; then the outputs differ exactly by the branch taken.
        """
        transformed_values = values * scale + offset
        base = znorm(values)
        transformed = znorm(transformed_values)
        was_constant = is_constant(values)
        if was_constant == is_constant(transformed_values):
            # Scaled windows are invariant; constant ones are only centred,
            # and centring commutes with the affine map.
            expected = scale * base if was_constant else base
            assert np.allclose(transformed, expected, atol=1e-6)
            return
        # The decision flipped, and that alone explains the difference: the
        # centred values agree, the constant side is centred, the other
        # scaled to unit deviation.
        centred = values - values.mean()
        assert np.allclose((transformed_values - transformed_values.mean()) / scale, centred)
        constant_side, scaled_side = (base, transformed) if was_constant else (transformed, base)
        source = values if was_constant else transformed_values
        assert np.array_equal(constant_side, source - source.mean())
        assert scaled_side.std(ddof=1) == pytest.approx(1.0, abs=1e-6)

    @given(arrays(np.float64, st.integers(2, 64), elements=finite_floats))
    def test_idempotent(self, values):
        once = znorm(values)
        twice = znorm(once)
        assert np.allclose(once, twice, atol=1e-6)
