"""Piecewise Aggregate Approximation (Section 4.1) and its fast prefix-sum
variant, FastPAA (Algorithm 2 / Section 6.2.1).

PAA reduces a length-``n`` subsequence to ``w`` coefficients, each the mean
of one of ``w`` equal-width segments. When ``n`` is not a multiple of ``w``
the segment boundaries fall between samples; this module implements the
*exact fractional* convention (a boundary sample contributes to both
neighbouring segments, weighted by the overlap), which is equivalent to
upsampling the series by ``w`` and averaging blocks of ``n``.

:class:`CumulativeStats` pre-computes the prefix sums ``ESum_x`` and
``ESum_xx`` of the paper so that, for any subsequence, the mean and standard
deviation cost O(1) and the ``w`` PAA coefficients cost O(w) — independent of
``n``. The sliding-window discretizer reads its prefix sums and runs the
whole PAA matrix natively (:func:`repro.sax._kernel.paa_rows_block`).
"""

from __future__ import annotations

import numpy as np

from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD, constancy_cutoff, znorm
from repro.utils.validation import ensure_time_series, validate_paa_size, validate_window


def _fractional_prefix(
    prefix: np.ndarray,
    values: np.ndarray,
    positions: np.ndarray,
    origin: int = 0,
) -> np.ndarray:
    """Evaluate the piecewise-linear prefix sum ``F`` at fractional positions.

    ``F(k + f) = prefix[k] + f * values[k]`` for integer ``k`` and fractional
    part ``f`` in [0, 1); ``F`` interpolates the running sum so that
    ``F(b) - F(a)`` is the exact weighted sum of samples over ``[a, b)``.

    ``origin`` supports evicted stream buffers: ``positions`` stay in global
    stream coordinates (so the float arithmetic — and therefore every result
    bit — is identical to the unevicted computation) while ``prefix`` and
    ``values`` only cover the stream from global index ``origin`` on.
    """
    floor = np.floor(positions).astype(np.int64)
    frac = positions - floor
    # Positions may land exactly on the end of the values; frac is 0 there,
    # so clip the index used for the (zero-weighted) value lookup.
    value_idx = np.minimum(floor - origin, len(values) - 1)
    return prefix[floor - origin] + frac * values[value_idx]


def paa(subsequence: np.ndarray, paa_size: int) -> np.ndarray:
    """Exact fractional PAA in O(n + w) via a prefix sum.

    Agrees with the upsample-and-average construction (repeat each sample
    ``w`` times, average blocks of ``n``) to numerical precision for every
    ``n, w``.
    """
    values = ensure_time_series(subsequence, name="subsequence")
    paa_size = validate_paa_size(paa_size, len(values))
    n = len(values)
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    boundaries = np.arange(paa_size + 1) * (n / paa_size)
    cumulative = _fractional_prefix(prefix, values, boundaries)
    return np.diff(cumulative) / (n / paa_size)


class CumulativeStats:
    """Prefix-sum statistics of a series (``ESum_x``/``ESum_xx`` of Algorithm 2).

    Parameters
    ----------
    series:
        The full time series ``T``.

    Notes
    -----
    ``prefix_sum[k] = sum(T[:k])`` and ``prefix_sq[k] = sum(T[:k]**2)``, so a
    subsequence ``T[p:q]`` has sum ``prefix_sum[q] - prefix_sum[p]`` — the
    paper's ``ESum_x(q) - ESum_x(p)`` with 0-based half-open indexing.
    """

    def __init__(self, series: np.ndarray) -> None:
        self.series = ensure_time_series(series)
        self.prefix_sum = np.concatenate(([0.0], np.cumsum(self.series)))
        self.prefix_sq = np.concatenate(([0.0], np.cumsum(self.series**2)))

    def __len__(self) -> int:
        return len(self.series)

    def subsequence_sum(self, start: int, stop: int) -> float:
        """Sum of ``series[start:stop]`` in O(1)."""
        return float(self.prefix_sum[stop] - self.prefix_sum[start])

    def mean_std(self, start: int, stop: int) -> tuple[float, float]:
        """Mean and sample standard deviation of ``series[start:stop]`` in O(1).

        Implements lines 3–5 of Algorithm 2 (``ddof=1``); a length-1 window
        has standard deviation 0.
        """
        n = stop - start
        if n <= 0:
            raise ValueError(f"empty subsequence [{start}, {stop})")
        total = self.prefix_sum[stop] - self.prefix_sum[start]
        total_sq = self.prefix_sq[stop] - self.prefix_sq[start]
        mean = total / n
        if n == 1:
            return float(mean), 0.0
        # Cancellation can push the variance a hair below zero; clamp.
        variance = max((total_sq - total * total / n) / (n - 1), 0.0)
        return float(mean), float(np.sqrt(variance))

    def fast_paa(
        self,
        start: int,
        window: int,
        paa_size: int,
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    ) -> np.ndarray:
        """Z-normalized PAA of ``series[start:start + window]`` in O(w).

        This is Algorithm 2 (FastPAA) of the paper: the subsequence mean and
        standard deviation come from the prefix sums in O(1), each PAA
        coefficient from one prefix-sum difference, and the normalization
        ``(coeff - mean) / std`` is applied at the end. Constant windows
        (std below ``znorm_threshold``) map to all-zero coefficients.
        """
        window = validate_window(window, len(self.series) - start)
        paa_size = validate_paa_size(paa_size, window)
        mean, std = self.mean_std(start, start + window)
        boundaries = start + np.arange(paa_size + 1) * (window / paa_size)
        cumulative = _fractional_prefix(self.prefix_sum, self.series, boundaries)
        coefficients = np.diff(cumulative) / (window / paa_size)
        if std < constancy_cutoff(mean, znorm_threshold):
            return np.zeros(paa_size)
        return (coefficients - mean) / std

    def sliding_means_stds(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and sample std of every length-``window`` subsequence.

        Returns two arrays of length ``len(series) - window + 1``.
        """
        window = validate_window(window, len(self.series))
        totals = self.prefix_sum[window:] - self.prefix_sum[:-window]
        totals_sq = self.prefix_sq[window:] - self.prefix_sq[:-window]
        means = totals / window
        if window == 1:
            return means, np.zeros_like(means)
        variances = np.maximum((totals_sq - totals * totals / window) / (window - 1), 0.0)
        return means, np.sqrt(variances)


def znorm_paa(
    subsequence: np.ndarray,
    paa_size: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
) -> np.ndarray:
    """Z-normalize then PAA — the per-subsequence reference path.

    Matches ``CumulativeStats.fast_paa`` to numerical precision (the PAA of
    a z-normalized subsequence equals the z-normalization of the PAA, since
    both operations are affine).
    """
    return paa(znorm(np.asarray(subsequence, dtype=np.float64), znorm_threshold), paa_size)
