"""Gaussian breakpoint tables (Section 4.1) and the merged multi-resolution
table used for fast multi-alphabet SAX (Section 6.2.2).

A SAX alphabet of size ``a`` partitions the real line into ``a`` regions that
are equiprobable under the standard normal distribution; the ``a - 1``
boundaries are the Gaussian quantiles ``ppf(i / a)``.

For the ensemble, words must be produced for *every* alphabet size in
``[2, amax]``. :class:`MultiResolutionAlphabet` merges all the breakpoint
tables into one sorted array; a single binary search then locates the
interval of a PAA coefficient, and a precomputed symbol matrix maps that
interval to its symbol under each alphabet size simultaneously — the symbol
matrix of Figure 6 in the paper.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.stats import norm

from repro.utils.validation import validate_alphabet_size


@lru_cache(maxsize=64)
def gaussian_breakpoints(alphabet_size: int) -> np.ndarray:
    """Return the ``a - 1`` equiprobable Gaussian breakpoints for alphabet ``a``.

    The returned array is cached and marked read-only; callers must copy
    before mutating.
    """
    alphabet_size = validate_alphabet_size(alphabet_size)
    quantiles = np.arange(1, alphabet_size) / alphabet_size
    breakpoints = norm.ppf(quantiles)
    breakpoints.flags.writeable = False
    return breakpoints


def symbol_indices(values: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Map values to 0-based symbol indices under a single alphabet size.

    Regions are closed on the left (``[beta_i, beta_{i+1})``), matching the
    paper's Figure 3, so the index is the number of breakpoints ``<= value``.
    """
    breakpoints = gaussian_breakpoints(alphabet_size)
    return np.searchsorted(breakpoints, np.asarray(values, dtype=np.float64), side="right")


class MultiResolutionAlphabet:
    """Merged breakpoint table covering every alphabet size in ``[amin, amax]``.

    Parameters
    ----------
    max_alphabet_size:
        Largest alphabet size (``amax`` in the paper).
    min_alphabet_size:
        Smallest alphabet size; the paper always uses 2.

    Notes
    -----
    Let ``B`` be the sorted union of all per-alphabet breakpoints. ``B``
    induces ``len(B) + 1`` intervals; since every per-alphabet breakpoint is
    a member of ``B``, a value's symbol under *any* alphabet size is constant
    within an interval. The symbol matrix therefore has one row per interval
    and one column per alphabet size, and discretizing a value costs one
    binary search in ``B`` (``O(log len(B))``) for *all* resolutions, as in
    Section 6.2.2 of the paper.
    """

    def __init__(self, max_alphabet_size: int, min_alphabet_size: int = 2) -> None:
        self.max_alphabet_size = validate_alphabet_size(max_alphabet_size)
        self.min_alphabet_size = validate_alphabet_size(min_alphabet_size)
        if self.min_alphabet_size > self.max_alphabet_size:
            raise ValueError(
                f"min_alphabet_size={min_alphabet_size} exceeds "
                f"max_alphabet_size={max_alphabet_size}"
            )
        sizes = range(self.min_alphabet_size, self.max_alphabet_size + 1)
        merged = np.unique(np.concatenate([gaussian_breakpoints(a) for a in sizes]))
        merged.flags.writeable = False
        #: Sorted union of all breakpoints ("summary" line of Figure 6).
        self.merged_breakpoints = merged
        #: ``symbol_matrix[i, j]`` = symbol index of interval ``i`` under
        #: alphabet size ``min_alphabet_size + j`` (Figure 6's symbol matrix,
        #: stored interval-major).
        self.symbol_matrix = self._build_symbol_matrix()
        #: The same table alphabet-major, so each column is contiguous.
        self._columns = np.ascontiguousarray(self.symbol_matrix.T)
        self._columns.flags.writeable = False

    def _build_symbol_matrix(self) -> np.ndarray:
        sizes = range(self.min_alphabet_size, self.max_alphabet_size + 1)
        columns = []
        for a in sizes:
            breakpoints = gaussian_breakpoints(a)
            # Interval 0 is (-inf, merged[0]); interval i >= 1 starts at
            # merged[i - 1], and because breakpoints ⊆ merged no per-alphabet
            # breakpoint falls strictly inside an interval, so the count of
            # breakpoints <= left edge is the symbol for the whole interval.
            upper = np.searchsorted(breakpoints, self.merged_breakpoints, side="right")
            columns.append(np.concatenate(([0], upper)))
        matrix = np.stack(columns, axis=1).astype(np.int64)
        matrix.flags.writeable = False
        return matrix

    @property
    def n_intervals(self) -> int:
        """Number of intervals induced by the merged breakpoints."""
        return len(self.merged_breakpoints) + 1

    def alphabet_sizes(self) -> range:
        """The inclusive range of alphabet sizes this table covers."""
        return range(self.min_alphabet_size, self.max_alphabet_size + 1)

    def symbol_column(self, alphabet_size: int) -> np.ndarray:
        """Interval -> symbol index under one alphabet size (contiguous int64)."""
        alphabet_size = int(alphabet_size)
        if not self.min_alphabet_size <= alphabet_size <= self.max_alphabet_size:
            raise ValueError(
                f"alphabet_size={alphabet_size} outside table range "
                f"[{self.min_alphabet_size}, {self.max_alphabet_size}]"
            )
        return self._columns[alphabet_size - self.min_alphabet_size]

    def symbols_for(self, interval_idx: np.ndarray, alphabet_size: int) -> np.ndarray:
        """Symbol indices of pre-located intervals under one alphabet size."""
        return self.symbol_column(alphabet_size)[np.asarray(interval_idx)]
