"""SAX word computation and sliding-window discretization (Section 4.1).

``sax_word`` handles a single subsequence; ``discretize`` produces the word
of every sliding window of a series using the vectorized prefix-sum PAA and
a single ``searchsorted`` against the breakpoint table, so the whole series
is discretized without a Python-level loop over windows.

``mindist`` implements the classic SAX lower-bounding distance, used by the
HOTSAX comparator and by the property tests that pin the representation's
correctness.
"""

from __future__ import annotations

import numpy as np

from repro.sax import _kernel
from repro.sax.alphabet import index_matrix_to_words, indices_to_word, word_to_indices
from repro.sax.breakpoints import gaussian_breakpoints, symbol_indices
from repro.sax.paa import CumulativeStats, paa
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD, znorm
from repro.utils.validation import (
    ensure_time_series,
    validate_alphabet_size,
    validate_paa_size,
    validate_window,
)


def sax_word(
    subsequence: np.ndarray,
    paa_size: int,
    alphabet_size: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
) -> str:
    """Discretize one subsequence into a SAX word.

    The subsequence is z-normalized, reduced to ``paa_size`` PAA
    coefficients, and each coefficient mapped to a symbol via the Gaussian
    breakpoint table — Figure 3 of the paper.

    Example
    -------
    >>> import numpy as np
    >>> sax_word(np.array([-2.0, -1.0, 1.0, 2.0]), paa_size=2, alphabet_size=3)
    'ac'
    """
    values = ensure_time_series(subsequence, name="subsequence", min_length=1)
    paa_size = validate_paa_size(paa_size, len(values))
    alphabet_size = validate_alphabet_size(alphabet_size)
    coefficients = paa(znorm(values, znorm_threshold), paa_size)
    return indices_to_word(symbol_indices(coefficients, alphabet_size))


def discretize(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    stats: CumulativeStats | None = None,
) -> list[str]:
    """SAX words of every sliding window of ``series``.

    Parameters
    ----------
    series:
        Input time series ``T``.
    window:
        Sliding window length ``n``.
    paa_size, alphabet_size:
        The discretization parameters ``w`` and ``a``.
    znorm_threshold:
        Constant-window guard passed through to the PAA stage.
    stats:
        Optional pre-built :class:`CumulativeStats` to share prefix sums
        across calls with different ``(w, a)`` (the ensemble's hot path).

    Returns
    -------
    list[str]
        One word per window start ``p`` in ``0 .. len(series) - window``.
    """
    return index_matrix_to_words(
        discretize_symbols(series, window, paa_size, alphabet_size, znorm_threshold, stats)
    )


def discretize_symbols(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    stats: CumulativeStats | None = None,
) -> np.ndarray:
    """Symbol-index matrix of every sliding window (``discretize`` sans strings).

    Row ``p`` holds the 0-based alphabet indices of window ``p``'s SAX word;
    :func:`discretize` is exactly ``index_matrix_to_words`` over this matrix.
    The integer form is the tokenizer fast path: numerosity reduction and
    word interning both operate on it, so strings are built only for the
    kept, distinct words at the grammar boundary.
    """
    series = ensure_time_series(series, name="series", min_length=2)
    window = validate_window(window, len(series))
    paa_size = validate_paa_size(paa_size, window)
    alphabet_size = validate_alphabet_size(alphabet_size)
    if stats is None:
        stats = CumulativeStats(series)
    # One native pass: z-normalized PAA and the breakpoint search, with the
    # breakpoint table as the interval table.
    n_windows = len(stats.series) - window + 1
    return _kernel.paa_rows_block(
        stats.prefix_sum, stats.prefix_sq, stats.series, 0, n_windows, window, paa_size,
        znorm_threshold, breakpoints=gaussian_breakpoints(alphabet_size),
    )


def mindist(
    word_a: str,
    word_b: str,
    alphabet_size: int,
    window: int,
) -> float:
    """SAX MINDIST between two words (Lin et al. 2007).

    A lower bound on the Euclidean distance between the two z-normalized
    subsequences the words represent:

    ``MINDIST = sqrt(n / w) * sqrt(sum_i cell(a_i, b_i)^2)``

    where ``cell(r, c) = 0`` when the symbols are adjacent or equal, and the
    breakpoint gap ``beta_{max(r,c)-1} - beta_{min(r,c)}`` otherwise.
    """
    if len(word_a) != len(word_b):
        raise ValueError(f"words must have equal length, got {len(word_a)} and {len(word_b)}")
    alphabet_size = validate_alphabet_size(alphabet_size)
    paa_size = len(word_a)
    window = validate_window(window, max(window, 2))
    if paa_size == 0:
        return 0.0
    breakpoints = gaussian_breakpoints(alphabet_size)
    idx_a = word_to_indices(word_a)
    idx_b = word_to_indices(word_b)
    if idx_a.max(initial=0) >= alphabet_size or idx_b.max(initial=0) >= alphabet_size:
        raise ValueError("word contains symbols outside the given alphabet size")
    low = np.minimum(idx_a, idx_b)
    high = np.maximum(idx_a, idx_b)
    # np.where evaluates both branches, so clip the lookups into range; the
    # clipped values are only read where high - low > 1, which guarantees
    # the unclipped indices were already valid there.
    top = len(breakpoints) - 1
    upper = breakpoints[np.clip(high - 1, 0, top)]
    lower = breakpoints[np.clip(low, 0, top)]
    gaps = np.where(high - low <= 1, 0.0, upper - lower)
    return float(np.sqrt(window / paa_size) * np.sqrt(np.sum(gaps**2)))
