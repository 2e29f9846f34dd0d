"""The numpy SAX reference the native front end is tested against.

:func:`sliding_paa_rows` forms every window's z-normalized PAA row from the
prefix sums with numpy, re-deriving the window statistics per call, and
:func:`interval_rows_from` searches a breakpoint table with
``np.searchsorted``; ``repro/sax/_sax.c`` must reproduce both bit for bit.
:func:`interval_indices` and :func:`all_symbols_for` read a
:class:`~repro.sax.breakpoints.MultiResolutionAlphabet` that way (Figure
6's one search for every resolution). :func:`paa_naive` is the
upsample-and-average PAA, the ground truth of the
prefix-sum paths, and :func:`sliding_paa_matrix` the batch form of the
sliding rows over a :class:`~repro.sax.paa.CumulativeStats`.
:func:`first_occurrence_ids` numbers words the way the native tokenizer
numbers kept rows, and :func:`kept_window_mask` picks the rows its exact
numerosity reduction keeps.

The word path the native tokenizer replaced lives here too:
:func:`discretize` (one SAX word string per sliding window, from the numpy
rows above), :func:`numerosity_reduction` (Section 4.2 over those strings)
and its inverse :func:`expand_tokens`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sax.alphabet import index_matrix_to_words
from repro.sax.breakpoints import gaussian_breakpoints
from repro.sax.numerosity import STRATEGIES, TokenSequence
from repro.sax.paa import CumulativeStats, _fractional_prefix
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD, constancy_mask
from repro.utils.validation import (
    ensure_time_series,
    validate_alphabet_size,
    validate_paa_size,
    validate_window,
)


def paa_naive(subsequence: np.ndarray, paa_size: int) -> np.ndarray:
    """Reference PAA via the upsample-and-average construction.

    Exact but O(n·w); used in tests as the ground truth for the fast paths.
    """
    values = ensure_time_series(subsequence, name="subsequence")
    paa_size = validate_paa_size(paa_size, len(values))
    n = len(values)
    # Repeating each sample w times and averaging blocks of n implements the
    # exact fractional-boundary convention.
    upsampled = np.repeat(values, paa_size)
    return upsampled.reshape(paa_size, n).mean(axis=1)


def sliding_paa_rows(
    prefix_sum: np.ndarray,
    prefix_sq: np.ndarray,
    values: np.ndarray,
    start: int,
    stop: int,
    window: int,
    paa_size: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    *,
    origin: int = 0,
) -> np.ndarray:
    """Z-normalized PAA rows for window starts in ``[start, stop)``.

    Operates directly on pre-built prefix sums so that the batch discretizer
    (:class:`CumulativeStats`) and the streaming engine's shared stream state
    run the *same* floating-point operations — row ``i`` is bitwise equal to
    ``fast_paa(start + i, window, paa_size)``. Callers must guarantee
    ``origin <= start <= stop`` and ``stop + window - 1 <= origin +
    len(values)``.

    ``origin`` is the global stream index of ``values[0]``: an evicted
    stream state passes its retained arrays with their offset, while
    ``start``/``stop`` stay global. Window positions are then formed from
    the *global* indices, which keeps the fractional-boundary float
    arithmetic — and so every output bit — identical to the unevicted
    computation (``start_local + relative`` and ``start_global + relative``
    round differently for fractional segment widths).
    """
    starts = np.arange(start, stop)
    relative = np.arange(paa_size + 1) * (window / paa_size)
    positions = starts[:, None] + relative[None, :]
    cumulative = _fractional_prefix(prefix_sum, values, positions, origin)
    coefficients = np.diff(cumulative, axis=1) / (window / paa_size)
    local = starts - origin
    totals = prefix_sum[local + window] - prefix_sum[local]
    totals_sq = prefix_sq[local + window] - prefix_sq[local]
    means = totals / window
    if window == 1:
        stds = np.zeros_like(means)
    else:
        variances = np.maximum((totals_sq - totals * totals / window) / (window - 1), 0.0)
        stds = np.sqrt(variances)
    constant = constancy_mask(means, stds, znorm_threshold)
    safe_stds = np.where(constant, 1.0, stds)
    normalized = (coefficients - means[:, None]) / safe_stds[:, None]
    normalized[constant] = 0.0
    return normalized


def sliding_paa_matrix(
    stats: CumulativeStats,
    window: int,
    paa_size: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
) -> np.ndarray:
    """Z-normalized PAA coefficients of *every* window, vectorized.

    Returns a ``(len(series) - window + 1, paa_size)`` matrix; row ``p``
    equals ``stats.fast_paa(p, window, paa_size)``. This is the bulk entry
    point used by the sliding-window discretizer: the relative segment
    boundaries are shared by all windows, so the whole matrix is a pair
    of fancy-indexed prefix-sum lookups.
    """
    window = validate_window(window, len(stats.series))
    paa_size = validate_paa_size(paa_size, window)
    n_windows = len(stats.series) - window + 1
    return sliding_paa_rows(
        stats.prefix_sum,
        stats.prefix_sq,
        stats.series,
        0,
        n_windows,
        window,
        paa_size,
        znorm_threshold,
    )


def interval_rows_from(rows: np.ndarray, merged_breakpoints: np.ndarray) -> np.ndarray:
    """Locate each PAA coefficient's merged-table interval (the reference search).

    ``np.searchsorted(..., side="right")``: a value equal to a breakpoint
    falls in the region above it (the breakpoint-tie golden vectors in
    ``tests/test_sax_properties.py`` pin the convention, and
    :func:`repro.sax._kernel.sax_intervals` follows it).
    """
    return np.searchsorted(merged_breakpoints, rows, side="right")



def interval_indices(table, values: np.ndarray) -> np.ndarray:
    """The merged-table interval of each value of ``values`` under a
    :class:`~repro.sax.breakpoints.MultiResolutionAlphabet` ``table``: one
    search for every resolution (:func:`interval_rows_from`)."""
    return interval_rows_from(np.asarray(values, dtype=np.float64), table.merged_breakpoints)


def all_symbols_for(table, interval_idx: np.ndarray) -> np.ndarray:
    """Symbol indices of pre-located intervals under *every* alphabet size
    of ``table``: one trailing axis of length ``max_alphabet_size -
    min_alphabet_size + 1``, the per-value symbol sequence of Figure 6
    (e.g. ``aaa``, ``abb``, ``bcd``)."""
    return table.symbol_matrix[np.asarray(interval_idx)]

def first_occurrence_ids(words: Sequence[str]) -> np.ndarray:
    """Dense int64 ids of ``words`` in first-occurrence order."""
    first_seen: dict[str, int] = {}
    return np.fromiter(
        (first_seen.setdefault(word, len(first_seen)) for word in words),
        dtype=np.int64,
        count=len(words),
    )


def kept_window_mask(symbols: np.ndarray) -> np.ndarray:
    """Exact-numerosity keep mask over a symbol-index matrix.

    ``mask[i]`` is True when row ``i`` differs from row ``i - 1`` (row 0 is
    always kept): exactly the windows
    :func:`numerosity_reduction` keeps, decided on
    integer symbol rows — two windows share a word iff their symbol rows
    are equal — without materializing any strings.
    """
    matrix = np.asarray(symbols)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D symbol matrix, got shape {matrix.shape}")
    keep = np.ones(len(matrix), dtype=bool)
    keep[1:] = np.any(matrix[1:] != matrix[:-1], axis=1)
    return keep


def discretize(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    stats: CumulativeStats | None = None,
) -> list[str]:
    """SAX words of every sliding window of ``series``.

    One word per window start ``p`` in ``0 .. len(series) - window``: the
    :func:`sliding_paa_matrix` row searched in the ``alphabet_size``
    breakpoint table. ``stats`` may share one series' prefix sums across
    calls with different ``(w, a)``.
    """
    series = ensure_time_series(series, name="series", min_length=2)
    window = validate_window(window, len(series))
    paa_size = validate_paa_size(paa_size, window)
    alphabet_size = validate_alphabet_size(alphabet_size)
    if stats is None:
        stats = CumulativeStats(series)
    rows = sliding_paa_matrix(stats, window, paa_size, znorm_threshold)
    return index_matrix_to_words(interval_rows_from(rows, gaussian_breakpoints(alphabet_size)))


def numerosity_reduction(
    words: list[str],
    window: int,
    strategy: str = "exact",
) -> TokenSequence:
    """Numerosity reduction of a full sliding-window word list (Section 4.2).

    ``"exact"`` keeps only the first word of each run of consecutive
    identical words, with its window offset — the ``ba1, dc4, aa6, ac7``
    compression of the paper's Eq. (3); ``"none"`` keeps every word.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not words:
        raise ValueError("cannot reduce an empty word list")
    if strategy == "none":
        offsets = np.arange(len(words), dtype=np.int64)
        return TokenSequence(tuple(words), offsets, len(words), window)
    kept_words: list[str] = []
    kept_offsets: list[int] = []
    previous: str | None = None
    for position, word in enumerate(words):
        if word != previous:
            kept_words.append(word)
            kept_offsets.append(position)
            previous = word
    return TokenSequence(
        tuple(kept_words),
        np.asarray(kept_offsets, dtype=np.int64),
        len(words),
        window,
    )


def expand_tokens(tokens: TokenSequence) -> list[str]:
    """Invert numerosity reduction: the full word-per-window list.

    Reduction is lossless given the offsets, per Section 4.2 ("S_NR contains
    all information needed to retrieve the original token sequence").
    """
    expanded: list[str] = []
    boundaries = list(tokens.offsets) + [tokens.n_windows]
    for word, start, stop in zip(tokens.words, boundaries[:-1], boundaries[1:]):
        expanded.extend([word] * (stop - start))
    return expanded
