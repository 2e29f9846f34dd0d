"""SAX words of single subsequences (Section 4.1).

``sax_word`` discretizes one subsequence into its word string. A whole
series is never turned into word strings: the sliding-window pipeline runs
natively on symbol rows and token ids
(:meth:`repro.core.multiresolution.MultiResolutionDiscretizer.token_ids`).

``mindist`` implements the classic SAX lower-bounding distance between two
words; the property tests pin the representation's correctness with it.
"""

from __future__ import annotations

import numpy as np

from repro.sax.alphabet import indices_to_word, word_to_indices
from repro.sax.breakpoints import gaussian_breakpoints, symbol_indices
from repro.sax.paa import paa
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
