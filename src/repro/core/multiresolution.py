"""Multi-resolution discretizer (Section 6.2): the ensemble's shared fast path.

The ensemble needs token sequences for many ``(w, a)`` combinations of the
*same* series and window. Recomputing SAX from scratch per member costs
``O(N (n + w + log a))`` each; this class shares everything shareable:

- the prefix sums (``ESum_x``, ``ESum_xx``) are built once per series
  (FastPAA, Algorithm 2);
- per distinct ``w``, the z-normalized PAA matrix is computed once and its
  coefficients located in the merged breakpoint table of
  :class:`repro.sax.breakpoints.MultiResolutionAlphabet` with one binary
  search — yielding the *interval index matrix*;
- per ``(w, a)``, words are a constant-time table lookup into the symbol
  matrix (Figure 6), followed by numerosity reduction.

So the marginal cost of an extra alphabet size for an already-seen ``w`` is
one fancy-indexing pass — the speedup benchmarked in
``benchmarks/bench_discretization_speedup.py``.
"""

from __future__ import annotations

import numpy as np

from repro.obs.stages import stage_timer
from repro.sax import _kernel
from repro.sax.alphabet import index_matrix_to_words
from repro.sax.numerosity import (
    TokenIdSequence,
    TokenSequence,
    kept_window_mask,
    numerosity_reduction,
)
from repro.sax.paa import CumulativeStats
from repro.sax.plan import DiscretizationPlan
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD
from repro.utils.validation import (
    ensure_time_series,
    validate_alphabet_size,
    validate_paa_size,
    validate_window,
)


class MultiResolutionDiscretizer:
    """Produce numerosity-reduced token sequences for many ``(w, a)`` cheaply.

    Parameters
    ----------
    series:
        The time series to discretize.
    window:
        Sliding-window length ``n`` (fixed per discretizer).
    max_paa_size, max_alphabet_size:
        Upper bounds ``wmax``/``amax`` of the resolutions that will be
        requested; the merged breakpoint table covers ``[2, amax]``.
    znorm_threshold:
        Constant-window guard forwarded to the PAA stage.
    numerosity:
        Reduction strategy (``"exact"`` or ``"none"``).
    """

    def __init__(
        self,
        series: np.ndarray,
        window: int,
        max_paa_size: int,
        max_alphabet_size: int,
        *,
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
        numerosity: str = "exact",
    ) -> None:
        self.series = ensure_time_series(series, name="series", min_length=2)
        self.window = validate_window(window, len(self.series))
        self.max_paa_size = validate_paa_size(max_paa_size, self.window)
        self.max_alphabet_size = validate_alphabet_size(max_alphabet_size)
        self.znorm_threshold = float(znorm_threshold)
        self.numerosity = numerosity
        self.stats = CumulativeStats(self.series)
        #: Open discretization plan (any paa_size up to ``window``); the
        #: sweep below carries the per-``w`` PAA/interval matrix caches.
        self._plan = DiscretizationPlan(
            self.window,
            None,
            znorm_threshold=self.znorm_threshold,
            max_alphabet_size=self.max_alphabet_size,
        )
        self.alphabet_table = self._plan.alphabet_table
        self._sweep = self._plan.sweep_series(self.stats)
        #: Caches: (paa_size, alphabet_size) -> TokenSequence / ids.
        self._token_cache: dict[tuple[int, int], TokenSequence] = {}
        self._id_cache: dict[tuple[int, int], TokenIdSequence] = {}

    @property
    def sweep(self):
        """The shared :class:`~repro.sax.plan.DiscretizationSweep` over the series."""
        return self._sweep

    @property
    def n_windows(self) -> int:
        """Number of sliding-window positions."""
        return len(self.series) - self.window + 1

    def interval_matrix(self, paa_size: int) -> np.ndarray:
        """Merged-table interval indices of every window's PAA coefficients.

        Computed once per distinct ``paa_size`` and cached (in the shared
        :class:`~repro.sax.plan.DiscretizationSweep`); this is the expensive
        half of discretization (PAA + binary search), one native pass per
        PAA size.
        """
        paa_size = validate_paa_size(paa_size, self.window)
        if paa_size > self.max_paa_size:
            raise ValueError(
                f"paa_size={paa_size} exceeds the declared max_paa_size={self.max_paa_size}"
            )
        return self._sweep.interval_rows(paa_size)

    def words(self, paa_size: int, alphabet_size: int) -> list[str]:
        """SAX words of every window under ``(paa_size, alphabet_size)``."""
        intervals = self.interval_matrix(paa_size)
        symbols = self.alphabet_table.symbols_for(intervals, alphabet_size)
        return index_matrix_to_words(symbols)

    def tokens(self, paa_size: int, alphabet_size: int) -> TokenSequence:
        """Numerosity-reduced token sequence for ``(paa_size, alphabet_size)``.

        Cached per combination — ensemble members with duplicate parameters
        (not sampled by Algorithm 1, but possible via direct calls) are free.

        The exact-reduction fast path finds run boundaries on the symbol
        *index matrix* first and only materializes word strings for the kept
        windows; two windows share a word exactly when their symbol rows are
        equal, so this is equivalent to reducing the full word list (and is
        what makes the shared discretizer markedly faster than per-(w, a)
        SAX — most windows are dropped before any string is built).
        """
        key = (int(paa_size), int(alphabet_size))
        cached = self._token_cache.get(key)
        if cached is not None:
            return cached
        intervals = self.interval_matrix(paa_size)
        if self.numerosity == "exact":
            with stage_timer("discretize"):
                symbols = self.alphabet_table.symbols_for(intervals, alphabet_size)
                kept_offsets = np.flatnonzero(kept_window_mask(symbols)).astype(np.int64)
                words = index_matrix_to_words(symbols[kept_offsets])
                cached = TokenSequence(
                    tuple(words), kept_offsets, len(symbols), self.window
                )
        else:
            with stage_timer("discretize"):
                symbols = self.alphabet_table.symbols_for(intervals, alphabet_size)
                words = index_matrix_to_words(symbols)
                cached = numerosity_reduction(words, self.window, self.numerosity)
        self._token_cache[key] = cached
        return cached

    def token_ids(self, paa_size: int, alphabet_size: int) -> TokenIdSequence:
        """Token ids for ``(paa_size, alphabet_size)``, never a word string.

        The string-free path for the native grammar builder. One native pass
        (:func:`repro.sax._kernel.sax_tokens`) maps the shared interval
        matrix to this member's symbols, keeps each row that differs from
        the row before it, and numbers the kept rows in *first-occurrence*
        order (not by sorted rank), at any word width: the words of
        :meth:`tokens`, numbered as they first appear. Grammar structure
        depends only on which tokens are equal, so these ids induce the same
        grammar as interned ones; a batch sequence is fed once, so it needs
        no id space that stays stable across calls. Only the exact strategy
        is served here (``"none"`` keeps every window, so it gains nothing
        from deferral); callers fall back to :meth:`tokens` for other
        strategies.
        """
        if self.numerosity != "exact":
            raise ValueError(
                f"token_ids requires numerosity='exact', got {self.numerosity!r}"
            )
        key = (int(paa_size), int(alphabet_size))
        cached = self._id_cache.get(key)
        if cached is not None:
            return cached
        intervals = self.interval_matrix(paa_size)
        with stage_timer("discretize"):
            offsets, ids = _kernel.sax_tokens(
                intervals, self.alphabet_table.symbol_column(alphabet_size)
            )
        cached = TokenIdSequence(ids, offsets, len(intervals), self.window)
        self._id_cache[key] = cached
        return cached
