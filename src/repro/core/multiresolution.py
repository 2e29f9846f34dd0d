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
- per ``(w, a)``, a member's symbols are a constant-time lookup through
  that alphabet's column of the symbol matrix (Figure 6).

Everything after the interval matrix runs natively, once per member, and
never builds a word string: :func:`repro.sax._kernel.sax_tokens` does the
lookup, numerosity reduction (exact or none) and token ids, and
:func:`repro.grammar._kernel.member_curve` chains that pass with Sequitur,
the rule spans and the density curve in one call
(:func:`repro.core.engine.compute_member_curves`). So the marginal cost of
an extra alphabet size for an already-seen ``w`` is one pass over the
interval matrix — the speedup benchmarked in
``benchmarks/bench_discretization_speedup.py``.
"""

from __future__ import annotations

import numpy as np

from repro.sax import _kernel
from repro.sax.numerosity import STRATEGIES
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
    """Share one series' discretization across many ``(w, a)`` members.

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
        if numerosity not in STRATEGIES:
            raise ValueError(f"unknown numerosity {numerosity!r}; expected one of {STRATEGIES}")
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

    def token_ids(self, paa_size: int, alphabet_size: int) -> tuple[np.ndarray, np.ndarray]:
        """``(kept_offsets, ids)`` of one member, never a word string.

        :func:`repro.sax._kernel.sax_tokens` over the shared interval
        matrix and the member's alphabet column, under this discretizer's
        numerosity strategy: the tokenize stage that
        :func:`repro.grammar._kernel.member_curve` runs first, on its own.
        """
        return _kernel.sax_tokens(
            self.interval_matrix(paa_size),
            self.alphabet_table.symbol_column(alphabet_size),
            reduce=self.numerosity == "exact",
        )
