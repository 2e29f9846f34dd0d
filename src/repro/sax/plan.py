"""Shared multi-window discretization plan (the ensemble front end).

Before this module, every ensemble member re-ran the full discretization
pipeline over the same series: PAA matrix formation re-derived the window
means/stds per member, and each member paid its own breakpoint search. The
statistics depend only on the *window* (shared by all members), the PAA
matrix only on ``(window, paa_size)``, and the merged-table interval of a
coefficient only on its value — so for an ensemble with ``m`` members over
``k ≤ m`` distinct PAA sizes, one plan computes:

- the window means/stds **once** per sweep,
- one interval matrix per *distinct* PAA size (one native z-norm + PAA +
  breakpoint-search pass that never forms the float matrix),
- each member's symbols through one column of the precomputed symbol
  matrix of :class:`~repro.sax.breakpoints.MultiResolutionAlphabet`
  (Figure 6 of the paper) — O(rows × word_length) with no arithmetic.
  Batch members get their numerosity-reduced token ids straight from the
  interval matrix (:func:`repro.sax._kernel.sax_tokens`): dense ids in
  first-occurrence order, not the sorted rank of a word.

A :class:`DiscretizationPlan` is built once per detector from the ensemble
configuration; each batch series then opens a :class:`DiscretizationSweep`
over a window-start range, which caches the per-PAA-size matrices lazily,
so batch detection (all starts at once) and the multi-resolution
discretizer share one code path. A streaming detector uses its plan's
merged table, search and columns only: its drain blocks run the same
native pass inside one call for every member
(:class:`repro.grammar._kernel.LogDrain`).

The hot loops are the native passes of :mod:`repro.sax._kernel`, pinned
bitwise-identical to the numpy reference (``tests/oracles/sax.py``) by the
property and differential suites. Stage timers fire here, once per sweep
per PAA size: ``paa`` covers the whole native pass (z-norm, PAA and
interval search). Symbol lookup, numerosity and ids are ``discretize``
time wherever they run. A detect that fans its members out across threads
fills the per-PAA-size cache on pool threads through
:meth:`DiscretizationSweep.fill_intervals`, which records no timer and
returns its time for the calling thread to charge to ``paa``.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.obs.stages import stage_timer
from repro.sax import _kernel
from repro.sax.breakpoints import MultiResolutionAlphabet
from repro.sax.paa import CumulativeStats
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD
from repro.utils.validation import validate_alphabet_size, validate_paa_size


@lru_cache(maxsize=64)
def merged_search(max_alphabet_size: int, min_alphabet_size: int) -> _kernel.BreakpointSearch:
    """The native search of :class:`MultiResolutionAlphabet`'s merged table,
    built once per process and table (about 25 KB each): a streaming
    ensemble opens a plan per member and per session, and they all share it.
    """
    table = MultiResolutionAlphabet(max_alphabet_size, min_alphabet_size)
    return _kernel.BreakpointSearch(table.merged_breakpoints)


class DiscretizationPlan:
    """Shared discretization configuration for one window length.

    Parameters
    ----------
    window:
        The sliding-window length shared by every member.
    configs:
        The members' ``(paa_size, alphabet_size)`` pairs (duplicates fine,
        order irrelevant), or ``None`` for an open plan that accepts any
        PAA size up to ``window`` and any alphabet size within the table
        range (the multi-resolution discretizer's lazy case).
    znorm_threshold:
        Relative constancy threshold passed to the PAA stage.
    max_alphabet_size, min_alphabet_size:
        Bounds of the merged breakpoint table. ``max_alphabet_size``
        defaults to the largest configured alphabet; a single-member plan
        may pin ``min == max`` so the merged table *is* that member's
        breakpoint table.
    """

    __slots__ = (
        "window", "configs", "paa_sizes", "znorm_threshold", "alphabet_table",
        "breakpoint_search",
    )

    def __init__(
        self,
        window: int,
        configs: Iterable[tuple[int, int]] | None = None,
        *,
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
        max_alphabet_size: int | None = None,
        min_alphabet_size: int = 2,
    ) -> None:
        self.window = int(window)
        if self.window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.znorm_threshold = float(znorm_threshold)
        if configs is None:
            self.configs: tuple[tuple[int, int], ...] | None = None
            self.paa_sizes: tuple[int, ...] = ()
            if max_alphabet_size is None:
                raise ValueError("an open plan (configs=None) requires max_alphabet_size")
        else:
            pairs = [
                (validate_paa_size(w, self.window), validate_alphabet_size(a))
                for w, a in configs
            ]
            if not pairs:
                raise ValueError("configs must name at least one (paa_size, alphabet_size)")
            self.configs = tuple(pairs)
            self.paa_sizes = tuple(sorted({w for w, _ in pairs}))
            largest = max(a for _, a in pairs)
            if max_alphabet_size is None:
                max_alphabet_size = largest
            elif max_alphabet_size < largest:
                raise ValueError(
                    f"max_alphabet_size={max_alphabet_size} below configured "
                    f"alphabet size {largest}"
                )
        #: Merged breakpoint table shared by every member (Section 6.2.2).
        self.alphabet_table = MultiResolutionAlphabet(max_alphabet_size, min_alphabet_size)
        #: The merged table's native search, shared by every plan of the table.
        self.breakpoint_search = merged_search(
            self.alphabet_table.max_alphabet_size, self.alphabet_table.min_alphabet_size
        )

    def sweep(
        self,
        prefix_sum: np.ndarray,
        prefix_sq: np.ndarray,
        values: np.ndarray,
        start: int,
        stop: int,
        *,
        origin: int = 0,
    ) -> "DiscretizationSweep":
        """Open a sweep over window starts ``[start, stop)`` (global indices).

        ``origin`` is the global index of ``values[0]``, exactly as in
        :func:`~repro.sax._kernel.paa_rows_block` — an evicted stream buffer
        passes its retained arrays plus offset and the float arithmetic
        stays identical to the unevicted computation.
        """
        return DiscretizationSweep(self, prefix_sum, prefix_sq, values, start, stop, origin)

    def sweep_series(self, stats: CumulativeStats, start: int = 0, stop: int | None = None):
        """Open a sweep over a batch series' :class:`CumulativeStats`."""
        if stop is None:
            stop = len(stats.series) - self.window + 1
        return self.sweep(stats.prefix_sum, stats.prefix_sq, stats.series, start, stop)


class DiscretizationSweep:
    """One shared pass over a contiguous range of window starts.

    Lazily computes and caches, per distinct PAA size, the z-normalized PAA
    matrix and the merged-table interval matrix; member symbol matrices are
    derived from the cached intervals. The window statistics are computed
    once, so every PAA size of the sweep runs over the same (bitwise)
    statistics.
    """

    __slots__ = (
        "plan", "_prefix_sum", "_prefix_sq", "_values", "start", "stop",
        "_origin", "_stats", "_paa", "_intervals",
    )

    def __init__(
        self,
        plan: DiscretizationPlan,
        prefix_sum: np.ndarray,
        prefix_sq: np.ndarray,
        values: np.ndarray,
        start: int,
        stop: int,
        origin: int,
    ) -> None:
        start = int(start)
        stop = int(stop)
        origin = int(origin)
        if not origin <= start <= stop:
            raise ValueError(f"need origin <= start <= stop, got {origin}, {start}, {stop}")
        if stop > start and stop - origin + plan.window - 1 > len(values):
            raise ValueError(
                f"window starts up to {stop - 1} need {stop - origin + plan.window - 1} "
                f"values from origin {origin}, buffer holds {len(values)}"
            )
        self.plan = plan
        self._prefix_sum = prefix_sum
        self._prefix_sq = prefix_sq
        self._values = values
        self.start = start
        self.stop = stop
        self._origin = origin
        self._stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._paa: dict[int, np.ndarray] = {}
        self._intervals: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.stop - self.start

    def _validated(self, paa_size: int) -> int:
        paa_size = validate_paa_size(paa_size, self.plan.window)
        if self.plan.configs is not None and paa_size not in self.plan.paa_sizes:
            raise ValueError(f"paa_size={paa_size} not in plan ({self.plan.paa_sizes})")
        return paa_size

    def shared_stats(self):
        """The sweep's :func:`~repro.sax._kernel.window_stats` triple, computed once."""
        if self._stats is None:
            self._stats = _kernel.window_stats(
                self._prefix_sum, self._prefix_sq, self.start, self.stop,
                self.plan.window, self.plan.znorm_threshold, origin=self._origin,
            )
        return self._stats

    def paa_rows(self, paa_size: int) -> np.ndarray:
        """Z-normalized PAA matrix for one PAA size (cached per sweep)."""
        paa_size = self._validated(paa_size)
        rows = self._paa.get(paa_size)
        if rows is None:
            with stage_timer("paa"):
                rows = _kernel.paa_rows_block(
                    self._prefix_sum, self._prefix_sq, self._values,
                    self.start, self.stop, self.plan.window, paa_size,
                    self.plan.znorm_threshold, origin=self._origin,
                    stats=self.shared_stats(),
                )
                rows.flags.writeable = False
            self._paa[paa_size] = rows
        return rows

    def interval_rows(self, paa_size: int) -> np.ndarray:
        """Merged-table interval matrix for one PAA size (cached per sweep).

        One native pass (z-norm + PAA + search, all ``paa`` time) that
        never forms the float matrix.
        """
        paa_size = self._validated(paa_size)
        intervals = self._intervals.get(paa_size)
        if intervals is None:
            with stage_timer("paa"):
                intervals = self._native_intervals(paa_size)
            intervals.flags.writeable = False
            self._intervals[paa_size] = intervals
        return intervals

    def _native_intervals(self, paa_size: int) -> np.ndarray:
        return _kernel.sax_intervals(
            self._prefix_sum, self._values, self.start, self.stop, self.plan.window,
            paa_size, self.shared_stats(), self.plan.breakpoint_search,
            origin=self._origin,
        )[1]

    def fill_intervals(self, paa_size: int) -> float:
        """Cache one PAA size's interval matrix off the caller's thread.

        The pass of :meth:`interval_rows`, without its stage timer: returns
        the seconds spent (0.0 when already cached) for the calling thread
        to charge to ``paa``, so pool threads may run it for distinct PAA
        sizes at once. Call :meth:`shared_stats` first, on the caller, so
        the statistics are computed once. A later :meth:`interval_rows`
        returns the cached matrix.
        """
        paa_size = self._validated(paa_size)
        if paa_size in self._intervals:
            return 0.0
        started = perf_counter()
        intervals = self._native_intervals(paa_size)
        intervals.flags.writeable = False
        self._intervals[paa_size] = intervals
        return perf_counter() - started

    def symbol_rows(self, paa_size: int, alphabet_size: int) -> np.ndarray:
        """One member's symbol-index matrix (intervals shared, lookup per member)."""
        return self.plan.alphabet_table.symbols_for(
            self.interval_rows(paa_size), alphabet_size
        )
