"""The native discretization front end: window statistics, then one C pass.

:func:`window_stats` computes the window means and standard deviations
once per sweep, shared by every PAA size; then the native passes of
``_sax.c`` run: :func:`sax_intervals` does z-normalized PAA and the
breakpoint search in one loop per PAA size (its start table built once
per breakpoint table, :class:`BreakpointSearch`), and :func:`sax_tokens`
does symbol lookup, numerosity reduction (exact or none) and token ids in
one loop per batch member, on a row table emptied at the start of the pass (the
calling thread's member workspace inside
:func:`repro.grammar._kernel.member_curve`, a throwaway one here).
Streaming members keep a table of the same kind for their whole life behind
:class:`repro.sax.alphabet.WordInterner`, the only interner; their drains
run the same two passes (statistics here, the rest inside one native call
per block, :class:`repro.grammar._kernel.LogDrain`).

Build on first import: ``_sax.c`` is compiled with the Sequitur arena's
``_sequitur.c`` into the package's one native library, which
``repro.grammar._kernel`` builds and loads; this module binds the same
handle. A failed build raises :class:`ImportError`; there is no fallback.
Every batch member calls :func:`sax_tokens`'s pass as the first stage of
:func:`repro.grammar._kernel.member_curve`, inside one native call.

Parity contract (pinned by ``tests/test_sax_native.py``,
``tests/test_sax_properties.py`` and ``tests/test_kernel_differential.py``
against the numpy reference in ``tests/oracles/sax.py``): the native PAA
rows and interval matrices are bitwise equal to the reference's sliding
PAA rows and ``np.searchsorted(..., side="right")`` intervals, because
``_sax.c`` repeats numpy's float operations one for one and is compiled
without FMA contraction. Native token ids are dense ids in
*first-occurrence* order, not the sorted rank of a word: only their
equality pattern is contract, and it equals the reference words'. Grammar
structure depends on nothing else.
"""

from __future__ import annotations

import numpy as np

from repro.grammar._kernel import _checked, _lib, _raise
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD, constancy_mask

#: Status codes of ``_sax.c`` and what each raises.
_ERRORS = {
    -1: (IndexError, "an index lies outside the tables or buffers of the native SAX pass"),
    -2: (MemoryError, "the native SAX pass could not allocate its buffers"),
}


class BreakpointSearch:
    """A sorted breakpoint table and the native start table that searches it.

    ``_sax.c``'s ``SaxSearch`` handle: a copy of ``breakpoints`` (float64,
    sorted) with its 1024-slice start table, built here once and freed with
    this object; :attr:`breakpoints` is a read-only copy of the same breaks.
    Every :class:`~repro.sax.plan.DiscretizationPlan` of one merged table
    shares one (:func:`~repro.sax.plan.merged_search`), so the passes of its
    sweeps (batch sizes and streaming drains alike) skip the build.
    """

    __slots__ = ("breakpoints", "handle")

    def __init__(self, breakpoints: np.ndarray) -> None:
        _checked(breakpoints, np.float64, 1, "breakpoints")
        self.breakpoints = breakpoints.copy()
        self.breakpoints.flags.writeable = False
        self.handle = _lib.sax_search_new(breakpoints.ctypes.data, len(breakpoints))
        if not self.handle:
            raise MemoryError("cannot allocate a native breakpoint search")

    def __del__(self, _free=_lib.sax_search_free) -> None:  # bound early: globals die at exit
        if getattr(self, "handle", None):
            _free(self.handle)

    def __reduce__(self):
        return BreakpointSearch, (self.breakpoints,)


def window_stats(
    prefix_sum: np.ndarray,
    prefix_sq: np.ndarray,
    start: int,
    stop: int,
    window: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    *,
    origin: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(means, safe_stds, constant)`` for window starts in ``[start, stop)``.

    Exactly the statistics block of the reference sliding PAA rows — same
    operations in the same order, so reusing one result across every PAA
    size of a sweep is bitwise indistinguishable from recomputing it.
    ``safe_stds`` substitutes 1.0 on constant windows (whose rows are zeroed
    afterwards), ``constant`` is the boolean constancy row mask.
    """
    local = np.arange(start - origin, stop - origin)
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
    return means, safe_stds, constant


def paa_rows_block(
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
    stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Z-normalized PAA rows for window starts in ``[start, stop)``, natively.

    Row ``i`` corresponds to the window starting at global index
    ``start + i``. ``stats`` may carry a precomputed :func:`window_stats`
    triple to share across PAA sizes. ``origin`` is the global index of ``values[0]``: an evicted
    stream buffer passes its retained arrays with their offset, and the
    window positions stay global, so every output bit equals the
    unevicted computation's.
    """
    if stats is None:
        stats = window_stats(
            prefix_sum, prefix_sq, start, stop, window, znorm_threshold, origin=origin
        )
    return sax_intervals(
        prefix_sum, values, start, stop, window, paa_size, stats, origin=origin, rows=True
    )[0]


def sax_intervals(
    prefix_sum: np.ndarray,
    values: np.ndarray,
    start: int,
    stop: int,
    window: int,
    paa_size: int,
    stats: tuple[np.ndarray, np.ndarray, np.ndarray],
    search: BreakpointSearch | None = None,
    *,
    origin: int = 0,
    rows: bool = False,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One native z-normalized PAA pass: ``(rows, intervals)``.

    ``rows`` (float64, one row per window start in ``[start, stop)``) is
    written when ``rows=True``; ``intervals`` (``intp``, the
    ``side="right"`` search of every coefficient in ``search``'s
    breakpoints; a value equal to a breakpoint falls in the region above
    it) when a search is given. Either is ``None`` otherwise. ``stats`` is
    the :func:`window_stats` triple of the same range. Inputs are checked here,
    before the C call: wrong dtypes raise :class:`TypeError`, wrong shapes,
    lengths or ranges :class:`ValueError`.
    """
    start, stop, origin = int(start), int(stop), int(origin)
    window, paa_size = int(window), int(paa_size)
    _checked(prefix_sum, np.float64, 1, "prefix_sum")
    _checked(values, np.float64, 1, "values")
    means, stds, constant = stats
    _checked(means, np.float64, 1, "means")
    _checked(stds, np.float64, 1, "safe_stds")
    _checked(constant, np.bool_, 1, "constant")
    if not 0 <= origin <= start <= stop:
        raise ValueError(f"need 0 <= origin <= start <= stop, got {origin}, {start}, {stop}")
    if not 1 <= paa_size <= window:
        raise ValueError(f"need 1 <= paa_size <= window, got {paa_size}, {window}")
    count = stop - start
    if any(len(column) != count for column in (means, stds, constant)):
        raise ValueError(f"stats must hold {count} windows")
    if count and (
        len(prefix_sum) < stop - origin + window or len(values) < stop - origin + window - 1
    ):
        raise ValueError(
            f"window starts up to {stop - 1} need {stop - origin + window} prefix sums "
            f"from origin {origin}, got {len(prefix_sum)} (and {len(values)} values)"
        )
    out_rows = np.empty((count, paa_size)) if rows else None
    out_intervals = None
    if search is not None:
        if not isinstance(search, BreakpointSearch):
            raise TypeError("search must be a BreakpointSearch")
        out_intervals = np.empty((count, paa_size), dtype=np.intp)
    if count:
        status = _lib.sax_intervals(
            prefix_sum.ctypes.data, len(prefix_sum), values.ctypes.data, len(values),
            start, stop, origin, window, paa_size,
            means.ctypes.data, stds.ctypes.data, constant.ctypes.data,
            None if search is None else search.handle,
            None if out_rows is None else out_rows.ctypes.data,
            None if out_intervals is None else out_intervals.ctypes.data,
        )
        if status:
            _raise(status, _ERRORS)
    return out_rows, out_intervals


def sax_tokens(
    intervals: np.ndarray, symbols: np.ndarray, *, reduce: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """One native tokenize pass: ``(kept_offsets, ids)``, both int64.

    ``intervals`` is an interval matrix (``intp``, one row per window) and
    ``symbols`` one alphabet's column of the symbol matrix (int64, interval
    -> symbol index). With ``reduce`` (exact numerosity reduction) a window
    is kept when its symbol row differs from the previous window's; without
    it every window is kept. Kept rows get dense ids in first-occurrence
    order, equal rows equal ids, at any row width. The
    row table is the one behind :class:`~repro.sax.alphabet.WordInterner`,
    created and freed around the native pass.
    Inputs are checked before the C call, as in :func:`sax_intervals`.
    """
    _checked(intervals, np.intp, 2, "intervals")
    _checked(symbols, np.int64, 1, "symbols")
    rows, width = intervals.shape
    if width < 1 or not len(symbols):
        raise ValueError(f"need words of at least one symbol and a symbol table, got {width}")
    offsets = np.empty(rows, dtype=np.int64)
    ids = np.empty(rows, dtype=np.int64)
    table = _lib.sax_table_new()
    if not table:
        raise MemoryError("cannot allocate a native row table")
    try:
        kept = _lib.sax_tokens(
            table, intervals.ctypes.data, rows, width, symbols.ctypes.data, len(symbols),
            int(bool(reduce)), offsets.ctypes.data, ids.ctypes.data,
        )
    finally:
        _lib.sax_table_free(table)
    if kept < 0:
        _raise(kept, _ERRORS)
    offsets.resize(kept, refcheck=False)
    ids.resize(kept, refcheck=False)
    return offsets, ids
