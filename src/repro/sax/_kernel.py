"""Discretization kernel seam: the numpy reference and one native pass.

The grammar stage sits behind ``REPRO_KERNEL``; this module extends the
same seam one layer up, to the discretization front end, so a single
environment variable governs the whole tokenize→grammar pipeline:

- ``"python"`` — the reference path: :func:`repro.sax.paa.sliding_paa_rows`
  per PAA size (each call re-derives the window statistics) and
  :func:`interval_rows_from` (``np.searchsorted``) against the merged
  breakpoint table. This is the oracle the property suites compare
  everything against.
- ``"fast"`` — :func:`window_stats` once per sweep, shared by every PAA
  size, then the native passes of ``_sax.c``: :func:`sax_intervals` does
  z-normalized PAA and the breakpoint search in one loop per PAA size, and
  :func:`sax_tokens` does symbol lookup, exact numerosity reduction and
  token ids in one loop per ensemble member, on a row table that lives for
  that one call. Streaming members keep a table of the same kind for their
  whole life behind :class:`repro.sax.alphabet.WordInterner`, under either
  kernel: it is the only interner.

Build on first import: ``_sax.c`` is compiled with the Sequitur arena's
``_sequitur.c`` into the package's one native library, which
``repro.grammar._kernel`` builds and loads; this module binds the same
handle. A failed build raises :class:`ImportError`; there is no fallback.
A batch ensemble member calls :func:`sax_tokens`'s pass as the first stage
of :func:`repro.grammar._kernel.member_curve`, inside one native call.

Selection is shared with the grammar seam — :func:`current_kernel`,
:func:`set_kernel` and :func:`use_kernel` are re-exported from
:mod:`repro.grammar._kernel` — so ``REPRO_KERNEL=python`` (or a
``use_kernel`` scope) switches both stages together.

Parity contract (pinned by ``tests/test_sax_native.py``,
``tests/test_sax_properties.py`` and ``tests/test_kernel_differential.py``):
the native PAA rows and interval matrices are bitwise equal to the
reference, because ``_sax.c`` repeats numpy's float operations one for one
and is compiled without FMA contraction. Native token ids are dense ids in
*first-occurrence* order, not the sorted rank of a word: only their
equality pattern is contract, and it equals the reference words'. Grammar
structure depends on nothing else.
"""

from __future__ import annotations

import numpy as np

from repro.grammar._kernel import (  # noqa: F401  (re-exported seam controls)
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    _checked,
    _lib,
    _raise,
    current_kernel,
    set_kernel,
    use_kernel,
)
from repro.sax.paa import sliding_paa_rows
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD, constancy_mask

#: Status codes of ``_sax.c`` and what each raises.
_ERRORS = {
    -1: (IndexError, "an index lies outside the tables or buffers of the native SAX pass"),
    -2: (MemoryError, "the native SAX pass could not allocate its buffers"),
}


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

    Exactly the statistics block of :func:`~repro.sax.paa.sliding_paa_rows`
    — same operations in the same order, so reusing one result across every
    PAA size of a sweep is bitwise indistinguishable from recomputing it.
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
    breakpoints: np.ndarray | None = None,
    kernel: str | None = None,
) -> np.ndarray:
    """Kernel-dispatched z-normalized PAA rows for starts in ``[start, stop)``.

    Row ``i`` corresponds to the window starting at global index
    ``start + i``; both kernels produce output bitwise equal to
    :func:`~repro.sax.paa.sliding_paa_rows`. With a sorted ``breakpoints``
    table the result is instead the interval matrix of those rows
    (:func:`interval_rows_from`), which ``fast`` computes without forming
    the rows. ``stats`` may carry a precomputed :func:`window_stats` triple
    to share across PAA sizes; the ``python`` oracle ignores it and
    re-derives the statistics.
    """
    kernel = current_kernel() if kernel is None else kernel
    if kernel == "python":
        rows = sliding_paa_rows(
            prefix_sum, prefix_sq, values, start, stop, window, paa_size,
            znorm_threshold, origin=origin,
        )
        return rows if breakpoints is None else interval_rows_from(rows, breakpoints)
    if stats is None:
        stats = window_stats(
            prefix_sum, prefix_sq, start, stop, window, znorm_threshold, origin=origin
        )
    rows, intervals = sax_intervals(
        prefix_sum, values, start, stop, window, paa_size, stats, breakpoints,
        origin=origin, rows=breakpoints is None,
    )
    return rows if breakpoints is None else intervals


def interval_rows_from(rows: np.ndarray, merged_breakpoints: np.ndarray) -> np.ndarray:
    """Locate each PAA coefficient's merged-table interval (the reference search).

    ``np.searchsorted(..., side="right")``: a value equal to a breakpoint
    falls in the region above it (the breakpoint-tie golden vectors in
    ``tests/test_sax_properties.py`` pin the convention, and
    :func:`sax_intervals` follows it).
    """
    return np.searchsorted(merged_breakpoints, rows, side="right")


def sax_intervals(
    prefix_sum: np.ndarray,
    values: np.ndarray,
    start: int,
    stop: int,
    window: int,
    paa_size: int,
    stats: tuple[np.ndarray, np.ndarray, np.ndarray],
    breakpoints: np.ndarray | None = None,
    *,
    origin: int = 0,
    rows: bool = False,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One native z-normalized PAA pass: ``(rows, intervals)``.

    ``rows`` (float64, one row per window start in ``[start, stop)``) is
    written when ``rows=True``; ``intervals`` (``intp``, the
    ``side="right"`` search of every coefficient in ``breakpoints``) when a
    table is given. Either is ``None`` otherwise. ``stats`` is the
    :func:`window_stats` triple of the same range. Inputs are checked here,
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
    if breakpoints is not None:
        _checked(breakpoints, np.float64, 1, "breakpoints")
        out_intervals = np.empty((count, paa_size), dtype=np.intp)
    if count:
        status = _lib.sax_intervals(
            prefix_sum.ctypes.data, len(prefix_sum), values.ctypes.data, len(values),
            start, stop, origin, window, paa_size,
            means.ctypes.data, stds.ctypes.data, constant.ctypes.data,
            None if breakpoints is None else breakpoints.ctypes.data,
            0 if breakpoints is None else len(breakpoints),
            None if out_rows is None else out_rows.ctypes.data,
            None if out_intervals is None else out_intervals.ctypes.data,
        )
        if status:
            _raise(status, _ERRORS)
    return out_rows, out_intervals


def sax_tokens(intervals: np.ndarray, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One native tokenize pass: ``(kept_offsets, ids)``, both int64.

    ``intervals`` is an interval matrix (``intp``, one row per window) and
    ``symbols`` one alphabet's column of the symbol matrix (int64, interval
    -> symbol index). A window is kept when its symbol row differs from the
    previous window's (exact numerosity reduction); kept rows get dense ids
    in first-occurrence order, equal rows equal ids, at any row width. The
    row table is the one behind :class:`~repro.sax.alphabet.WordInterner`,
    created and freed inside the call.
    Inputs are checked before the C call, as in :func:`sax_intervals`.
    """
    _checked(intervals, np.intp, 2, "intervals")
    _checked(symbols, np.int64, 1, "symbols")
    rows, width = intervals.shape
    if width < 1 or not len(symbols):
        raise ValueError(f"need words of at least one symbol and a symbol table, got {width}")
    offsets = np.empty(rows, dtype=np.int64)
    ids = np.empty(rows, dtype=np.int64)
    kept = _lib.sax_tokens(
        intervals.ctypes.data, rows, width, symbols.ctypes.data, len(symbols),
        offsets.ctypes.data, ids.ctypes.data,
    )
    if kept < 0:
        _raise(kept, _ERRORS)
    offsets.resize(kept, refcheck=False)
    ids.resize(kept, refcheck=False)
    return offsets, ids
