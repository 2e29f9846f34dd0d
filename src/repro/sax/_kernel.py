"""Discretization kernel seam: selectable PAA/symbol hot-path backends.

PR 6 put the grammar stage behind ``REPRO_KERNEL``; this module extends the
same seam one layer up, to the discretization front end, so a single
environment variable governs the whole tokenize→grammar pipeline:

- ``"python"`` — the reference path: :func:`repro.sax.paa.sliding_paa_rows`
  per PAA size (each call re-derives the window statistics) and
  ``np.searchsorted`` against the merged breakpoint table. This is the
  oracle the property suite compares everything against.
- ``"fast"`` — shared window statistics computed once per sweep and reused
  by every PAA size, plus an integer-stride prefix-sum gather for the
  common case ``window % paa_size == 0`` (segment boundaries land exactly
  on samples, so the fractional interpolation term is identically zero and
  the cumulative sums are plain ``prefix_sum`` lookups).

Selection is shared with the grammar seam — :func:`current_kernel`,
:func:`set_kernel` and :func:`use_kernel` are re-exported from
:mod:`repro.grammar._kernel` — so ``REPRO_KERNEL=python`` (or a
``use_kernel`` scope) switches both stages together.

Parity contract (pinned by ``tests/test_sax_properties.py`` and
``tests/test_kernel_differential.py``): under ``fast`` the symbol
matrices — and therefore every token, grammar and anomaly curve downstream
— are bitwise identical to the reference path. For the PAA coefficient
values themselves, the ``fast`` integer-stride path omits the
reference's ``+ 0.0 * values[k]`` interpolation term, which can only flip
the *sign of an exactly-zero* coefficient (the term is a signed zero when
the boundary is integral), never its value. All downstream consumers —
``searchsorted`` discretization, the parity suites' ``array_equal`` —
compare by ``==``, under which ``-0.0 == 0.0``.
"""

from __future__ import annotations

import numpy as np

from repro.grammar._kernel import (  # noqa: F401  (re-exported seam controls)
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    current_kernel,
    set_kernel,
    use_kernel,
)
from repro.sax.paa import _fractional_prefix, sliding_paa_rows
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD, constancy_mask

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


def _fast_paa_rows(
    prefix_sum: np.ndarray,
    values: np.ndarray,
    start: int,
    stop: int,
    window: int,
    paa_size: int,
    means: np.ndarray,
    safe_stds: np.ndarray,
    constant: np.ndarray,
    origin: int,
) -> np.ndarray:
    """The ``fast`` PAA block: shared stats + integer-stride gather.

    When ``window % paa_size == 0`` every segment boundary is an exact
    integer position: the fractional parts are identically zero and the
    cumulative sums collapse to direct ``prefix_sum`` lookups (see the
    module docstring for the signed-zero caveat this introduces). Otherwise
    the exact fractional interpolation of the reference path runs verbatim.
    """
    step = window / paa_size
    if window % paa_size == 0:
        local = np.arange(start - origin, stop - origin, dtype=np.int64)
        offsets = np.arange(paa_size + 1, dtype=np.int64) * (window // paa_size)
        cumulative = prefix_sum[local[:, None] + offsets[None, :]]
    else:
        starts = np.arange(start, stop)
        relative = np.arange(paa_size + 1) * step
        positions = starts[:, None] + relative[None, :]
        cumulative = _fractional_prefix(prefix_sum, values, positions, origin)
    coefficients = (cumulative[:, 1:] - cumulative[:, :-1]) / step
    normalized = (coefficients - means[:, None]) / safe_stds[:, None]
    normalized[constant] = 0.0
    return normalized


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
    kernel: str | None = None,
) -> np.ndarray:
    """Kernel-dispatched z-normalized PAA rows for starts in ``[start, stop)``.

    Row ``i`` corresponds to the window starting at global index
    ``start + i``; both kernels produce output ``==``-equal to
    :func:`~repro.sax.paa.sliding_paa_rows` (``python`` bitwise so).
    ``stats`` may carry a precomputed :func:`window_stats`
    triple to share across PAA sizes; the ``python`` oracle ignores it and
    re-derives the statistics, exactly as the pre-seam code did.
    """
    kernel = current_kernel() if kernel is None else kernel
    if kernel == "python":
        return sliding_paa_rows(
            prefix_sum, prefix_sq, values, start, stop, window, paa_size,
            znorm_threshold, origin=origin,
        )
    if stats is None:
        stats = window_stats(
            prefix_sum, prefix_sq, start, stop, window, znorm_threshold, origin=origin
        )
    means, safe_stds, constant = stats
    return _fast_paa_rows(
        prefix_sum, values, start, stop, window, paa_size,
        means, safe_stds, constant, origin,
    )


def interval_rows_from(rows: np.ndarray, merged_breakpoints: np.ndarray) -> np.ndarray:
    """Locate each PAA coefficient's merged-table interval.

    ``np.searchsorted(..., side="right")`` under every kernel: a value
    equal to a breakpoint falls in the region above it (the breakpoint-tie
    golden vectors in ``tests/test_sax_properties.py`` pin the convention).
    """
    return np.searchsorted(merged_breakpoints, rows, side="right")
