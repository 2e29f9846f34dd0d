"""Rule density curve (paper Section 5.2).

The rule density curve is a meta time series: its value at point ``t`` is the
number of grammar-rule occurrences whose mapped time-series interval covers
``t``. Incompressible stretches — candidates for anomalies — have low (often
zero) density.

Construction is O(#occurrences + N) using a difference array: each occurrence
contributes +1 at its interval start and -1 one past its end, and a prefix
sum yields the curve. Two implementations share those semantics:

- :func:`density_curve_from_token_spans` — the production path of
  streaming detection and of :func:`rule_density_curve`. It maps token
  spans to intervals, clips and accumulates them in one native pass
  (``seq_density`` in ``_sequitur.c``, beside the span walk that feeds
  it). A batch member runs the same ``seq_density`` as the last stage of
  its one native call (:func:`repro.grammar._kernel.member_curve`).
- :func:`density_from_intervals` — numpy over explicit interval pairs; RRA,
  the single-grammar detector and the GI baselines use it, and the tests
  use it as the oracle of the native pass.
"""

from __future__ import annotations

import numpy as np

from repro.grammar._kernel import _CURVE_ERRORS, _lib, _raise
from repro.grammar.rules import Grammar
from repro.sax.numerosity import TokenSequence


def density_from_intervals(
    intervals: list[tuple[int, int]] | np.ndarray,
    length: int,
) -> np.ndarray:
    """Build a coverage-count curve from inclusive point intervals.

    Parameters
    ----------
    intervals:
        ``(start, end)`` inclusive index pairs — a list of tuples or an
        equivalent ``(k, 2)`` array; ends are clipped to the curve.
    length:
        Length of the output curve (the time series length ``N``).

    Notes
    -----
    The difference array is two ``np.bincount`` histograms, one per
    endpoint column, rather than a Python loop over occurrences. The counts
    are integers, so the result does not depend on accumulation order.
    Clipping and validation semantics match the scalar reference loop
    exactly (pinned by a ground-truth test).
    """
    if length <= 0:
        raise ValueError(f"curve length must be positive, got {length}")
    raw = np.asarray(intervals)
    if raw.size == 0:
        return np.zeros(length, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError(f"intervals must be (start, end) pairs, got shape {raw.shape}")
    if np.issubdtype(raw.dtype, np.inexact) and not np.all(np.isfinite(raw)):
        raise ValueError("interval endpoints must be finite")
    # Emptiness is judged on the values as given (before any integer
    # truncation), exactly like the scalar loop's `end < start` check.
    empty = raw[:, 1] < raw[:, 0]
    if np.any(empty):
        first = int(np.argmax(empty))
        raise ValueError(f"interval ({raw[first, 0]}, {raw[first, 1]}) is empty")
    # Bound the values before the int64 cast so huge endpoints cannot
    # overflow; [-1, length] preserves every downstream comparison (only
    # "< 0", "< length", ">= length" are ever asked of them).
    pairs = np.clip(raw, -1, length).astype(np.int64)
    starts = pairs[:, 0]
    ends = pairs[:, 1]
    clipped_starts = np.maximum(starts, 0)
    clipped_ends = np.minimum(ends, length - 1)
    in_range = (clipped_starts < length) & (clipped_ends >= 0)
    opens = np.bincount(clipped_starts[in_range], minlength=length + 1)
    closes = np.bincount(clipped_ends[in_range] + 1, minlength=length + 1)
    return np.cumsum((opens - closes)[:-1]).astype(np.float64)


def density_curve_from_token_spans(
    offsets: np.ndarray,
    window: int,
    firsts: np.ndarray,
    lasts: np.ndarray,
    series_length: int,
    *,
    horizon_start: int = 0,
) -> np.ndarray:
    """Density curve from occurrence token spans, in one native pass.

    The fused path shared by batch and streaming detection: token spans
    (from :meth:`Grammar.occurrence_spans` or a kernel builder's
    ``occurrence_spans``) map to the time-series intervals
    ``[offsets[first], offsets[last] + window - 1]`` (the
    :meth:`TokenSequence.token_span` convention), shifted left by
    ``horizon_start``. ``seq_density`` clips and accumulates them exactly
    as :func:`density_from_intervals` does on those intervals, so the
    curves are bitwise equal.

    Raises
    ------
    IndexError
        If a span index lies outside ``offsets``. Negative indices are out
        of range too: unlike numpy indexing, they do not wrap around.
    ValueError
        If a span maps to an empty interval, or ``series_length <= 0``.
    """
    if series_length <= 0:
        raise ValueError(f"curve length must be positive, got {series_length}")
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    firsts = np.ascontiguousarray(firsts, dtype=np.int64)
    lasts = np.ascontiguousarray(lasts, dtype=np.int64)
    if firsts.ndim != 1 or firsts.shape != lasts.shape:
        raise ValueError(
            f"firsts and lasts must be 1-D and of one length, got shapes "
            f"{firsts.shape} and {lasts.shape}"
        )
    curve = np.empty(series_length, dtype=np.float64)
    status = _lib.seq_density(
        offsets.ctypes.data,
        offsets.size,
        window,
        firsts.ctypes.data,
        lasts.ctypes.data,
        firsts.size,
        horizon_start,
        series_length,
        curve.ctypes.data,
    )
    if status:
        _raise(status, _CURVE_ERRORS)
    return curve


def rule_density_curve(
    grammar: Grammar,
    tokens: TokenSequence,
    series_length: int,
    *,
    horizon_start: int = 0,
) -> np.ndarray:
    """Rule density curve of a series from its grammar and token sequence.

    Every occurrence of every rule except R0 (R0 spans the whole sequence
    and carries no locality information) is mapped back to the time-series
    interval recorded at numerosity reduction:
    ``[offsets[first_token], offsets[last_token] + window - 1]``.

    Parameters
    ----------
    grammar:
        Result of :func:`repro.grammar.induce_grammar` over ``tokens.words``.
    tokens:
        The numerosity-reduced token sequence, carrying window offsets.
    series_length:
        Length ``N`` of the output curve. With ``horizon_start=0`` this is
        the original series length.
    horizon_start:
        Origin of the curve in stream coordinates. The streaming eviction
        layer renormalizes density over the live horizon only: curve index
        ``i`` covers stream point ``horizon_start + i``, and token spans are
        shifted (and clipped) accordingly. The default 0 is the batch
        behaviour.

    Returns
    -------
    numpy.ndarray
        Float array of length ``series_length``; higher = more rule coverage.
    """
    expected = grammar.expanded_lengths()[0]
    if expected != len(tokens):
        raise ValueError(
            f"grammar expands to {expected} tokens but the token sequence "
            f"has {len(tokens)}; they must come from the same discretization"
        )
    firsts, lasts = grammar.occurrence_spans()
    return density_curve_from_token_spans(
        np.asarray(tokens.offsets, dtype=np.int64),
        tokens.window,
        firsts,
        lasts,
        series_length,
        horizon_start=int(horizon_start),
    )
