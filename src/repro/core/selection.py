"""Ensemble member quality filtering and normalization (Sections 6.1.1–6.1.2).

- :func:`select_by_std` ranks rule density curves by standard deviation
  (descending) and keeps the top ``tau`` fraction: a curve with near-uniform
  rule coverage says nothing about where anomalies are, while high variance
  means the grammar separated dense structure from sparse candidates
  (Figure 5 of the paper).
- :func:`normalize_curve` rescales a curve into [0, 1] by dividing by its
  maximum. The paper deliberately avoids min–max normalization so that
  zero density — the strongest anomaly signal — stays exactly zero.

The detectors call these through :func:`repro.core.combiners.combine_members`:
a batch detect takes every member's std (and peak) on the thread that ran
the member, and the median divides by the peaks in its own native pass, so
:func:`normalize_curve` is the reference those paths equal bit for bit
(and the path of the non-median combiners).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def curve_std(curve: np.ndarray) -> float:
    """Standard deviation of a curve (the member quality statistic)."""
    return float(np.asarray(curve, dtype=np.float64).std())


def select_by_std(
    curves: list[np.ndarray],
    selectivity: float,
    *,
    stds: Sequence[float] | None = None,
) -> list[int]:
    """Indices of the top ``selectivity`` fraction of curves by std, descending.

    Parameters
    ----------
    curves:
        Candidate rule density curves.
    selectivity:
        The paper's ``tau`` in (0, 1]; at least one curve is always kept.
    stds:
        ``curve_std`` of each curve, when the caller has them already (the
        ensemble report keeps them); computed here otherwise.

    Returns
    -------
    list[int]
        Indices into ``curves`` of the kept members, best (highest std)
        first. Ties are broken by original index for determinism.
    """
    if not curves:
        raise ValueError("no curves to select from")
    if not 0.0 < selectivity <= 1.0:
        raise ValueError(f"selectivity must be in (0, 1], got {selectivity}")
    # "Top tau fraction" means every member inside the fraction is kept, so
    # the count is the *ceiling* of tau * N — and, unlike banker's rounding,
    # ceil keeps the count monotonic in tau. The decimal pre-round absorbs
    # binary representation noise (0.4 * 50 is 20.000000000000004 in
    # floats, which must stay 20 kept members, not jump to 21).
    keep = min(len(curves), max(1, math.ceil(round(selectivity * len(curves), 9))))
    if stds is None:
        stds = [curve_std(curve) for curve in curves]
    elif len(stds) != len(curves):
        raise ValueError(f"got {len(stds)} stds for {len(curves)} curves")
    stds = np.asarray(stds, dtype=np.float64)
    # argsort on (-std, index): descending std, stable on ties.
    order = np.lexsort((np.arange(len(curves)), -stds))
    return [int(i) for i in order[:keep]]


def normalize_curve(curve: np.ndarray) -> np.ndarray:
    """Scale a non-negative curve to [0, 1] by its maximum.

    A zero (or all-zero) curve is returned as zeros rather than dividing by
    zero; zero values stay exactly zero by construction, preserving "the
    significance of the locations where the rule density is zero".
    """
    array = np.asarray(curve, dtype=np.float64)
    if array.size == 0:
        raise ValueError("cannot normalize an empty curve")
    if np.any(array < 0):
        raise ValueError("rule density curves are non-negative by construction")
    peak = array.max()
    if peak <= 0.0:
        return np.zeros_like(array)
    return array / peak
