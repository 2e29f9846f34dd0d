"""Point-wise combination of normalized rule density curves (Section 6.1.3).

The paper combines the surviving ensemble members with the point-wise
*median*, which is robust to a minority of misleading members. ``mean`` and
``min``/``max`` are provided for the ablation benches.

The median is native (``seq_median`` in ``repro/grammar/_sequitur.c``): it
reads the member rows in place and equals ``np.median(..., axis=0)`` value
for value, NaN columns included. The other combiners are numpy.

:func:`combine_members` is steps 2-3 of Algorithm 1 (select by std,
normalize, combine), the one combine of the batch ensemble, its sweep
helper :func:`repro.core.ensemble.combine_and_detect` and the streaming
poll. With the median it normalizes inside the median's pass: each kept
row is divided by its peak as ``seq_median`` reads it, which is the
division :func:`~repro.core.selection.normalize_curve` makes, so no
normalized copy of a member is built. A batch detect hands it the stds
and peaks its member threads measured next to each curve
(:func:`repro.core.engine.compute_member_curves`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.selection import normalize_curve, select_by_std
from repro.grammar._kernel import _CURVE_ERRORS, _lib, _raise

#: Combination strategies accepted by :func:`combine_curves`.
COMBINERS = ("median", "mean", "min", "max")


def combine_curves(curves: np.ndarray | list[np.ndarray], method: str = "median") -> np.ndarray:
    """Combine a stack of equal-length curves into one.

    Parameters
    ----------
    curves:
        2-D array (or list of 1-D arrays) of shape ``(n_members, N)``.
    method:
        One of :data:`COMBINERS`; the paper uses ``"median"``.

    Returns
    -------
    numpy.ndarray
        The combined length-``N`` curve.
    """
    if method not in COMBINERS:
        raise ValueError(f"unknown combiner {method!r}; expected one of {COMBINERS}")
    if isinstance(curves, np.ndarray):
        stack = np.atleast_2d(np.asarray(curves, dtype=np.float64))
        if stack.ndim != 2:
            raise ValueError(f"curves must stack into 2-D, got shape {stack.shape}")
        members = list(stack)
    else:
        members = [np.asarray(curve, dtype=np.float64) for curve in curves]
        expected = members[0].shape if members else None
        for index, member in enumerate(members):
            if member.ndim != 1:
                raise ValueError(
                    f"member curve {index} must be 1-D, got shape {member.shape}"
                )
            if member.shape != expected:
                raise ValueError(
                    f"member curve {index} has length {member.shape[0]} but "
                    f"member 0 has length {expected[0]}; all member curves "
                    "must cover the same series"
                )
        stack = None
    if not members or members[0].shape[0] == 0:
        raise ValueError("cannot combine an empty set of curves")
    if method == "median":
        return _median(members)
    if stack is None:
        stack = np.stack(members)
    if method == "mean":
        return stack.mean(axis=0)
    if method == "min":
        return stack.min(axis=0)
    if method == "max":
        return stack.max(axis=0)
    # Unreachable while the dispatch covers COMBINERS; backstop so a new
    # entry in COMBINERS without a branch fails loudly instead of silently
    # computing the wrong combination.
    raise ValueError(f"unknown combiner {method!r}; expected one of {COMBINERS}")


def _median(members: list[np.ndarray], divisors: np.ndarray | None = None) -> np.ndarray:
    """Point-wise median of equal-length float64 rows by ``seq_median``,
    row ``i`` divided by ``divisors[i]`` when given (negative values then
    raise :class:`ValueError`)."""
    rows = [np.ascontiguousarray(member) for member in members]
    pointers = np.array([row.ctypes.data for row in rows], dtype=np.uintp)
    out = np.empty(rows[0].shape[0], dtype=np.float64)
    status = _lib.seq_median(
        pointers.ctypes.data, None if divisors is None else divisors.ctypes.data,
        len(rows), out.size, out.ctypes.data,
    )
    if status:
        _raise(status, _CURVE_ERRORS)
    return out


def combine_members(
    curves: Sequence[np.ndarray],
    *,
    selectivity: float,
    combiner: str = "median",
    select_members: bool = True,
    normalize_members: bool = True,
    stds: Sequence[float] | None = None,
    peaks: Sequence[float] | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Steps 2-3 of Algorithm 1 on raw member curves: ``(curve, kept)``.

    Keeps the top ``selectivity`` fraction by std (every member without
    ``select_members``), scales each kept curve by its peak
    (:func:`~repro.core.selection.normalize_curve`'s rules, when
    ``normalize_members``) and combines them point-wise. ``stds`` and
    ``peaks`` (``curve.max()``) are per member, when the caller measured
    them already; computed here otherwise. The result is bitwise what
    ``combine_curves([normalize_curve(curves[i]) for i in kept], combiner)``
    returns, errors included: the median divides inside its native pass
    instead, and a negative value still raises :class:`ValueError`.
    """
    kept = (
        select_by_std(curves, selectivity, stds=stds)
        if select_members
        else list(range(len(curves)))
    )
    survivors = [curves[i] for i in kept]
    if not normalize_members:
        return combine_curves(survivors, combiner), kept
    if combiner != "median":
        return combine_curves([normalize_curve(curve) for curve in survivors], combiner), kept
    rows, divisors = [], np.empty(len(kept), dtype=np.float64)
    for position, (index, curve) in enumerate(zip(kept, survivors)):
        row = np.asarray(curve, dtype=np.float64)
        if row.ndim != 1 or row.size == 0 or (rows and row.shape != rows[0].shape):
            # Off the fast path: the reference raises the right error.
            survivors = [normalize_curve(curve) for curve in survivors]
            return combine_curves(survivors, combiner), kept
        peak = row.max() if peaks is None else peaks[index]
        if peak <= 0.0:
            # normalize_curve's zero-peak rule, after its negativity check.
            row, peak = normalize_curve(row), 1.0
        rows.append(row)
        divisors[position] = peak
    return _median(rows, divisors), kept
