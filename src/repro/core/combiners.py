"""Point-wise combination of normalized rule density curves (Section 6.1.3).

The paper combines the surviving ensemble members with the point-wise
*median*, which is robust to a minority of misleading members. ``mean`` and
``min``/``max`` are provided for the ablation benches.

The median is native (``seq_median`` in ``repro/grammar/_sequitur.c``): it
reads the member rows in place and equals ``np.median(..., axis=0)`` value
for value, NaN columns included. The other combiners are numpy.
"""

from __future__ import annotations

import numpy as np

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


def _median(members: list[np.ndarray]) -> np.ndarray:
    """Point-wise median of equal-length float64 rows by ``seq_median``."""
    rows = [np.ascontiguousarray(member) for member in members]
    pointers = np.array([row.ctypes.data for row in rows], dtype=np.uintp)
    out = np.empty(rows[0].shape[0], dtype=np.float64)
    status = _lib.seq_median(pointers.ctypes.data, len(rows), out.size, out.ctypes.data)
    if status:
        _raise(status, _CURVE_ERRORS)
    return out
