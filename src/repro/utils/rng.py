"""Deterministic random-number-generator plumbing.

All stochastic components in the library (ensemble parameter sampling,
dataset generators, corpus planting) accept either a seed or a ready
``numpy.random.Generator`` and normalize it through :func:`ensure_rng`, so a
single integer reproduces an entire experiment.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

RandomState = int | np.random.Generator | None


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    ``None`` yields a freshly seeded generator, an ``int`` a deterministic
    one, and an existing ``Generator`` is passed through unchanged (so
    callers can share a stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RandomState, count: int, *, start: int = 0) -> list[np.random.Generator]:
    """Split one seed into ``count`` independent child generators.

    Uses ``SeedSequence.spawn`` so children are statistically independent and
    stable across NumPy versions for a fixed integer seed. ``start`` skips
    the first children: the result is ``spawn_rngs(seed, start + count)[start:]``,
    built without the skipped ones. A ``Generator`` seed takes no ``start``:
    its children are draws from its stream, and skipping them would mean
    drawing them all.
    """
    if count < 0 or start < 0:
        raise ValueError(f"count and start must be non-negative, got {count} and {start}")
    if isinstance(seed, np.random.Generator):
        if start:
            raise ValueError(f"start={start} needs an int or None seed, not a Generator")
        # Derive children from the generator's own stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    sequence = np.random.SeedSequence(seed)
    # Child i of SeedSequence.spawn is the parent's entropy under spawn key (i,).
    return [
        np.random.default_rng(
            np.random.SeedSequence(
                sequence.entropy,
                spawn_key=(*sequence.spawn_key, start + index),
                pool_size=sequence.pool_size,
            )
        )
        for index in range(count)
    ]


def iter_param_combinations(
    w_range: tuple[int, int],
    a_range: tuple[int, int],
) -> Iterator[tuple[int, int]]:
    """Yield every ``(w, a)`` combination in the inclusive ranges, row-major."""
    for w in range(w_range[0], w_range[1] + 1):
        for a in range(a_range[0], a_range[1] + 1):
            yield w, a
