"""HOTSAX (Keogh, Lin & Fu 2005 [9]) — heuristic discord discovery.

The original discord algorithm the paper cites as the predecessor of the
matrix-profile methods. It searches for the subsequence with the largest
1-NN distance using two SAX-guided heuristics:

- **outer loop order** — subsequences whose SAX word is rare are tried first
  (rare words are likely discords, raising the best-so-far early);
- **inner loop order** — for a candidate, subsequences sharing its SAX word
  are compared first (likely near neighbours, enabling early abandoning).

Worst case O(N^2 m), typically far less. Distances follow the same
z-normalized Euclidean conventions as :mod:`repro.discord.matrix_profile`,
so on any input the top discord matches the brute-force matrix profile's
maximum. Windows are bucketed by their SAX word's native token id
(:meth:`~repro.core.multiresolution.MultiResolutionDiscretizer.token_ids`
without numerosity reduction): equal words, equal ids, no word strings.
"""

from __future__ import annotations

import numpy as np

from repro.core.anomaly import Anomaly
from repro.core.executors import StatelessBatchMixin
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.discord.discords import Discord
from repro.discord.matrix_profile import _is_constant, default_exclusion
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import ensure_time_series, validate_window


def _normalized_subsequences(series: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Z-normalized subsequence matrix and per-subsequence constancy mask.

    Constancy follows the same convention as :mod:`repro.discord.
    matrix_profile`, so HOTSAX and the matrix-profile methods agree exactly.
    """
    n_subs = len(series) - window + 1
    shape = (n_subs, window)
    strides = (series.strides[0], series.strides[0])
    windows = np.lib.stride_tricks.as_strided(series, shape=shape, strides=strides)
    means = windows.mean(axis=1)
    stds = windows.std(axis=1)
    constant = np.array([_is_constant(windows[i]) for i in range(n_subs)])
    safe = np.where(constant, 1.0, stds)
    normalized = (windows - means[:, None]) / safe[:, None]
    normalized[constant] = 0.0
    return normalized, constant


def _find_single_discord(
    normalized: np.ndarray,
    constant: np.ndarray,
    window: int,
    exclusion: int,
    outer_order: list[int],
    buckets: list[list[int]],
    ids: list[int],
    excluded: np.ndarray,
    rng: np.random.Generator,
) -> Discord | None:
    """One pass of the HOTSAX outer/inner loop over non-excluded positions."""
    best_distance = -1.0
    best_position = -1
    best_neighbour = -1
    sqrt_window = float(np.sqrt(window))
    n_subs = len(normalized)
    # One shared shuffled order for the inner "all others" scan; the original
    # reshuffles per candidate, but a fixed random order preserves the early
    # abandoning behaviour at a fraction of the cost.
    rest = rng.permutation(n_subs)
    for i in outer_order:
        if excluded[i]:
            continue
        # Inner loop: same-word positions first, then the rest shuffled.
        same_word = [j for j in buckets[ids[i]] if abs(j - i) > exclusion]
        nearest = np.inf
        i_constant = bool(constant[i])

        def _distance(j: int) -> float:
            j_constant = bool(constant[j])
            if i_constant and j_constant:
                return 0.0
            if i_constant or j_constant:
                return sqrt_window
            diff = normalized[i] - normalized[j]
            return float(np.sqrt(np.dot(diff, diff)))

        abandoned = False
        for j in same_word:
            nearest = min(nearest, _distance(j))
            if nearest < best_distance:
                abandoned = True
                break
        if not abandoned:
            for j in rest:
                j = int(j)
                if abs(j - i) <= exclusion:
                    continue
                nearest = min(nearest, _distance(j))
                if nearest < best_distance:
                    abandoned = True
                    break
        if not abandoned and np.isfinite(nearest) and nearest > best_distance:
            best_distance = nearest
            best_position = i
            # Recover the actual neighbour index for reporting.
            best_neighbour = _nearest_index(normalized, constant, i, exclusion, window)
    if best_position < 0:
        return None
    return Discord(
        position=best_position,
        length=window,
        distance=best_distance,
        neighbour=best_neighbour,
    )


def _nearest_index(
    normalized: np.ndarray, constant: np.ndarray, i: int, exclusion: int, window: int
) -> int:
    distances = np.sqrt(np.sum((normalized - normalized[i]) ** 2, axis=1))
    if constant[i]:
        distances = np.where(constant, 0.0, np.sqrt(window))
    else:
        distances = np.where(constant, np.sqrt(window), distances)
    low = max(0, i - exclusion)
    high = min(len(distances), i + exclusion + 1)
    distances[low:high] = np.inf
    return int(np.argmin(distances))


def _buckets_and_order(
    ids: np.ndarray, rng: np.random.Generator
) -> tuple[list[list[int]], list[int]]:
    """Each word's window positions (ascending, indexed by token id) and the
    outer loop order: rarest words first, random inside each bucket-size
    class (one draw per window, in window order)."""
    counts = np.bincount(ids)
    positions = np.split(np.argsort(ids, kind="stable"), np.cumsum(counts)[:-1])
    order = np.lexsort((rng.random(len(ids)), counts[ids]))
    return [bucket.tolist() for bucket in positions], order.tolist()


def hotsax_discords(
    series: np.ndarray,
    window: int,
    k: int = 1,
    *,
    paa_size: int = 3,
    alphabet_size: int = 3,
    exclusion: int | None = None,
    seed: RandomState = 0,
) -> list[Discord]:
    """Find the top-``k`` non-overlapping discords with HOTSAX.

    Parameters
    ----------
    series, window:
        The series and the discord length.
    k:
        Number of non-overlapping discords (found by re-running the search
        with previous finds masked, as in the original paper).
    paa_size, alphabet_size:
        SAX parameters of the heuristic ordering (defaults follow [9]).
    exclusion:
        Self-match exclusion half-width; defaults to ``ceil(window / 4)``.
    seed:
        Seed for the randomized loop orders (results are deterministic for a
        fixed seed; the *discovered discords* are seed-independent, only the
        search speed varies).
    """
    series = ensure_time_series(series, name="series", min_length=2)
    window = validate_window(window, len(series))
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    exclusion = default_exclusion(window) if exclusion is None else int(exclusion)
    rng = ensure_rng(seed)
    discretizer = MultiResolutionDiscretizer(
        series, window, paa_size, alphabet_size, numerosity="none"
    )
    _, ids = discretizer.token_ids(paa_size, alphabet_size)
    buckets, order = _buckets_and_order(ids, rng)
    normalized, constant = _normalized_subsequences(series, window)
    excluded = np.zeros(len(ids), dtype=bool)
    ids = ids.tolist()
    discords: list[Discord] = []
    for _ in range(k):
        found = _find_single_discord(
            normalized, constant, window, exclusion, order, buckets, ids, excluded, rng
        )
        if found is None:
            break
        discords.append(found)
        low = max(0, found.position - window + 1)
        high = min(len(excluded), found.position + window)
        excluded[low:high] = True
    return discords


class HotSaxDetector(StatelessBatchMixin):
    """HOTSAX as a detector: the paper's historical discord comparator.

    Wraps :func:`hotsax_discords` behind the same ``detect``/``detect_batch``
    interface as every other method, so the evaluation harness (and the
    CLI's ``--method hotsax``) can run it through a shared executor pool.
    ``detect`` is a pure function of the constructor parameters and the
    series — a fresh generator is derived from ``seed`` per call — so batch
    fan-out across any backend reproduces the serial results exactly.

    Parameters
    ----------
    window:
        Discord length.
    paa_size, alphabet_size:
        SAX parameters of the heuristic loop ordering (defaults follow [9]).
    exclusion:
        Self-match exclusion half-width; defaults to ``ceil(window / 4)``.
    seed:
        Seed of the randomized loop orders (search speed only; the
        discovered discords are seed-independent).
    """

    def __init__(
        self,
        window: int,
        *,
        paa_size: int = 3,
        alphabet_size: int = 3,
        exclusion: int | None = None,
        seed: int = 0,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        self.window = int(window)
        self.paa_size = int(paa_size)
        self.alphabet_size = int(alphabet_size)
        self.exclusion = exclusion
        self.seed = int(seed)

    def detect(self, series: np.ndarray, k: int = 3) -> list[Anomaly]:
        """Top-``k`` non-overlapping HOTSAX discords as :class:`Anomaly` records."""
        discords = hotsax_discords(
            series,
            self.window,
            k,
            paa_size=self.paa_size,
            alphabet_size=self.alphabet_size,
            exclusion=self.exclusion,
            seed=self.seed,
        )
        return [
            Anomaly(position=d.position, length=d.length, score=d.distance, rank=rank)
            for rank, d in enumerate(discords, start=1)
        ]
