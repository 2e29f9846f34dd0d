"""The paper's four baselines (Section 7.1.3).

- **GI-Random** — grammar induction with one ``(w, a)`` drawn uniformly from
  the same ranges the ensemble samples from.
- **GI-Fix** — grammar induction with the fixed generic values ``w=4, a=4``
  reported as broadly usable in GrammarViz [20].
- **GI-Select** — grammar induction with ``(w, a)`` chosen by an
  unsupervised optimization on the first 10% of the (normal) series,
  following the GrammarViz 3.0 procedure [19]: prefer the discretization
  whose grammar *covers* the normal sample best, breaking ties by grammar
  description length (see :func:`select_parameters`).
- **Discord** — the STOMP matrix-profile discord detector
  (:class:`repro.discord.discords.DiscordDetector`).

All baselines implement the common ``detect(series, k)`` protocol, so the
harness treats them interchangeably with the ensemble.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.anomaly import Anomaly
from repro.core.detector import GrammarAnomalyDetector
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.discord.discords import DiscordDetector
from repro.grammar._kernel import member_curve
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import (
    ensure_time_series,
    validate_alphabet_size,
    validate_paa_size,
    validate_window,
)


def _grid_bounds(window: int, max_paa_size: int, max_alphabet_size: int) -> tuple[int, int]:
    """``(wmax, amax)`` of the ``[2, wmax] x [2, amax]`` grid, ``wmax`` capped
    by ``window``; an empty range raises as :class:`EnsembleGrammarDetector`'s
    constructor does."""
    max_paa_size = validate_paa_size(min(int(max_paa_size), window), window)
    if max_paa_size < 2:
        raise ValueError("max_paa_size must be at least 2 to sample from [2, wmax]")
    return max_paa_size, validate_alphabet_size(max_alphabet_size)


def gi_fix_detector(window: int) -> GrammarAnomalyDetector:
    """GI-Fix: the fixed generic parameter values ``w = 4, a = 4``."""
    return GrammarAnomalyDetector(window, paa_size=4, alphabet_size=4)


class GIRandomDetector:
    """GI-Random: one uniformly drawn ``(w, a)`` per detection call.

    Parameters
    ----------
    window:
        Sliding-window length.
    max_paa_size, max_alphabet_size:
        Sampling ranges, identical to the ensemble's (paper requirement).
    seed:
        Seed or generator; consecutive calls draw fresh parameters from the
        same stream, so a full corpus run is reproducible.
    """

    def __init__(
        self,
        window: int,
        *,
        max_paa_size: int = 10,
        max_alphabet_size: int = 10,
        seed: RandomState = None,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        self.window = int(window)
        _grid_bounds(self.window, max_paa_size, max_alphabet_size)
        self.max_paa_size = int(max_paa_size)
        self.max_alphabet_size = int(max_alphabet_size)
        self._rng = ensure_rng(seed)
        self.last_parameters: tuple[int, int] | None = None

    def detect(self, series: np.ndarray, k: int = 3) -> list[Anomaly]:
        paa_size = int(self._rng.integers(2, min(self.max_paa_size, self.window) + 1))
        alphabet_size = int(self._rng.integers(2, self.max_alphabet_size + 1))
        self.last_parameters = (paa_size, alphabet_size)
        detector = GrammarAnomalyDetector(self.window, paa_size, alphabet_size)
        return detector.detect(series, k)


def select_parameters(
    sample: np.ndarray,
    window: int,
    *,
    max_paa_size: int = 10,
    max_alphabet_size: int = 10,
) -> tuple[int, int]:
    """Unsupervised ``(w, a)`` selection on a normal sample (GI-Select).

    Grid search over ``[2, wmax] x [2, amax]`` (``wmax`` capped by the
    window; an empty range raises :class:`ValueError`) minimizing,
    lexicographically:

    1. the fraction of sample points *not covered* by any grammar rule — on
       purely normal data everything should compress, so uncovered points
       signal a discretization that fails to expose the data's regularity;
    2. the grammar description length (total RHS symbols + rule count)
       relative to the token count, preferring the more compact grammar
       among equally covering ones.

    Each cell is one :func:`~repro.grammar._kernel.member_curve` call over
    one shared discretization of the sample; the first cell wins a tie.

    This reproduces the intent of the GrammarViz 3.0 sampling-based
    parameter optimization [19] (see DESIGN.md, Substitutions).
    """
    sample = ensure_time_series(sample, name="sample", min_length=4)
    window = validate_window(window, len(sample))
    max_paa_size, max_alphabet_size = _grid_bounds(window, max_paa_size, max_alphabet_size)
    discretizer = MultiResolutionDiscretizer(sample, window, max_paa_size, max_alphabet_size)
    best: tuple[tuple[float, float], tuple[int, int]] | None = None
    for paa_size in range(2, max_paa_size + 1):
        intervals = discretizer.interval_matrix(paa_size)
        for alphabet_size in range(2, max_alphabet_size + 1):
            column = discretizer.alphabet_table.symbol_column(alphabet_size)
            curve, _, (kept, size) = member_curve(intervals, column, window, len(sample))
            cost = (float(np.mean(curve == 0.0)), size / max(kept, 1))
            if best is None or cost < best[0]:
                best = (cost, (paa_size, alphabet_size))
    return best[1]


class GISelectDetector:
    """GI-Select: parameters tuned on the first ``sample_fraction`` of the series.

    The paper plants anomalies between 40% and 80% of each test series, so
    the leading 10% is normal data — the "10% of the normal time series"
    the optimization procedure of [19] uses.
    """

    def __init__(
        self,
        window: int,
        *,
        max_paa_size: int = 10,
        max_alphabet_size: int = 10,
        sample_fraction: float = 0.1,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
        self.window = int(window)
        _grid_bounds(self.window, max_paa_size, max_alphabet_size)
        self.max_paa_size = int(max_paa_size)
        self.max_alphabet_size = int(max_alphabet_size)
        self.sample_fraction = float(sample_fraction)
        self.last_parameters: tuple[int, int] | None = None

    def detect(self, series: np.ndarray, k: int = 3) -> list[Anomaly]:
        series = ensure_time_series(series, name="series", min_length=2)
        sample_length = max(int(self.sample_fraction * len(series)), 2 * self.window)
        sample_length = min(sample_length, len(series))
        paa_size, alphabet_size = select_parameters(
            series[:sample_length],
            self.window,
            max_paa_size=self.max_paa_size,
            max_alphabet_size=self.max_alphabet_size,
        )
        self.last_parameters = (paa_size, alphabet_size)
        detector = GrammarAnomalyDetector(self.window, paa_size, alphabet_size)
        return detector.detect(series, k)


def make_baseline_factories(
    *,
    max_paa_size: int = 10,
    max_alphabet_size: int = 10,
    ensemble_size: int = 50,
    selectivity: float = 0.4,
    seed: RandomState = 0,
) -> dict[str, Callable[[int], object]]:
    """Factories for the paper's five compared methods, keyed by table name.

    Each factory maps a window length to a ready detector. The proposed
    ensemble and GI-Random consume independent child seeds derived from
    ``seed`` so corpus runs are reproducible end to end.
    """
    base = ensure_rng(seed)
    ensemble_seed = int(base.integers(0, 2**63 - 1))
    random_seed = int(base.integers(0, 2**63 - 1))
    return {
        "Proposed": lambda window: EnsembleGrammarDetector(
            window,
            max_paa_size=max_paa_size,
            max_alphabet_size=max_alphabet_size,
            ensemble_size=ensemble_size,
            selectivity=selectivity,
            seed=ensemble_seed,
        ),
        "GI-Random": lambda window: GIRandomDetector(
            window,
            max_paa_size=max_paa_size,
            max_alphabet_size=max_alphabet_size,
            seed=random_seed,
        ),
        "GI-Fix": lambda window: gi_fix_detector(window),
        "GI-Select": lambda window: GISelectDetector(
            window,
            max_paa_size=max_paa_size,
            max_alphabet_size=max_alphabet_size,
        ),
        "Discord": lambda window: DiscordDetector(window),
    }
