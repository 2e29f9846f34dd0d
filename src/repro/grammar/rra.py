"""RRA — Rare Rule Anomaly detection (Senin et al. [18, 19]).

The paper's rule-density method is a streamlined variant of GrammarViz's
RRA algorithm, which this module implements as an additional baseline and
as the library's *variable-length* anomaly detector:

1. every grammar-rule occurrence maps to a time interval, annotated with
   the rule's occurrence count (its "frequency");
2. maximal stretches covered by **no** rule are added as frequency-0
   intervals — the strongest candidates (incompressible regions);
3. candidate intervals are examined in ascending frequency order and
   re-ranked by the z-normalized Euclidean distance to their nearest
   non-overlapping neighbour interval of similar length (a discord-style
   refinement with early abandoning);
4. the top-k non-overlapping intervals are reported — each with its own
   length, unlike fixed-window methods.

The grammar comes from the single-run detector's native token ids
(:class:`repro.core.detector.GrammarAnomalyDetector`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.anomaly import Anomaly
from repro.core.executors import StatelessBatchMixin
from repro.grammar.density import density_from_intervals
from repro.grammar.rules import Grammar
from repro.sax.numerosity import TokenSequence
from repro.sax.znorm import znorm
from repro.utils.validation import ensure_time_series, validate_window


@dataclass(frozen=True)
class RuleInterval:
    """A candidate interval: a rule occurrence (or uncovered gap)."""

    start: int
    end: int  # inclusive
    rule_index: int  # -1 for zero-coverage gaps
    frequency: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"empty interval [{self.start}, {self.end}]")
        if self.frequency < 0:
            raise ValueError("frequency must be non-negative")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, other: "RuleInterval") -> bool:
        return self.start <= other.end and other.start <= self.end


def rule_intervals(
    grammar: Grammar,
    tokens: TokenSequence,
    series_length: int,
) -> list[RuleInterval]:
    """All rule-occurrence intervals plus frequency-0 gap intervals."""
    occurrences = grammar.rule_occurrences()
    counts: dict[int, int] = {}
    for occurrence in occurrences:
        counts[occurrence.rule_index] = counts.get(occurrence.rule_index, 0) + 1
    intervals = []
    spans = []
    for occurrence in occurrences:
        start, end = tokens.token_span(occurrence.first_token, occurrence.last_token)
        end = min(end, series_length - 1)
        intervals.append(
            RuleInterval(start, end, occurrence.rule_index, counts[occurrence.rule_index])
        )
        spans.append((start, end))
    # Zero-coverage gaps: maximal runs where the density curve is zero,
    # ignoring trivially short ones (shorter than one window).
    uncovered = density_from_intervals(spans, series_length) == 0
    edges = np.flatnonzero(np.diff(uncovered, prepend=False, append=False))
    for gap_start, gap_stop in edges.reshape(-1, 2).tolist():
        if gap_stop - gap_start >= tokens.window:
            intervals.append(RuleInterval(gap_start, gap_stop - 1, -1, 0))
    return intervals


def _nearest_match_distance(series: np.ndarray, candidate: RuleInterval) -> float:
    """Length-normalized 1-NN distance of an interval vs the whole series.

    The discord-style refinement of RRA: slide a same-length window over the
    entire series (excluding positions overlapping the candidate), track the
    nearest z-normalized Euclidean match, and normalize by sqrt(length) so
    candidates of different lengths are comparable. A stride of length/8
    keeps the scan near-linear; early abandoning skips hopeless offsets.
    """
    length = candidate.length
    if length > len(series) // 2:
        return float("inf")
    query = znorm(series[candidate.start : candidate.end + 1])
    stride = max(1, length // 8)
    best = np.inf
    for offset in range(0, len(series) - length + 1, stride):
        if offset <= candidate.end and candidate.start <= offset + length - 1:
            continue  # self-overlap
        other = znorm(series[offset : offset + length])
        distance = float(np.linalg.norm(query - other))
        if distance < best:
            best = distance
    return best / np.sqrt(length)


class RRADetector(StatelessBatchMixin):
    """Rare Rule Anomaly detection — variable-length grammar anomalies.

    Parameters
    ----------
    window:
        SAX sliding-window length (sets discretization granularity; found
        anomalies may be longer or shorter).
    paa_size, alphabet_size:
        Discretization parameters of the single grammar run.
    refine_top:
        How many lowest-frequency candidates get the distance refinement.

    Example
    -------
    >>> import numpy as np
    >>> series = np.sin(np.linspace(0, 60 * np.pi, 3000))
    >>> series[1500:1570] = np.sin(np.linspace(0, 10 * np.pi, 70))
    >>> detector = RRADetector(window=100, paa_size=5, alphabet_size=5)
    >>> top = detector.detect(series, k=1)[0]
    >>> abs(top.position - 1450) < 200
    True
    """

    def __init__(
        self,
        window: int,
        paa_size: int = 4,
        alphabet_size: int = 4,
        *,
        refine_top: int = 12,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        if refine_top < 1:
            raise ValueError(f"refine_top must be positive, got {refine_top}")
        self.window = int(window)
        self.paa_size = int(paa_size)
        self.alphabet_size = int(alphabet_size)
        self.refine_top = int(refine_top)

    def intervals(self, series: np.ndarray) -> list[RuleInterval]:
        """The full candidate interval set for ``series``."""
        from repro.core.detector import GrammarAnomalyDetector  # repro.core imports us

        series = ensure_time_series(series, name="series", min_length=2)
        validate_window(self.window, len(series))
        detector = GrammarAnomalyDetector(self.window, self.paa_size, self.alphabet_size)
        grammar, tokens = detector._induce(series)
        return rule_intervals(grammar, tokens, len(series))

    def detect(self, series: np.ndarray, k: int = 3) -> list[Anomaly]:
        """Top-``k`` non-overlapping variable-length anomalies.

        Candidates are screened by *rule coverage* — the mean rule density
        over the interval, the paper's own rarity criterion — and the least-
        covered ``refine_top`` candidates are re-ranked by their discord-
        style 1-NN distance against the whole series. This mirrors RRA's
        two-phase design: grammar rarity proposes, distance disposes.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        series = ensure_time_series(series, name="series", min_length=2)
        candidates = self.intervals(series)
        if not candidates:
            return []
        density = density_from_intervals(
            [(c.start, c.end) for c in candidates if c.rule_index >= 0], len(series)
        )
        prefix = np.concatenate(([0.0], np.cumsum(density)))

        def coverage(interval: RuleInterval) -> float:
            return float(
                (prefix[interval.end + 1] - prefix[interval.start]) / interval.length
            )

        # Screening: least-covered intervals first; prefer longer intervals
        # within (approximately) equal coverage, then earlier positions.
        candidates.sort(key=lambda c: (round(coverage(c), 6), -c.length, c.start))
        pool_size = max(self.refine_top, k)
        pool: list[RuleInterval] = []
        for candidate in candidates:
            if any(candidate.overlaps(chosen) for chosen in pool):
                continue
            pool.append(candidate)
            if len(pool) >= pool_size:
                break
        # Refinement: discord distance against the whole series.
        scored = [
            (_nearest_match_distance(series, candidate), candidate)
            for candidate in pool
        ]
        scored.sort(
            key=lambda item: -(item[0] if np.isfinite(item[0]) else float(self.window))
        )
        results: list[Anomaly] = []
        for nearest, candidate in scored[:k]:
            score = nearest if np.isfinite(nearest) else float(self.window)
            results.append(
                Anomaly(
                    position=candidate.start,
                    length=candidate.length,
                    score=score,
                    rank=len(results) + 1,
                )
            )
        return results
