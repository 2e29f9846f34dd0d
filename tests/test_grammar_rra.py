"""Unit tests for repro.grammar.rra (Rare Rule Anomaly detection)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.sax import numerosity_reduction
from repro.core.anomaly import Anomaly
from repro.grammar.rra import RRADetector, RuleInterval, rule_intervals
from repro.grammar.sequitur import induce_grammar


@pytest.fixture
def anomalous_series() -> tuple[np.ndarray, int, int]:
    series = np.sin(np.linspace(0, 60 * np.pi, 3000))
    series[1500:1570] = np.sin(np.linspace(0, 10 * np.pi, 70))
    return series, 1500, 70


class TestRuleInterval:
    def test_length(self):
        assert RuleInterval(10, 19, 1, 3).length == 10

    def test_overlap(self):
        a = RuleInterval(0, 10, 1, 2)
        b = RuleInterval(10, 20, 2, 2)
        c = RuleInterval(11, 20, 2, 2)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RuleInterval(5, 4, 1, 1)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            RuleInterval(0, 5, 1, -1)


class TestRuleIntervals:
    def _tokens_and_grammar(self, words, window):
        tokens = numerosity_reduction(words, window)
        return induce_grammar(list(tokens.words)), tokens

    def test_occurrence_intervals_enumerated(self):
        words = ["aa", "bb", "cc", "aa", "bb", "cc"]
        grammar, tokens = self._tokens_and_grammar(words, 2)
        intervals = rule_intervals(grammar, tokens, 7)
        rule_spans = [(i.start, i.end) for i in intervals if i.rule_index >= 1]
        assert (0, 3) in rule_spans
        assert (3, 6) in rule_spans

    def test_frequencies_match_occurrence_counts(self):
        words = ["aa", "bb", "cc", "aa", "bb", "cc"]
        grammar, tokens = self._tokens_and_grammar(words, 2)
        intervals = rule_intervals(grammar, tokens, 7)
        for interval in intervals:
            if interval.rule_index >= 1:
                assert interval.frequency == 2

    def test_gap_intervals_have_zero_frequency(self):
        words = (
            ["aa", "bb", "cc", "aa", "bb", "cc"]
            + ["xx", "yy", "zz"]
            + ["aa", "bb", "cc", "aa", "bb", "cc"]
        )
        grammar, tokens = self._tokens_and_grammar(words, 2)
        intervals = rule_intervals(grammar, tokens, 16)
        gaps = [i for i in intervals if i.rule_index == -1]
        assert gaps
        assert all(gap.frequency == 0 for gap in gaps)

    def test_fully_covered_series_has_no_gaps(self):
        words = ["aa", "bb"] * 8
        grammar, tokens = self._tokens_and_grammar(words, 2)
        intervals = rule_intervals(grammar, tokens, 17)
        assert not [i for i in intervals if i.rule_index == -1]


class TestRRADetector:
    def test_detects_planted_anomaly(self, anomalous_series):
        series, position, length = anomalous_series
        detector = RRADetector(window=100, paa_size=5, alphabet_size=5)
        anomalies = detector.detect(series, k=3)
        assert anomalies, "no anomalies reported"
        # The top candidates surround the planted region.
        assert any(
            a.position < position + length + 200 and position - 200 < a.position + a.length
            for a in anomalies
        ), [(a.position, a.length) for a in anomalies]

    def test_variable_length_output(self, anomalous_series):
        """RRA's selling point: candidates are not fixed to the window."""
        series, _, _ = anomalous_series
        detector = RRADetector(window=100, paa_size=5, alphabet_size=5)
        anomalies = detector.detect(series, k=3)
        lengths = {a.length for a in anomalies}
        assert any(length != 100 for length in lengths)

    def test_results_are_anomaly_records_non_overlapping(self, anomalous_series):
        series, _, _ = anomalous_series
        detector = RRADetector(window=100)
        anomalies = detector.detect(series, k=3)
        assert all(isinstance(a, Anomaly) for a in anomalies)
        for i, a in enumerate(anomalies):
            for b in anomalies[i + 1 :]:
                assert not a.overlaps(b)

    def test_rarer_candidates_rank_first(self, anomalous_series):
        series, _, _ = anomalous_series
        detector = RRADetector(window=100, paa_size=5, alphabet_size=5)
        intervals = detector.intervals(series)
        anomalies = detector.detect(series, k=2)
        frequencies = {
            (interval.start, interval.length): interval.frequency
            for interval in intervals
        }
        ranked = [
            frequencies.get((a.position, a.length)) for a in anomalies
        ]
        observed = [f for f in ranked if f is not None]
        assert observed == sorted(observed)

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="window"):
            RRADetector(window=1)
        with pytest.raises(ValueError, match="refine_top"):
            RRADetector(window=10, refine_top=0)

    def test_invalid_k(self, anomalous_series):
        series, _, _ = anomalous_series
        with pytest.raises(ValueError, match="positive"):
            RRADetector(window=100).detect(series, k=0)

    def test_deterministic(self, anomalous_series):
        series, _, _ = anomalous_series
        detector = RRADetector(window=100, paa_size=5, alphabet_size=5)
        assert detector.detect(series, 3) == detector.detect(series, 3)
