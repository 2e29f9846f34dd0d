"""Unit tests for repro.core.detector (single-run GI anomaly detection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.anomaly import Anomaly
from repro.core.detector import GrammarAnomalyDetector


@pytest.fixture
def frequency_anomaly_series() -> tuple[np.ndarray, int, int]:
    """40 sine cycles with one frequency-doubled cycle planted mid-series."""
    series = np.sin(np.linspace(0, 80 * np.pi, 4000))
    series[2000:2100] = np.sin(np.linspace(0, 8 * np.pi, 100))
    return series, 2000, 100


class TestConstruction:
    def test_defaults_are_gi_fix_values(self):
        detector = GrammarAnomalyDetector(window=50)
        assert detector.paa_size == 4
        assert detector.alphabet_size == 4

    def test_repr_mentions_parameters(self):
        detector = GrammarAnomalyDetector(window=50, paa_size=6, alphabet_size=3)
        assert "paa_size=6" in repr(detector)

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="at least 2"):
            GrammarAnomalyDetector(window=1)

    def test_paa_size_above_window_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            GrammarAnomalyDetector(window=4, paa_size=5)

    def test_unknown_numerosity_rejected(self):
        with pytest.raises(ValueError, match="unknown numerosity 'bogus'"):
            GrammarAnomalyDetector(window=50, numerosity="bogus")


class TestPipelineStages:
    def test_tokenize_produces_reduced_tokens(self, frequency_anomaly_series):
        series, _, _ = frequency_anomaly_series
        detector = GrammarAnomalyDetector(window=100, paa_size=5, alphabet_size=5)
        tokens = detector.tokenize(series)
        assert 0 < len(tokens) < len(series)
        assert tokens.window == 100

    def test_grammar_compresses_periodic_series(self, frequency_anomaly_series):
        series, _, _ = frequency_anomaly_series
        detector = GrammarAnomalyDetector(window=100, paa_size=5, alphabet_size=5)
        grammar = detector.grammar(series)
        assert grammar.n_rules > 1  # periodic data yields repeating rules

    def test_density_curve_length(self, frequency_anomaly_series):
        series, _, _ = frequency_anomaly_series
        detector = GrammarAnomalyDetector(window=100)
        curve = detector.density_curve(series)
        assert len(curve) == len(series)
        assert np.all(curve >= 0)

    def test_density_low_at_anomaly(self, frequency_anomaly_series):
        series, position, length = frequency_anomaly_series
        detector = GrammarAnomalyDetector(window=100, paa_size=5, alphabet_size=5)
        curve = detector.density_curve(series)
        anomaly_mean = curve[position : position + length].mean()
        assert anomaly_mean < 0.5 * curve.mean()


class TestDetection:
    def test_detects_planted_anomaly(self, frequency_anomaly_series):
        series, position, length = frequency_anomaly_series
        detector = GrammarAnomalyDetector(window=100, paa_size=5, alphabet_size=5)
        anomalies = detector.detect(series, k=3)
        assert any(
            abs(a.position - position) <= length for a in anomalies
        ), [a.position for a in anomalies]

    def test_returns_at_most_k(self, frequency_anomaly_series):
        series, _, _ = frequency_anomaly_series
        detector = GrammarAnomalyDetector(window=100)
        assert len(detector.detect(series, k=2)) <= 2

    def test_results_are_anomaly_records(self, frequency_anomaly_series):
        series, _, _ = frequency_anomaly_series
        detector = GrammarAnomalyDetector(window=100)
        anomalies = detector.detect(series, k=3)
        assert all(isinstance(a, Anomaly) for a in anomalies)
        assert all(a.length == 100 for a in anomalies)

    def test_deterministic(self, frequency_anomaly_series):
        series, _, _ = frequency_anomaly_series
        detector = GrammarAnomalyDetector(window=100, paa_size=6, alphabet_size=4)
        first = detector.detect(series, k=3)
        second = detector.detect(series, k=3)
        assert first == second

    def test_window_larger_than_series_rejected(self):
        detector = GrammarAnomalyDetector(window=100)
        with pytest.raises(ValueError, match="exceeds"):
            detector.detect(np.zeros(50), k=1)

    def test_constant_series_does_not_crash(self):
        detector = GrammarAnomalyDetector(window=10)
        anomalies = detector.detect(np.full(100, 3.0), k=2)
        assert len(anomalies) >= 1  # degenerate but well-defined output

    def test_numerosity_none_mode(self, frequency_anomaly_series):
        series, position, length = frequency_anomaly_series
        detector = GrammarAnomalyDetector(
            window=100, paa_size=5, alphabet_size=5, numerosity="none"
        )
        anomalies = detector.detect(series, k=3)
        assert len(anomalies) >= 1
