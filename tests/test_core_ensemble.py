"""Unit tests for repro.core.ensemble (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import EnsembleGrammarDetector


@pytest.fixture
def planted_series() -> tuple[np.ndarray, int, int]:
    series = np.sin(np.linspace(0, 80 * np.pi, 4000))
    series[2000:2100] = np.sin(np.linspace(0, 8 * np.pi, 100))
    return series, 2000, 100


class TestParameterSampling:
    def test_samples_unique_combinations(self):
        detector = EnsembleGrammarDetector(
            window=100, max_paa_size=5, max_alphabet_size=5, ensemble_size=16, seed=0
        )
        parameters = detector.sample_parameters()
        assert len(parameters) == 16
        assert len(set(parameters)) == 16  # "any combination used only once"

    def test_sample_ranges(self):
        detector = EnsembleGrammarDetector(
            window=100, max_paa_size=6, max_alphabet_size=8, ensemble_size=50, seed=1
        )
        for w, a in detector.sample_parameters():
            assert 2 <= w <= 6
            assert 2 <= a <= 8

    def test_ensemble_capped_at_pool_size(self):
        detector = EnsembleGrammarDetector(
            window=100, max_paa_size=3, max_alphabet_size=3, ensemble_size=50, seed=0
        )
        parameters = detector.sample_parameters()
        assert len(parameters) == 4  # 2x2 pool

    def test_seeded_sampling_reproducible(self):
        a = EnsembleGrammarDetector(window=100, ensemble_size=20, seed=7).sample_parameters()
        b = EnsembleGrammarDetector(window=100, ensemble_size=20, seed=7).sample_parameters()
        assert a == b


class TestEnsembleReport:
    def test_report_structure(self, planted_series):
        series, _, _ = planted_series
        detector = EnsembleGrammarDetector(window=100, ensemble_size=12, seed=0)
        report = detector.ensemble_report(series)
        assert len(report.curve) == len(series)
        assert report.ensemble_size == 12
        assert len(report.stds) == 12
        assert len(report.kept) == max(1, round(0.4 * 12))

    def test_kept_members_have_top_stds(self, planted_series):
        series, _, _ = planted_series
        detector = EnsembleGrammarDetector(window=100, ensemble_size=10, seed=0)
        report = detector.ensemble_report(series)
        kept_stds = [report.stds[i] for i in report.kept]
        dropped = [s for i, s in enumerate(report.stds) if i not in report.kept]
        if dropped:
            assert min(kept_stds) >= max(dropped) - 1e-12

    def test_member_curves_retained_on_request(self, planted_series):
        series, _, _ = planted_series
        detector = EnsembleGrammarDetector(window=100, ensemble_size=6, seed=0)
        report = detector.ensemble_report(series, keep_member_curves=True)
        assert len(report.member_curves) == 6
        assert all(len(c) == len(series) for c in report.member_curves)

    def test_curve_in_unit_range(self, planted_series):
        """Normalized members combined by median stay within [0, 1]."""
        series, _, _ = planted_series
        detector = EnsembleGrammarDetector(window=100, ensemble_size=10, seed=0)
        report = detector.ensemble_report(series)
        assert report.curve.min() >= 0.0
        assert report.curve.max() <= 1.0 + 1e-12


class TestDetection:
    def test_finds_planted_anomaly(self, planted_series):
        series, position, length = planted_series
        detector = EnsembleGrammarDetector(window=100, ensemble_size=20, seed=3)
        anomalies = detector.detect(series, k=3)
        assert any(abs(a.position - position) <= length for a in anomalies)

    def test_reproducible_with_seed(self, planted_series):
        series, _, _ = planted_series
        a = EnsembleGrammarDetector(window=100, ensemble_size=10, seed=5).detect(series)
        b = EnsembleGrammarDetector(window=100, ensemble_size=10, seed=5).detect(series)
        assert a == b

    def test_non_overlapping_candidates(self, planted_series):
        series, _, _ = planted_series
        detector = EnsembleGrammarDetector(window=100, ensemble_size=10, seed=0)
        anomalies = detector.detect(series, k=3)
        for i, a in enumerate(anomalies):
            for b in anomalies[i + 1 :]:
                assert not a.overlaps(b)


class TestAblationSwitches:
    def test_selection_disabled_keeps_all(self, planted_series):
        series, _, _ = planted_series
        detector = EnsembleGrammarDetector(
            window=100, ensemble_size=8, seed=0, select_members=False
        )
        report = detector.ensemble_report(series)
        assert len(report.kept) == 8

    def test_normalization_disabled_allows_values_above_one(self, planted_series):
        series, _, _ = planted_series
        detector = EnsembleGrammarDetector(
            window=100, ensemble_size=8, seed=0, normalize_members=False
        )
        report = detector.ensemble_report(series)
        assert report.curve.max() > 1.0  # raw rule counts

    def test_combiner_mean(self, planted_series):
        series, position, length = planted_series
        detector = EnsembleGrammarDetector(
            window=100, ensemble_size=10, seed=0, combiner="mean"
        )
        anomalies = detector.detect(series, k=3)
        assert len(anomalies) >= 1


class TestValidation:
    def test_invalid_selectivity(self):
        with pytest.raises(ValueError, match="selectivity"):
            EnsembleGrammarDetector(window=100, selectivity=0.0)

    def test_invalid_combiner(self):
        with pytest.raises(ValueError, match="combiner"):
            EnsembleGrammarDetector(window=100, combiner="vote")

    def test_invalid_numerosity(self):
        with pytest.raises(ValueError, match="unknown numerosity 'bogus'"):
            EnsembleGrammarDetector(window=100, numerosity="bogus")

    def test_invalid_ensemble_size(self):
        with pytest.raises(ValueError, match="ensemble_size"):
            EnsembleGrammarDetector(window=100, ensemble_size=0)

    def test_max_paa_must_allow_sampling(self):
        with pytest.raises(ValueError):
            EnsembleGrammarDetector(window=100, max_paa_size=1)

    def test_window_must_fit_series(self):
        detector = EnsembleGrammarDetector(window=200)
        with pytest.raises(ValueError, match="exceeds"):
            detector.detect(np.zeros(100))
