"""Unit tests for repro.evaluation.baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.anomaly import Anomaly
from repro.core.detector import GrammarAnomalyDetector
from repro.core.ensemble import EnsembleGrammarDetector
from repro.discord.discords import DiscordDetector
from repro.evaluation.baselines import (
    GIRandomDetector,
    GISelectDetector,
    gi_fix_detector,
    make_baseline_factories,
    select_parameters,
)


@pytest.fixture
def planted_series() -> np.ndarray:
    series = np.sin(np.linspace(0, 80 * np.pi, 4000))
    series[2000:2100] = np.sin(np.linspace(0, 8 * np.pi, 100))
    return series


class TestGIFix:
    def test_uses_w4_a4(self):
        detector = gi_fix_detector(100)
        assert detector.paa_size == 4
        assert detector.alphabet_size == 4
        assert isinstance(detector, GrammarAnomalyDetector)


class TestGIRandom:
    def test_draws_parameters_in_range(self, planted_series):
        detector = GIRandomDetector(100, max_paa_size=6, max_alphabet_size=8, seed=0)
        detector.detect(planted_series, k=1)
        w, a = detector.last_parameters
        assert 2 <= w <= 6
        assert 2 <= a <= 8

    def test_fresh_parameters_per_call(self, planted_series):
        detector = GIRandomDetector(100, seed=1)
        drawn = set()
        for _ in range(8):
            detector.detect(planted_series[:1500], k=1)
            drawn.add(detector.last_parameters)
        assert len(drawn) > 1

    def test_reproducible_stream(self, planted_series):
        a = GIRandomDetector(100, seed=3)
        b = GIRandomDetector(100, seed=3)
        assert a.detect(planted_series, 2) == b.detect(planted_series, 2)

    def test_paa_capped_by_window(self):
        detector = GIRandomDetector(4, max_paa_size=10, seed=0)
        series = np.sin(np.linspace(0, 20 * np.pi, 300))
        detector.detect(series, k=1)
        w, _ = detector.last_parameters
        assert w <= 4

    def test_returns_anomalies(self, planted_series):
        anomalies = GIRandomDetector(100, seed=0).detect(planted_series, k=3)
        assert all(isinstance(a, Anomaly) for a in anomalies)


class TestSelectParameters:
    def test_returns_in_range(self, planted_series):
        w, a = select_parameters(planted_series[:800], 100)
        assert 2 <= w <= 10
        assert 2 <= a <= 10

    def test_prefers_covering_parameters(self):
        """On clean periodic data, the chosen parameters must produce a
        grammar that covers (almost) the whole sample."""
        from repro.core.detector import GrammarAnomalyDetector

        sample = np.sin(np.linspace(0, 40 * np.pi, 2000))
        w, a = select_parameters(sample, 100)
        detector = GrammarAnomalyDetector(100, w, a)
        curve = detector.density_curve(sample)
        assert np.mean(curve == 0) < 0.05

    def test_deterministic(self, planted_series):
        assert select_parameters(planted_series[:600], 100) == select_parameters(
            planted_series[:600], 100
        )

    def test_window_exceeding_sample_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            select_parameters(np.zeros(50), 100)


class TestGISelect:
    def test_tunes_then_detects(self, planted_series):
        detector = GISelectDetector(100)
        anomalies = detector.detect(planted_series, k=3)
        assert detector.last_parameters is not None
        assert len(anomalies) >= 1

    def test_sample_fraction_validation(self):
        with pytest.raises(ValueError, match="sample_fraction"):
            GISelectDetector(100, sample_fraction=0.0)

    def test_sample_at_least_two_windows(self):
        """Short series still get a viable tuning sample."""
        series = np.sin(np.linspace(0, 12 * np.pi, 600))
        detector = GISelectDetector(100, sample_fraction=0.01)
        detector.detect(series, k=1)
        assert detector.last_parameters is not None


EMPTY_RANGES = [
    dict(max_paa_size=1),
    dict(max_paa_size=0),
    dict(max_alphabet_size=1),
    dict(max_alphabet_size=27),
]


class TestParameterRanges:
    """An empty or impossible ``[2, wmax] x [2, amax]`` grid is an error, with
    the ensemble's messages, never a silent fallback or a numpy error."""

    @staticmethod
    def ensemble_error(**ranges) -> str:
        with pytest.raises(ValueError) as error:
            EnsembleGrammarDetector(100, **ranges)
        return str(error.value)

    @pytest.mark.parametrize("ranges", EMPTY_RANGES)
    @pytest.mark.parametrize("baseline", [GIRandomDetector, GISelectDetector])
    def test_constructors_reject_like_the_ensemble(self, baseline, ranges):
        with pytest.raises(ValueError) as error:
            baseline(100, **ranges)
        assert str(error.value) == self.ensemble_error(**ranges)

    @pytest.mark.parametrize("ranges", EMPTY_RANGES)
    def test_select_parameters_rejects_an_empty_grid(self, planted_series, ranges):
        with pytest.raises(ValueError) as error:
            select_parameters(planted_series[:800], 100, **ranges)
        assert str(error.value) == self.ensemble_error(**ranges)

    def test_window_caps_the_paa_range(self, planted_series):
        """``wmax`` beyond the window is capped, not rejected."""
        assert GISelectDetector(4, max_paa_size=10).max_paa_size == 10
        w, _ = select_parameters(planted_series[:200], 3, max_paa_size=10)
        assert 2 <= w <= 3


class TestBaselineFactories:
    def test_contains_the_five_paper_methods(self):
        factories = make_baseline_factories(seed=0)
        assert set(factories) == {"Proposed", "GI-Random", "GI-Fix", "GI-Select", "Discord"}

    def test_factory_types(self):
        factories = make_baseline_factories(seed=0)
        assert isinstance(factories["Proposed"](100), EnsembleGrammarDetector)
        assert isinstance(factories["GI-Random"](100), GIRandomDetector)
        assert isinstance(factories["GI-Fix"](100), GrammarAnomalyDetector)
        assert isinstance(factories["GI-Select"](100), GISelectDetector)
        assert isinstance(factories["Discord"](100), DiscordDetector)

    def test_parameters_forwarded(self):
        factories = make_baseline_factories(
            max_paa_size=15, max_alphabet_size=12, ensemble_size=25, selectivity=0.2, seed=0
        )
        ensemble = factories["Proposed"](100)
        assert ensemble.max_paa_size == 15
        assert ensemble.max_alphabet_size == 12
        assert ensemble.ensemble_size == 25
        assert ensemble.selectivity == 0.2

    def test_seeded_reproducibility(self, planted_series):
        a = make_baseline_factories(seed=5)["Proposed"](100).detect(planted_series, 2)
        b = make_baseline_factories(seed=5)["Proposed"](100).detect(planted_series, 2)
        assert a == b
