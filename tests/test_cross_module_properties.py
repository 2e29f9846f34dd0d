"""Cross-module property suite: invariants that span pipeline stages.

These hypothesis tests exercise whole sub-pipelines rather than single
functions — the contracts that make the paper's method correct end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles.pipeline import rule_density_curve
from oracles.sax import discretize, expand_tokens, first_occurrence_ids, numerosity_reduction
from repro.core.detector import GrammarAnomalyDetector
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.datasets.planting import make_corpus
from repro.datasets.ucr_like import DATASETS
from repro.grammar.sequitur import induce_grammar
from repro.sax._kernel import sax_tokens

steps = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def series_window_params(draw):
    n = draw(st.integers(60, 240))
    window = draw(st.integers(8, 40))
    w = draw(st.integers(2, min(8, window)))
    a = draw(st.integers(2, 8))
    values = np.cumsum(draw(arrays(np.float64, n, elements=steps)))
    return values, window, w, a


class TestDiscretizationPipeline:
    @given(series_window_params())
    @settings(max_examples=30)
    def test_tokens_expand_to_window_words(self, case):
        """Numerosity reduction stays lossless after real discretization."""
        series, window, w, a = case
        words = discretize(series, window, w, a)
        tokens = numerosity_reduction(words, window)
        assert expand_tokens(tokens) == words

    @given(series_window_params())
    @settings(max_examples=30)
    def test_grammar_expansion_equals_tokens(self, case):
        """Sequitur over real SAX tokens reconstructs them exactly."""
        series, window, w, a = case
        words = discretize(series, window, w, a)
        tokens = numerosity_reduction(words, window)
        grammar = induce_grammar(tokens.words)
        assert tuple(grammar.expand(0)) == tokens.words

    @given(series_window_params())
    @settings(max_examples=20)
    def test_density_curve_nonnegative_and_sized(self, case):
        series, window, w, a = case
        words = discretize(series, window, w, a)
        tokens = numerosity_reduction(words, window)
        grammar = induce_grammar(tokens.words)
        curve = rule_density_curve(grammar, tokens, len(series))
        assert len(curve) == len(series)
        assert np.all(curve >= 0)

    @given(series_window_params())
    @settings(max_examples=15)
    def test_multiresolution_equals_plain_pipeline(self, case):
        """The Section 6.2 fast path is externally invisible."""
        series, window, w, a = case
        discretizer = MultiResolutionDiscretizer(
            series, window, max_paa_size=min(8, window), max_alphabet_size=8
        )
        offsets, ids = sax_tokens(
            discretizer.interval_matrix(w), discretizer.alphabet_table.symbol_column(a)
        )
        plain = numerosity_reduction(discretize(series, window, w, a), window)
        assert np.array_equal(ids, first_occurrence_ids(plain.words))
        assert np.array_equal(offsets, plain.offsets)


class TestDetectorContracts:
    @given(series_window_params())
    @settings(max_examples=15)
    def test_single_run_detector_total_function(self, case):
        """The detector returns ranked, disjoint, in-bounds candidates on
        arbitrary (random-walk) input — no crashes, no empty output."""
        series, window, w, a = case
        detector = GrammarAnomalyDetector(window, w, a)
        anomalies = detector.detect(series, k=3)
        assert 1 <= len(anomalies) <= 3
        for anomaly in anomalies:
            assert 0 <= anomaly.position <= len(series) - window
            assert anomaly.length == window
        ranks = [a.rank for a in anomalies]
        assert ranks == list(range(1, len(anomalies) + 1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_offset_amplitude_invariance_of_detection(self, seed):
        """Scaling and shifting the series must not change GI detections."""
        rng = np.random.default_rng(seed)
        series = np.sin(np.linspace(0, 40 * np.pi, 2000))
        series[1000:1050] = rng.standard_normal(50)
        detector = GrammarAnomalyDetector(window=50, paa_size=5, alphabet_size=5)
        base = [(a.position, a.rank) for a in detector.detect(series, 3)]
        transformed = [(a.position, a.rank) for a in detector.detect(series * 3.7 + 11.0, 3)]
        assert base == transformed


class TestCorpusProperties:
    def test_corpus_prefix_stability(self):
        """A smaller corpus is an exact prefix of a larger one for the same
        seed — the property the sweep benches rely on to compare per-case
        scores against the main suite."""
        dataset = DATASETS["Wafer"]
        small = make_corpus(dataset, n_cases=3, seed=42)
        large = make_corpus(dataset, n_cases=6, seed=42)
        for case_small, case_large in zip(small, large):
            assert np.array_equal(case_small.series, case_large.series)
            assert case_small.gt_location == case_large.gt_location

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_every_dataset_supports_the_protocol(self, name):
        corpus = make_corpus(DATASETS[name], n_cases=2, seed=1)
        for case in corpus:
            assert len(case.series) == 21 * DATASETS[name].spec.instance_length
            assert case.gt_length == DATASETS[name].spec.instance_length
