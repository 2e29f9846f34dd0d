"""Kernel differential suite: the full pipeline across REPRO_KERNEL values.

The property battery (``test_sax_properties.py``) pins the discretization
stage in isolation; this suite drives random series through the *whole*
detector — batch ``detect()``/``ensemble_report()`` and streaming
append/extend + poll — under both kernels and every executor backend, and
asserts the end results are bitwise identical: same anomaly positions, same
member selection, same float64 curve bits.

``python`` is the oracle; ``fast`` (the default) must match it exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.interner import MAX_PACKED_WIDTH
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import as_executor
from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector
from repro.sax import _kernel

NON_ORACLE = ["fast"]

WINDOW = 50
CONFIG = dict(
    window=WINDOW, ensemble_size=6, max_paa_size=6, max_alphabet_size=6, seed=5
)


def random_series(seed: int, n: int = 900) -> np.ndarray:
    rng = np.random.default_rng(seed)
    series = np.sin(np.linspace(0.0, 18.0 * np.pi, n))
    series += 0.05 * rng.standard_normal(n)
    anomaly = int(rng.integers(n // 4, 3 * n // 4))
    series[anomaly : anomaly + WINDOW] *= 0.1
    return series


def batch_result(kernel: str, series: np.ndarray, executor_kind: str | None):
    with _kernel.use_kernel(kernel):
        detector = EnsembleGrammarDetector(**CONFIG)
        if executor_kind is None:
            report = detector.ensemble_report(series, keep_member_curves=True)
            anomalies = detector.detect(series, 3)
        else:
            with as_executor(executor_kind, 2) as executor:
                detector = EnsembleGrammarDetector(**CONFIG, executor=executor)
                report = detector.ensemble_report(series, keep_member_curves=True)
                anomalies = detector.detect(series, 3)
    return report, anomalies


def streaming_result(kernel: str, series: np.ndarray, **overrides):
    """Append + extend ingestion with interleaved polls (snapshot reads)."""
    with _kernel.use_kernel(kernel):
        detector = StreamingEnsembleDetector(**CONFIG, **overrides)
        for value in series[:150]:
            detector.append(float(value))
        curves = []
        for offset in range(150, len(series), 200):
            detector.extend(series[offset : offset + 200])
            curves.append(detector.density_curve().copy())
        anomalies = detector.detect(3)
    return curves, anomalies


@pytest.mark.parametrize("kernel", NON_ORACLE)
@pytest.mark.parametrize("seed", [1, 2])
def test_batch_detect_matches_python_oracle(kernel, seed):
    series = random_series(seed)
    oracle_report, oracle_anomalies = batch_result("python", series, None)
    report, anomalies = batch_result(kernel, series, None)
    assert report.parameters == oracle_report.parameters
    assert report.kept == oracle_report.kept
    assert np.array_equal(report.curve, oracle_report.curve)
    for ours, expected in zip(report.member_curves, oracle_report.member_curves):
        assert np.array_equal(ours, expected)
    assert anomalies == oracle_anomalies


@pytest.mark.parametrize("kernel", NON_ORACLE)
def test_wide_word_batch_detect_matches_python_oracle(kernel):
    """Members whose words are wider than a packed int64 code holds (12
    symbols) must still match the oracle bit for bit."""
    series = random_series(10)
    config = dict(CONFIG, ensemble_size=10, max_paa_size=16, seed=1)

    def run(name: str):
        with _kernel.use_kernel(name):
            detector = EnsembleGrammarDetector(**config)
            report = detector.ensemble_report(series, keep_member_curves=True)
            return report, detector.detect(series, 3)

    oracle_report, oracle_anomalies = run("python")
    report, anomalies = run(kernel)
    assert any(w > MAX_PACKED_WIDTH for w, _ in report.parameters)
    assert report.parameters == oracle_report.parameters
    assert report.kept == oracle_report.kept
    assert np.array_equal(report.curve, oracle_report.curve)
    for ours, expected in zip(report.member_curves, oracle_report.member_curves):
        assert np.array_equal(ours, expected)
    assert anomalies == oracle_anomalies


@pytest.mark.parametrize("kernel", NON_ORACLE)
def test_batch_detect_matches_oracle_across_executors(kernel, executor_kind):
    series = random_series(3)
    oracle_report, oracle_anomalies = batch_result("python", series, None)
    report, anomalies = batch_result(kernel, series, executor_kind)
    assert report.kept == oracle_report.kept
    assert np.array_equal(report.curve, oracle_report.curve)
    assert anomalies == oracle_anomalies


@pytest.mark.parametrize("kernel", NON_ORACLE)
@pytest.mark.parametrize("seed", [4, 5])
def test_streaming_polls_match_python_oracle(kernel, seed):
    series = random_series(seed)
    oracle_curves, oracle_anomalies = streaming_result("python", series)
    curves, anomalies = streaming_result(kernel, series)
    assert len(curves) == len(oracle_curves)
    for ours, expected in zip(curves, oracle_curves):
        assert np.array_equal(ours, expected)
    assert anomalies == oracle_anomalies


@pytest.mark.parametrize("kernel", NON_ORACLE)
def test_streaming_matches_oracle_across_executors(kernel, executor_kind):
    series = random_series(6)
    oracle_curves, oracle_anomalies = streaming_result("python", series)
    curves, anomalies = streaming_result(kernel, series, executor=executor_kind)
    for ours, expected in zip(curves, oracle_curves):
        assert np.array_equal(ours, expected)
    assert anomalies == oracle_anomalies


@pytest.mark.parametrize("kernel", NON_ORACLE)
@pytest.mark.parametrize(
    "eviction",
    [dict(capacity=300, policy="sliding"), dict(capacity=300, policy="decay", segments=3)],
    ids=["sliding", "decay"],
)
def test_streaming_eviction_matches_python_oracle(kernel, eviction):
    series = random_series(7, n=1200)
    oracle_curves, oracle_anomalies = streaming_result("python", series, **eviction)
    curves, anomalies = streaming_result(kernel, series, **eviction)
    for ours, expected in zip(curves, oracle_curves):
        assert np.array_equal(ours, expected)
    assert anomalies == oracle_anomalies


@pytest.mark.parametrize("kernel", NON_ORACLE)
def test_single_member_stream_matches_python_oracle(kernel):
    series = random_series(8, n=700)

    def run(name: str):
        with _kernel.use_kernel(name):
            member = StreamingGrammarDetector(window=WINDOW, paa_size=5, alphabet_size=5)
            for value in series[:90]:
                member.append(float(value))
            member.extend(series[90:])
            return member.density_curve().copy(), member.detect(2)

    oracle_curve, oracle_anomalies = run("python")
    curve, anomalies = run(kernel)
    assert np.array_equal(curve, oracle_curve)
    assert anomalies == oracle_anomalies


def test_current_kernel_matches_batch_and_streaming():
    """Whatever kernel the session selected: batch and streaming agree."""
    series = random_series(9)
    batch_curve = EnsembleGrammarDetector(**CONFIG).density_curve(series)
    streaming = StreamingEnsembleDetector(**CONFIG)
    streaming.extend(series)
    assert np.array_equal(streaming.density_curve(), batch_curve)
