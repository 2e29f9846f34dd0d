"""Executor reuse semantics: one pool across calls == fresh pools per call.

The point of :class:`ProcessExecutor`'s lazy-reuse design is that repeated
batches stop paying pool spawn/teardown; these tests pin down that reuse
changes *nothing* about the results — three consecutive batches through
one long-lived pool match three batches through three fresh pools bit for
bit (and match the serial path, which is the parity anchor). Executors
carry whole series, so every batch here holds two: a one-series batch or
a ``detect()`` runs in the caller and never starts the pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import ProcessExecutor, ThreadExecutor

WINDOW = 60
CALLS = 3


@pytest.fixture
def series_sequence(rng) -> list[np.ndarray]:
    """Three distinct inputs, one per consecutive call."""
    sequence = []
    for i in range(CALLS):
        series = np.sin(np.linspace(0, 24 * np.pi, 1100))
        series += 0.05 * rng.standard_normal(1100)
        position = 150 + 300 * i
        series[position : position + 60] = np.sin(np.linspace(0, 8 * np.pi, 60))
        sequence.append(series)
    return sequence


@pytest.fixture
def batches(series_sequence) -> list[list[np.ndarray]]:
    """Three two-series batches, one per consecutive detect_batch() call."""
    return [[series_sequence[i], series_sequence[(i + 1) % CALLS]] for i in range(CALLS)]


def _detector(**overrides) -> EnsembleGrammarDetector:
    kwargs = dict(window=WINDOW, ensemble_size=6, seed=17)
    kwargs.update(overrides)
    return EnsembleGrammarDetector(**kwargs)


def test_reused_pool_matches_fresh_pools(batches):
    reference = [_detector().detect_batch(batch, 3) for batch in batches]

    with ProcessExecutor(2) as reused:
        detector = _detector(executor=reused)
        reused_results = [detector.detect_batch(batch, 3) for batch in batches]

    fresh_detector = _detector()
    fresh_results = []
    for batch in batches:
        with ProcessExecutor(2) as fresh_pool:
            fresh_results.append(fresh_detector.detect_batch(batch, 3, executor=fresh_pool))

    assert reused_results == fresh_results == reference


def test_pool_is_actually_reused_across_batches(batches, series_sequence):
    with ProcessExecutor(2) as executor:
        detector = _detector(executor=executor)
        detector.detect(series_sequence[0], 3)
        detector.detect_batch(batches[0][:1], 3)
        assert not executor.pool_started  # one series never reaches the pool
        detector.detect_batch(batches[0], 3)
        assert executor.pool_started
        first_pool = executor._pool
        detector.detect_batch(batches[1], 3)
        detector.detect_batch(batches[2], 3)
        assert executor._pool is first_pool


def test_detector_owns_spec_built_executor_and_reuses_it(batches):
    detector = _detector(executor="process", n_jobs=2)
    try:
        detector.detect_batch(batches[0], 3)
        executor = detector.executor
        assert isinstance(executor, ProcessExecutor)
        assert executor.pool_started
        detector.detect_batch(batches[1], 3)
        assert detector.executor is executor  # same pool, not a new one
    finally:
        detector.close()
    assert executor.closed
    # close() is idempotent and detaches the executor.
    detector.close()
    assert detector.executor is None


def test_detector_context_manager_closes_owned_executor(series_sequence):
    with _detector(executor="thread", n_jobs=2) as detector:
        detector.detect(series_sequence[0], 3)
        executor = detector.executor
        assert isinstance(executor, ThreadExecutor)
    assert executor.closed


def test_borrowed_executor_survives_detector_close(series_sequence):
    with ThreadExecutor(2) as executor:
        detector = _detector(executor=executor)
        detector.detect(series_sequence[0], 3)
        detector.close()
        assert not executor.closed
        # The executor is still usable by others after the detector let go.
        assert executor.map(len, [series_sequence[0]]) == [len(series_sequence[0])]


def test_pickled_detector_drops_live_executor(series_sequence):
    import pickle

    with ProcessExecutor(2) as executor:
        detector = _detector(executor=executor)
        expected = detector.detect(series_sequence[0], 3)
        clone = pickle.loads(pickle.dumps(_detector(executor=executor)))
    assert clone.executor is None
    assert clone.detect(series_sequence[0], 3) == expected
