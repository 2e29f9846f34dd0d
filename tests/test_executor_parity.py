"""Executor parity suite: every backend must reproduce the serial path bitwise.

Parametrized over {serial, thread, process} × the public entry points
(detect, detect_batch, iter_detect_batch, evaluate_methods, baseline
batches); a streaming ensemble takes no executor at all. "Parity" means
*bitwise* equality of anomaly curves and identical member selection — not
approximate agreement — because all backends run the same floating-point
operations on the same float64 values.

Also asserts the shared-memory hygiene contract: no ``/dev/shm`` segment
outlives an executor call, including when a worker raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import BatchItemError, detect_many, iter_detect_batch
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import MemberExecutor, as_executor
from repro.core.streaming import StreamingEnsembleDetector
from repro.discord.discords import DiscordDetector
from repro.discord.hotsax import HotSaxDetector
from repro.evaluation.harness import evaluate_methods, evaluate_methods_on_corpus
from repro.grammar.rra import RRADetector
from repro.obs.stages import capture

WINDOW = 60
ENSEMBLE = 6
SEED = 11


@pytest.fixture(autouse=True)
def no_leaked_segments(shm_segments):
    """Every test must leave /dev/shm exactly as it found it."""
    before = shm_segments()
    yield
    assert shm_segments() == before, "leaked shared-memory segments"


@pytest.fixture
def series(rng) -> np.ndarray:
    series = np.sin(np.linspace(0, 24 * np.pi, 1400))
    series += 0.05 * rng.standard_normal(1400)
    series[500:560] = np.sin(np.linspace(0, 8 * np.pi, 60))
    return series


@pytest.fixture
def batch(rng) -> list[np.ndarray]:
    batch = []
    for i in range(3):
        series = np.sin(np.linspace(0, 24 * np.pi, 1200))
        series += 0.05 * rng.standard_normal(1200)
        position = 200 + 250 * i
        series[position : position + 60] = np.sin(np.linspace(0, 8 * np.pi, 60))
        batch.append(series)
    return batch


def _detector(**overrides) -> EnsembleGrammarDetector:
    kwargs = dict(window=WINDOW, ensemble_size=ENSEMBLE, seed=SEED)
    kwargs.update(overrides)
    return EnsembleGrammarDetector(**kwargs)


class TestDetectParity:
    def test_curves_and_member_selection_bitwise_identical(self, executor_kind, series):
        reference = _detector().ensemble_report(series, keep_member_curves=True)
        with as_executor(executor_kind, 2) as executor:
            report = _detector(executor=executor).ensemble_report(
                series, keep_member_curves=True
            )
        assert report.parameters == reference.parameters
        assert report.kept == reference.kept
        assert report.stds == reference.stds
        assert np.array_equal(report.curve, reference.curve)
        for ours, expected in zip(report.member_curves, reference.member_curves):
            assert np.array_equal(ours, expected)

    def test_detect_identical(self, executor_kind, series):
        reference = _detector().detect(series, 3)
        with as_executor(executor_kind, 2) as executor:
            assert _detector(executor=executor).detect(series, 3) == reference


class TestDetectBatchParity:
    def test_results_identical_to_serial_reference(self, executor_kind, batch):
        reference = _detector().detect_batch(batch, 3)
        with as_executor(executor_kind, 2) as executor:
            results = _detector(executor=executor).detect_batch(batch, 3)
        assert results == reference

    def test_explicit_executor_argument(self, executor_kind, batch):
        reference = _detector().detect_batch(batch, 3)
        with as_executor(executor_kind, 2) as executor:
            assert _detector().detect_batch(batch, 3, executor=executor) == reference


class TestIterDetectBatchParity:
    def test_incremental_results_identical(self, executor_kind, batch):
        reference = _detector().detect_batch(batch, 3)
        with as_executor(executor_kind, 2) as executor:
            pairs = list(_detector(executor=executor).iter_detect_batch(batch, 3))
        assert sorted(index for index, _ in pairs) == list(range(len(batch)))
        for index, anomalies in pairs:
            assert anomalies == reference[index]

    def test_module_function_matches_method(self, executor_kind, batch):
        detector = _detector()
        reference = _detector().detect_batch(batch, 2)
        with as_executor(executor_kind, 2) as executor:
            pairs = dict(iter_detect_batch(detector, batch, 2, executor=executor))
        assert [pairs[i] for i in range(len(batch))] == reference

    def test_abandoned_iterator_cleans_up(self, executor_kind, batch):
        with as_executor(executor_kind, 2) as executor:
            iterator = _detector(executor=executor).iter_detect_batch(batch, 2)
            next(iterator)
            iterator.close()
        # the autouse fixture asserts no segments leaked

    def test_arguments_validated_eagerly(self, executor_kind, batch):
        """Bad labels must raise at the call site, not at first next()."""
        with as_executor(executor_kind, 2) as executor:
            detector = _detector(executor=executor)
            with pytest.raises(ValueError, match="labels"):
                detector.iter_detect_batch(batch, 2, labels=["only-one"])

    def test_single_series_batch_parity(self, executor_kind, series):
        """A one-series batch runs in the caller and hands the executor no
        task, results unchanged."""
        reference = _detector().detect_batch([series], 3)
        with as_executor(executor_kind, 2) as inner:
            recorder = _RecordingExecutor(inner)
            detector = _detector(executor=recorder)
            assert detector.detect_batch([series], 3) == reference
            assert list(detector.iter_detect_batch([series], 3)) == [(0, reference[0])]
            assert _detector().detect_batch([series], 3, executor=recorder) == reference
        assert recorder.calls == []


class TestEvaluateMethodsParity:
    @pytest.fixture
    def corpora(self):
        from repro.datasets.planting import make_corpus
        from repro.datasets.ucr_like import dataset_by_name

        return {
            name: make_corpus(dataset_by_name(name), n_cases=2, seed=0)
            for name in ("GunPoint", "Trace")
        }

    @staticmethod
    def _factories():
        # A stateful method (the ensemble consumes its rng per case) plus a
        # stateless baseline; both must reproduce serial scores exactly.
        return {
            "ensemble": lambda window: _detector(window=window),
            "discord": lambda window: DiscordDetector(window),
        }

    def test_corpus_scores_identical(self, executor_kind, corpora):
        cases = corpora["GunPoint"]
        reference = evaluate_methods_on_corpus(cases, self._factories(), k=3)
        with as_executor(executor_kind, 2) as executor:
            results = evaluate_methods_on_corpus(
                cases, self._factories(), k=3, executor=executor
            )
        assert set(results) == set(reference)
        for name in reference:
            assert results[name].scores == reference[name].scores

    def test_pooled_harness_forces_member_serial(self):
        """Detectors shipped into pooled tasks must not nest member pools."""
        from repro.evaluation.harness import _prepare_for_pool

        assert _prepare_for_pool(_detector(n_jobs=4), "process").n_jobs == 1
        assert _prepare_for_pool(_detector(n_jobs=4), "thread").n_jobs == 1
        assert _prepare_for_pool(_detector(n_jobs=4), "serial").n_jobs == 4
        assert _prepare_for_pool(DiscordDetector(WINDOW), "process").window == WINDOW
        # Executor-configured detectors are defused too (thread tasks ship
        # them by reference, so pickling alone would not strip the spec) —
        # and without ever building the pool being avoided.
        prepared = _prepare_for_pool(_detector(executor="process"), "thread")
        assert prepared._executor_spec is None
        assert prepared.executor is None

    def test_multi_corpus_shared_pool(self, executor_kind, corpora):
        reference = evaluate_methods(corpora, self._factories(), k=3)
        with as_executor(executor_kind, 2) as executor:
            results = evaluate_methods(corpora, self._factories(), k=3, executor=executor)
        assert set(results) == set(reference)
        for dataset in reference:
            for name in reference[dataset]:
                assert results[dataset][name].scores == reference[dataset][name].scores


class _RecordingExecutor(MemberExecutor):
    """Delegates to a real backend and records every task batch and series
    it is handed."""

    def __init__(self, inner: MemberExecutor) -> None:
        super().__init__(inner.max_workers)
        self.inner = inner
        self.kind = inner.kind
        self.calls: list[tuple[str, int]] = []

    def share_series(self, series):
        self.calls.append(("share_series", 1))
        return self.inner.share_series(series)

    def map(self, fn, payloads):
        payloads = list(payloads)
        self.calls.append((fn.__name__, len(payloads)))
        return self.inner.map(fn, payloads)

    def imap_unordered(self, fn, payloads, *, return_exceptions=False):
        payloads = list(payloads)
        self.calls.append((fn.__name__, len(payloads)))
        return self.inner.imap_unordered(
            fn, payloads, return_exceptions=return_exceptions
        )


class TestMembersStayInProcess:
    """Executors carry whole series: the members of one detection never
    reach one, under any backend, and the results stay byte for byte (a
    batch of one: ``test_single_series_batch_parity``)."""

    def test_detect_hands_executor_no_task(self, executor_kind, series):
        reference = _detector().ensemble_report(series, keep_member_curves=True)
        with as_executor(executor_kind, 2) as inner:
            recorder = _RecordingExecutor(inner)
            detector = _detector(executor=recorder)
            report = detector.ensemble_report(series, keep_member_curves=True)
            anomalies = _detector(executor=recorder).detect(series, 3)
        assert recorder.calls == []
        assert report.curve.tobytes() == reference.curve.tobytes()
        assert [curve.tobytes() for curve in report.member_curves] == [
            curve.tobytes() for curve in reference.member_curves
        ]
        assert anomalies == _detector().detect(series, 3)

    def test_two_series_batch_reaches_the_pool(self, executor_kind, batch):
        reference = _detector().detect_batch(batch[:2], 3)
        with as_executor(executor_kind, 2) as inner:
            recorder = _RecordingExecutor(inner)
            assert _detector(executor=recorder).detect_batch(batch[:2], 3) == reference
        assert recorder.calls == [
            ("share_series", 1),
            ("share_series", 1),
            ("_detect_one_series", 2),
        ]


class TestStreamingTakesNoExecutor:
    def test_executor_argument_is_refused(self, executor_kind):
        """Streaming polls always run in the owning process, so a streaming
        ensemble takes no executor, by name or live."""
        with pytest.raises(TypeError, match="executor"):
            StreamingEnsembleDetector(window=WINDOW, executor=executor_kind)
        with as_executor(executor_kind, 2) as executor:
            with pytest.raises(TypeError, match="executor"):
                StreamingEnsembleDetector(window=WINDOW, executor=executor)
        state = StreamingEnsembleDetector(window=WINDOW, ensemble_size=5, seed=3).snapshot()
        with pytest.raises(TypeError, match="executor"):
            StreamingEnsembleDetector.restore(state, executor=executor_kind)

    def test_default_poll_is_captured(self, series):
        """A poll runs on the calling thread, so capture() sees its grammar
        and density time."""
        streaming = StreamingEnsembleDetector(window=WINDOW, ensemble_size=5, seed=3)
        streaming.extend(series)
        with capture() as timings:
            streaming.density_curve()
        assert {"grammar", "density", "combine"} <= set(timings)
        assert timings["grammar"] > 0.0 and timings["density"] > 0.0


class TestBaselineBatchParity:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DiscordDetector(WINDOW),
            lambda: HotSaxDetector(WINDOW, seed=2),
            lambda: RRADetector(WINDOW, 4, 4),
        ],
        ids=["discord", "hotsax", "rra"],
    )
    def test_detect_batch_identical(self, executor_kind, batch, factory):
        detector = factory()
        reference = [detector.detect(series, 2) for series in batch]
        with as_executor(executor_kind, 2) as executor:
            assert detector.detect_batch(batch, 2, executor=executor) == reference

    def test_detect_many_function(self, executor_kind, batch):
        detector = DiscordDetector(WINDOW)
        reference = [detector.detect(series, 2) for series in batch]
        with as_executor(executor_kind, 2) as executor:
            assert detect_many(detector, batch, 2, executor=executor) == reference


class TestSharedMemoryCleanup:
    def test_worker_exception_does_not_leak(self, executor_kind, batch):
        bad = list(batch) + [np.arange(10.0)]  # shorter than the window
        with as_executor(executor_kind, 2) as executor:
            with pytest.raises(BatchItemError) as excinfo:
                _detector(executor=executor).detect_batch(
                    bad, 3, labels=[f"s{i}.csv" for i in range(len(bad))]
                )
        assert excinfo.value.index == len(bad) - 1
        assert excinfo.value.label == f"s{len(bad) - 1}.csv"
        # the autouse fixture asserts no segments leaked

    def test_detect_many_exception_does_not_leak(self, executor_kind, batch):
        bad = [batch[0], np.arange(5.0)]
        detector = DiscordDetector(WINDOW)
        with as_executor(executor_kind, 2) as executor:
            with pytest.raises(BatchItemError) as excinfo:
                detector.detect_batch(bad, 2, executor=executor)
        assert excinfo.value.index == 1
