"""Cluster executor suite: TCP dispatch parity and fault injection.

Two contracts are enforced here, both with a real localhost mini-cluster
(one in-process scheduler + worker subprocesses spawned through the CLI
``worker`` subcommand, exactly as a multi-host fleet would start):

1. **Parity** — every engine entry point (``detect``, ``detect_batch``,
   ``iter_detect_batch``, ``evaluate_methods``, streaming snapshots, the
   baselines, the serving core) produces **bitwise identical** results on
   the cluster backend and the serial reference. The full parity matrix
   also runs via ``pytest --executor cluster tests/test_executor_parity.py``
   (the CI cluster-smoke step).
2. **Fault tolerance** — killing a worker mid-batch loses no series and
   duplicates none (tasks are retried on surviving workers), worker-side
   failures still surface as :class:`BatchItemError` naming the series,
   and an empty pool fails fast with an actionable message.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.cluster import (
    ClusterError,
    ClusterExecutor,
    ClusterWorkerLost,
    parse_address,
)
from repro.core.engine import BatchItemError, detect_many
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import as_executor
from repro.core.streaming import StreamingEnsembleDetector
from repro.discord.discords import DiscordDetector
from repro.evaluation.harness import evaluate_methods_on_corpus
from repro.service import DetectService

WINDOW = 60
ENSEMBLE = 6
SEED = 11

#: Generous waits: CI runners can take seconds to spawn a python worker.
CLUSTER_KWARGS = dict(worker_wait=90.0, lease_timeout=15.0)


def _sleepy_echo(payload):
    """Worker task: sleep, then echo — slow enough to be killed mid-flight."""
    index, delay = payload
    time.sleep(delay)
    return index * 10


def _resolve_len(payload):
    """Worker task: materialize a shared series and return its length."""
    from repro.core.executors import resolve_series

    return len(resolve_series(payload))


def _detector(**overrides) -> EnsembleGrammarDetector:
    kwargs = dict(window=WINDOW, ensemble_size=ENSEMBLE, seed=SEED)
    kwargs.update(overrides)
    return EnsembleGrammarDetector(**kwargs)


@pytest.fixture(scope="module")
def cluster():
    """One shared 2-worker localhost cluster (spawn cost paid once)."""
    # min_workers=2: tests that count the fleet must not start while the
    # second worker is still importing.
    with ClusterExecutor(2, min_workers=2, **CLUSTER_KWARGS) as executor:
        executor.start(wait=True)
        yield executor


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


class TestSpecParsing:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:9123") == ("127.0.0.1", 9123)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("no-port")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address(":123")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("host:notaport")

    def test_as_executor_cluster_spec(self):
        executor = as_executor("cluster", 2)
        assert isinstance(executor, ClusterExecutor)
        assert executor.kind == "cluster"
        executor.close()

    def test_bound_spec_spawns_no_local_workers(self):
        executor = as_executor("cluster:127.0.0.1:0", 2)
        assert executor._spawn_workers == 0
        executor.close()

    def test_close_is_idempotent_and_refuses_work(self):
        executor = ClusterExecutor(1, spawn_workers=0)
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(len, ["x"])


class TestDispatch:
    def test_map_order_and_results(self, cluster):
        assert cluster.map(len, ["a", "bb", "ccc", ""]) == [1, 2, 3, 0]

    def test_imap_unordered_yields_every_index_once(self, cluster):
        payloads = [(i, 0.0) for i in range(8)]
        pairs = list(cluster.imap_unordered(_sleepy_echo, payloads))
        assert sorted(index for index, _ in pairs) == list(range(8))
        assert {index: value for index, value in pairs} == {
            i: i * 10 for i in range(8)
        }

    def test_worker_side_exception_propagates(self, cluster):
        with pytest.raises(TypeError):
            cluster.map(len, ["ok", 123])

    def test_return_exceptions_contains_failures(self, cluster):
        pairs = dict(
            cluster.imap_unordered(len, ["ok", 123, "xyz"], return_exceptions=True)
        )
        assert pairs[0] == 2
        assert isinstance(pairs[1], TypeError)
        assert pairs[2] == 3

    def test_blobs_released_after_handles_close(self, cluster, series):
        with cluster.share_series(series) as handle:
            assert handle.ref.length == len(series)
            assert cluster.stats()["blobs"] == 1
            # The same series shared twice is stored once (content address).
            with cluster.share_series(series) as twin:
                assert twin.ref.digest == handle.ref.digest
                assert cluster.stats()["blobs"] == 1
        assert cluster.stats()["blobs"] == 0

    def test_worker_stats_expose_fleet(self, cluster):
        stats = cluster.worker_stats()
        assert len(stats) == 2
        assert all(s["pid"] > 0 for s in stats)
        assert len(cluster.worker_pids()) == 2

    def test_blob_released_while_queued_fails_that_task_only(self):
        """Regression: a handle closed while its task is still queued must
        fail that task gracefully — not tear down the worker connection."""
        with ClusterExecutor(1, **CLUSTER_KWARGS) as executor:
            executor.start(wait=True)
            series = np.arange(64.0)
            # Occupy the only worker so the blob task stays queued...
            blocker = executor.imap_unordered(_sleepy_echo, [(0, 1.0)])
            time.sleep(0.3)
            handle = executor.share_series(series)
            follow = executor.imap_unordered(
                _resolve_len, [handle.ref], return_exceptions=True
            )
            handle.close()  # ...and release the blob before it is leased.
            assert list(blocker) == [(0, 0)]
            ((index, result),) = list(follow)
            assert index == 0
            assert isinstance(result, ClusterError)
            assert "released" in str(result)
            # The worker survived and keeps serving.
            assert executor.map(len, ["abc"]) == [3]
            assert len(executor.worker_stats()) == 1

    def test_unpicklable_fn_does_not_corrupt_blob_state(self):
        """Regression: a scheduler-side pickle failure must not mark the
        task's blobs as delivered — the next task still receives them."""
        with ClusterExecutor(1, **CLUSTER_KWARGS) as executor:
            executor.start(wait=True)
            series = np.arange(128.0)
            with executor.share_series(series) as handle:
                with pytest.raises(ClusterError, match="serialized"):
                    executor.map(lambda payload: payload, [handle.ref])
                assert executor.map(_resolve_len, [handle.ref]) == [128]

    def test_failed_submission_unwinds_queued_tasks(self, cluster, series):
        """Regression: a submit() failure partway through a batch must not
        leave earlier tasks queued in the scheduler forever."""
        handle = cluster.share_series(series)
        ref = handle.ref
        handle.close()  # ref now points at an unpublished blob
        before = cluster.stats()["tasks_submitted"]
        with pytest.raises(ClusterError, match="unpublished"):
            cluster.map(_resolve_len, [np.arange(8.0), ref])
        # The good payload was queued then unwound; the pool still works.
        assert cluster.stats()["tasks_submitted"] == before + 1
        assert cluster.map(len, ["xy"]) == [2]


class TestParity:
    """Bitwise equality with the serial reference, per engine entry point."""

    def test_detect_and_member_selection(self, cluster, series):
        reference = _detector().ensemble_report(series, keep_member_curves=True)
        report = _detector(executor=cluster).ensemble_report(
            series, keep_member_curves=True
        )
        assert report.parameters == reference.parameters
        assert report.kept == reference.kept
        assert report.stds == reference.stds
        assert np.array_equal(report.curve, reference.curve)
        for ours, expected in zip(report.member_curves, reference.member_curves):
            assert np.array_equal(ours, expected)
        assert _detector(executor=cluster).detect(series, 3) == _detector().detect(
            series, 3
        )

    def test_detect_batch(self, cluster, batch):
        reference = _detector().detect_batch(batch, 3)
        assert _detector(executor=cluster).detect_batch(batch, 3) == reference

    def test_iter_detect_batch(self, cluster, batch):
        reference = _detector().detect_batch(batch, 3)
        pairs = list(_detector(executor=cluster).iter_detect_batch(batch, 3))
        assert sorted(index for index, _ in pairs) == list(range(len(batch)))
        for index, anomalies in pairs:
            assert anomalies == reference[index]

    def test_detect_batch_chunked(self, cluster, batch):
        reference = _detector().detect_batch(batch, 3)
        assert (
            _detector(executor=cluster).detect_batch(batch, 3, chunksize=2)
            == reference
        )

    def test_streaming_snapshot(self, cluster, series):
        reference = StreamingEnsembleDetector(window=WINDOW, ensemble_size=5, seed=3)
        reference.extend(series)
        expected = reference.density_curve()
        streaming = StreamingEnsembleDetector(
            window=WINDOW, ensemble_size=5, seed=3, executor=cluster
        )
        streaming.extend(series)
        assert np.array_equal(streaming.density_curve(), expected)

    def test_evaluate_methods(self, cluster):
        from repro.datasets.planting import make_corpus
        from repro.datasets.ucr_like import dataset_by_name

        cases = make_corpus(dataset_by_name("GunPoint"), n_cases=2, seed=0)
        factories = {
            "ensemble": lambda window: _detector(window=window),
            "discord": lambda window: DiscordDetector(window),
        }
        reference = evaluate_methods_on_corpus(cases, factories, k=3)
        results = evaluate_methods_on_corpus(cases, factories, k=3, executor=cluster)
        assert set(results) == set(reference)
        for name in reference:
            assert results[name].scores == reference[name].scores

    def test_baseline_detect_many(self, cluster, batch):
        detector = DiscordDetector(WINDOW)
        reference = [detector.detect(series, 2) for series in batch]
        assert detect_many(detector, batch, 2, executor=cluster) == reference

    def test_service_detect(self, cluster, series):
        """The serving core fronts the cluster fleet with no other change."""

        async def _served():
            async with DetectService(executor=cluster, cache_entries=0) as service:
                result = await service.detect(
                    series, window=WINDOW, ensemble_size=ENSEMBLE, seed=SEED, k=3
                )
                return list(result.anomalies)

        assert asyncio.run(_served()) == _detector().detect(series, 3)


class TestBatchItemErrors:
    def test_failing_series_named(self, cluster, batch):
        bad = list(batch) + [np.arange(10.0)]  # far shorter than the window
        labels = [f"s{i}.csv" for i in range(len(bad))]
        with pytest.raises(BatchItemError) as excinfo:
            _detector(executor=cluster).detect_batch(bad, 3, labels=labels)
        assert excinfo.value.index == len(bad) - 1
        assert excinfo.value.label == f"s{len(bad) - 1}.csv"

    def test_return_exceptions_partial_batch(self, cluster, batch):
        bad = [batch[0], np.arange(10.0), batch[1]]
        reference = _detector().detect_batch(bad, 3, return_exceptions=True)
        results = _detector(executor=cluster).detect_batch(
            bad, 3, return_exceptions=True
        )
        assert results[0] == reference[0]
        assert results[2] == reference[2]
        assert isinstance(results[1], BatchItemError)
        assert results[1].index == 1


def _kill_first_busy_worker(executor: ClusterExecutor, timeout: float = 30.0) -> int | None:
    """Wait until some worker holds a lease, then SIGKILL it; returns its pid."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        busy = [w for w in executor.worker_stats() if w["leased"]]
        if busy:
            os.kill(busy[0]["pid"], signal.SIGKILL)
            return busy[0]["pid"]
        time.sleep(0.01)
    return None


class TestFaultInjection:
    """Worker loss mid-batch: retried elsewhere, nothing lost or duplicated."""

    def test_killed_worker_tasks_retried(self):
        with ClusterExecutor(2, **CLUSTER_KWARGS) as executor:
            executor.start(wait=True)
            payloads = [(i, 0.4) for i in range(6)]
            iterator = executor.imap_unordered(_sleepy_echo, payloads)
            killed = _kill_first_busy_worker(executor)
            pairs = list(iterator)
            assert killed is not None, "no worker ever held a lease"
            # Every task completed exactly once with the right value...
            assert sorted(index for index, _ in pairs) == list(range(6))
            assert dict(pairs) == {i: i * 10 for i in range(6)}
            # ...at least one of them on its second worker.
            assert executor.stats()["tasks_retried"] >= 1
            assert len(executor.worker_stats()) == 1

    def test_killed_worker_detect_batch_bitwise(self, batch):
        reference = _detector().detect_batch(batch * 2, 3)
        with ClusterExecutor(2, **CLUSTER_KWARGS) as executor:
            executor.start(wait=True)
            killer = threading.Thread(
                target=_kill_first_busy_worker, args=(executor,)
            )
            killer.start()
            results = _detector(executor=executor).detect_batch(batch * 2, 3)
            killer.join()
            assert results == reference

    def test_no_workers_fails_fast_with_hint(self):
        executor = ClusterExecutor(
            1, spawn_workers=0, min_workers=1, worker_wait=1.0
        )
        try:
            with pytest.raises(ClusterError, match="repro worker --connect"):
                executor.map(len, ["x"])
        finally:
            executor.close()

    def test_pool_lost_mid_run_fails_tasks(self):
        """Killing *every* worker strands the queue; it fails after the grace."""
        with ClusterExecutor(1, spawn_workers=1, worker_wait=1.5, lease_timeout=15.0) as executor:
            # worker_wait is the starvation grace under test; the spawned
            # worker's import gets its own, generous deadline.
            executor.start()
            deadline = time.monotonic() + 60.0
            while not executor.worker_stats() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert executor.worker_stats(), "spawned worker never connected"
            iterator = executor.imap_unordered(_sleepy_echo, [(i, 0.3) for i in range(4)])
            assert _kill_first_busy_worker(executor) is not None
            with pytest.raises(ClusterWorkerLost):
                for _ in iterator:
                    pass


class TestWorkerCli:
    def test_worker_connect_failure_is_clean_error(self, capsys):
        from repro.cli import main

        code = main(
            ["worker", "--connect", "127.0.0.1:1", "--connect-retry", "0.2"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
