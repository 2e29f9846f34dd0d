"""Unit tests for repro.core.executors — the pluggable executor subsystem.

Covers the MemberExecutor interface contract (ordering, unordered
completion, lifecycle, error propagation), shared-memory series passing
(bitwise round trip, segment cleanup), pool reuse semantics, and the
bitwise parity of member curves across all three backends.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.engine import compute_member_curves
from repro.core.executors import (
    EXECUTOR_KINDS,
    PARENT_POLL_S,
    BatchItemError,
    MemberExecutor,
    ProcessExecutor,
    SerialExecutor,
    SharedSeriesRef,
    ThreadExecutor,
    as_executor,
    open_executor,
    _exit_with_parent,
    resolve_series,
    validate_executor_spec,
)

PARAMETERS = [(4, 4), (4, 7), (2, 3), (6, 5), (6, 2)]


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


@pytest.fixture
def member_series(rng) -> np.ndarray:
    series = np.sin(np.linspace(0, 40 * np.pi, 2000))
    series += 0.05 * rng.standard_normal(2000)
    series[900:1000] = np.sin(np.linspace(0, 12 * np.pi, 100))
    return series


class TestRegistry:
    def test_as_executor_kinds(self):
        for kind in EXECUTOR_KINDS:
            executor = as_executor(kind, 2)
            assert isinstance(executor, MemberExecutor)
            assert executor.kind == kind
            executor.close()

    def test_unknown_kind_rejected(self):
        for spec in ("celery", "dask", "dask:tcp://10.0.0.1:8786"):
            with pytest.raises(ValueError, match="unknown executor"):
                as_executor(spec, 2)
            with pytest.raises(ValueError, match="unknown executor"):
                validate_executor_spec(spec)

    def test_non_string_spec_rejected(self):
        with pytest.raises(TypeError, match="must be a string"):
            as_executor(3)
        with pytest.raises(TypeError, match="must be a string"):
            with open_executor(3):
                pass

    def test_validate_executor_spec(self):
        validate_executor_spec(None)
        validate_executor_spec("thread")
        executor = SerialExecutor()
        validate_executor_spec(executor)
        with pytest.raises(ValueError, match="unknown executor"):
            validate_executor_spec("ray")
        with pytest.raises(ValueError, match="unknown executor 'process:127.0.0.1:1'"):
            validate_executor_spec("process:127.0.0.1:1")
        with pytest.raises(TypeError, match="MemberExecutor"):
            validate_executor_spec(42)

    @pytest.mark.parametrize("spec", ["cluster", "cluster:127.0.0.1:9123", "cluster:no-port"])
    def test_cluster_spec_is_rejected_naming_the_router(self, spec):
        """The cluster backend is gone; the router splits batches over hosts."""
        from repro.service import DetectService

        for build in (
            lambda: as_executor(spec, 2),
            lambda: validate_executor_spec(spec),
            lambda: DetectService(executor=spec),
        ):
            with pytest.raises(ValueError, match="`repro router`"):
                build()

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ThreadExecutor(0)

    def test_open_executor_owns_named_backends(self):
        with open_executor("thread", 2) as executor:
            assert executor.kind == "thread"
            kept = executor
        assert kept.closed

    def test_open_executor_borrows_instances(self):
        executor = ThreadExecutor(2)
        with open_executor(executor) as inner:
            assert inner is executor
        assert not executor.closed
        executor.close()


class TestInterfaceContract:
    def test_map_preserves_order(self, executor_kind):
        with as_executor(executor_kind, 2) as executor:
            assert executor.map(_square, list(range(10))) == [x * x for x in range(10)]

    def test_imap_unordered_covers_all_indices(self, executor_kind):
        with as_executor(executor_kind, 2) as executor:
            pairs = dict(executor.imap_unordered(_square, [3, 1, 4, 1, 5]))
        assert pairs == {0: 9, 1: 1, 2: 16, 3: 1, 4: 25}

    def test_map_propagates_worker_errors(self, executor_kind):
        with as_executor(executor_kind, 2) as executor:
            with pytest.raises(ValueError, match="three is right out"):
                executor.map(_fail_on_three, [1, 2, 3, 4])

    def test_closed_executor_refuses_work(self, executor_kind):
        executor = as_executor(executor_kind, 2)
        executor.close()
        executor.close()  # idempotent
        assert executor.closed
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(_square, [1])
        with pytest.raises(RuntimeError, match="closed"):
            executor.imap_unordered(_square, [1])  # refused at the call
        with pytest.raises(RuntimeError, match="closed"):
            executor.share_series(np.zeros(4))
        with pytest.raises(RuntimeError, match="closed"):
            with executor:
                pass

    def test_context_manager_closes(self, executor_kind):
        with as_executor(executor_kind, 2) as executor:
            assert not executor.closed
        assert executor.closed

    def test_repr_names_state(self, executor_kind):
        executor = as_executor(executor_kind, 2)
        assert "open" in repr(executor)
        executor.close()
        assert "closed" in repr(executor)


class TestSeriesPassing:
    def test_inline_ref_round_trip(self, executor_kind, rng):
        series = rng.standard_normal(257)
        with as_executor(executor_kind, 2) as executor:
            with executor.share_series(series) as handle:
                restored = resolve_series(handle.ref)
                assert np.array_equal(restored, series)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no POSIX shared memory")
    def test_process_backend_uses_shared_memory(self, rng, shm_segments):
        series = rng.standard_normal(1000)
        before = shm_segments()
        with ProcessExecutor(2) as executor:
            handle = executor.share_series(series)
            assert isinstance(handle.ref, SharedSeriesRef)
            assert handle.ref.length == 1000
            assert shm_segments() - before  # segment exists while shared
            assert np.array_equal(resolve_series(handle.ref), series)
            handle.close()
            handle.close()  # idempotent
            assert shm_segments() == before
        assert shm_segments() == before

    def test_process_backend_inline_fallback(self, rng):
        series = rng.standard_normal(100)
        with ProcessExecutor(2, use_shared_memory=False) as executor:
            with executor.share_series(series) as handle:
                assert not isinstance(handle.ref, SharedSeriesRef)
                assert np.array_equal(resolve_series(handle.ref), series)

    def test_thread_backend_passes_by_reference(self, rng):
        series = np.ascontiguousarray(rng.standard_normal(64))
        with ThreadExecutor(2) as executor:
            with executor.share_series(series) as handle:
                assert resolve_series(handle.ref) is not None
                assert np.shares_memory(np.asarray(handle.ref), series)

    def test_non_1d_series_rejected_on_every_backend(self, executor_kind, rng):
        """Regression: the shm ref records only a length, so a 2-D input
        must be refused up front rather than silently flattened."""
        with as_executor(executor_kind, 2) as executor:
            with pytest.raises(ValueError, match="1-dimensional"):
                executor.share_series(rng.standard_normal((3, 4)))

    def test_non_1d_batch_series_raises_batch_item_error(self, rng):
        from repro.core.engine import detect_many
        from repro.discord.discords import DiscordDetector

        good = np.sin(np.linspace(0, 12 * np.pi, 400))
        bad = np.ones((100, 2))
        detector = DiscordDetector(50)
        with ProcessExecutor(2) as executor:
            with pytest.raises(BatchItemError) as excinfo:
                detect_many(detector, [good, bad], 2, executor=executor, labels=["g", "b"])
        assert excinfo.value.index == 1
        assert excinfo.value.label == "b"


class TestPoolReuse:
    def test_lazy_pool_spawn(self):
        executor = ProcessExecutor(2)
        assert not executor.pool_started
        executor.map(_square, [1, 2])
        assert executor.pool_started
        executor.close()
        assert not executor.pool_started

    def test_pool_object_survives_across_calls(self):
        with ProcessExecutor(2) as executor:
            executor.map(_square, [1])
            first_pool = executor._pool
            executor.map(_square, [2, 3])
            assert executor._pool is first_pool

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_parent_watch_spares_workers_of_a_live_parent(self, method):
        """Workers keep running while their parent lives, whatever started
        them: under forkserver their parent is the forkserver, not us."""
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(1, mp_context=context, initializer=_exit_with_parent) as pool:
            worker = pool.submit(os.getpid).result()
            time.sleep(4 * PARENT_POLL_S)
            assert pool.submit(os.getpid).result() == worker

    def test_thread_pool_reuse(self):
        with ThreadExecutor(2) as executor:
            executor.map(_square, [1])
            first_pool = executor._pool
            dict(executor.imap_unordered(_square, [2, 3]))
            assert executor._pool is first_pool

    def test_named_backend_with_default_n_jobs_gets_real_parallelism(self):
        """Regression: executor='process' with the default n_jobs=1 must not
        build a one-worker pool (naming a backend is asking for parallelism)."""
        from repro.core.executors import _resolve_executor, available_cpus

        pool, owned = _resolve_executor("process", 1)
        try:
            assert owned
            assert pool.max_workers == available_cpus()
        finally:
            pool.close()
        pool, owned = _resolve_executor("process", 3)
        try:
            assert pool.max_workers == 3
        finally:
            pool.close()


class TestBatchItemError:
    def test_message_carries_index_and_label(self):
        error = BatchItemError(4, "series/d.csv", ValueError("window exceeds"))
        assert error.index == 4
        assert error.label == "series/d.csv"
        assert "series 4" in str(error)
        assert "series/d.csv" in str(error)
        assert "ValueError" in error.cause_message

    def test_pickle_round_trip(self):
        error = BatchItemError(2, None, RuntimeError("boom"))
        restored = pickle.loads(pickle.dumps(error))
        assert isinstance(restored, BatchItemError)
        assert restored.index == 2
        assert restored.label is None
        assert restored.cause_message == "RuntimeError: boom"


class TestMemberCurveParity:
    def test_compute_member_curves_bitwise_identical(self, executor_kind, member_series):
        reference = compute_member_curves(
            member_series, 100, PARAMETERS, max_paa_size=10, max_alphabet_size=10, n_jobs=1
        ).curves
        with as_executor(executor_kind, 2) as executor:
            curves = compute_member_curves(
                member_series,
                100,
                PARAMETERS,
                max_paa_size=10,
                max_alphabet_size=10,
                executor=executor,
            ).curves
        assert len(curves) == len(reference)
        for ours, expected in zip(curves, reference):
            assert np.array_equal(ours, expected)

    def test_executor_by_name_matches_instance(self, member_series):
        by_name = compute_member_curves(
            member_series,
            100,
            PARAMETERS,
            max_paa_size=10,
            max_alphabet_size=10,
            executor="thread",
            n_jobs=2,
        ).curves
        reference = compute_member_curves(
            member_series, 100, PARAMETERS, max_paa_size=10, max_alphabet_size=10, n_jobs=1
        ).curves
        for ours, expected in zip(by_name, reference):
            assert np.array_equal(ours, expected)
