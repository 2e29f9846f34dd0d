"""The member fan-out: CPU sizing, the shared thread pool, fork and re-entrancy.

Without an explicit executor, ``n_jobs`` counts threads of one
process-wide pool (:func:`repro.core.executors.fan_out`). These tests pin
what that pool must never do: spawn a process, deadlock on itself, leave a
forked child waiting on threads that do not exist there, or change a
single bit of a result. CI runs this file pinned to two CPUs, so a hang
shows up there.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro import EnsembleGrammarDetector
from repro.core import executors
from repro.core.executors import (
    _resolve_executor,
    _resolve_workers,
    available_cpus,
    fan_out,
    on_fan_out_thread,
)

CONFIG = dict(window=60, ensemble_size=20, seed=3)


def make_series(seed: int = 0, length: int = 3000) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal(length))


def detect_curve(series, **kwargs) -> bytes:
    return EnsembleGrammarDetector(**CONFIG, **kwargs).density_curve(series).tobytes()


class TestCpuSizing:
    def test_default_pools_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpus() == 1
        assert _resolve_workers(None) == 1
        assert executors.ThreadExecutor().max_workers == 1

    def test_without_an_affinity_api_cpu_count_is_used(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1

    def test_explicit_counts_are_kept(self):
        assert _resolve_workers(5) == 5
        with pytest.raises(ValueError):
            _resolve_workers(0)


class TestFanOut:
    def test_results_in_item_order(self):
        assert fan_out(lambda x: x * x, list(range(50)), 4) == [x * x for x in range(50)]
        assert fan_out(lambda x: x, [], 4) == []

    def test_runs_on_pool_threads_and_the_caller(self):
        seen = set()
        barrier = threading.Barrier(2, timeout=30)

        def task(item):
            seen.add(threading.get_ident())
            if item < 2:
                barrier.wait()  # two items must be running at once
            return item

        assert fan_out(task, [0, 1, 2, 3], 2) == [0, 1, 2, 3]
        assert threading.get_ident() in seen and len(seen) == 2

    def test_lowest_index_error_wins_and_stops_new_claims(self):
        started = []

        def task(item):
            started.append(item)
            if item in (3, 5):
                raise KeyError(item)
            return item

        with pytest.raises(KeyError) as raised:
            fan_out(task, list(range(200)), 2)
        assert raised.value.args == (3,)
        assert len(started) < 200

    def test_every_item_runs_exactly_once_under_contention(self):
        """More callers and jobs than CPUs, with thread switches forced
        often: a lost update of the claim counter would run an item twice
        or skip it."""
        items = 3000
        runs = [[0] * items for _ in range(3)]
        outcomes = [None] * 3

        def call(caller):
            def task(index):
                runs[caller][index] += 1  # only the claiming thread touches it
                return index

            outcomes[caller] = fan_out(task, range(items), 8)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(c,)) for c in range(3)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert outcomes == [list(range(items))] * 3
        assert all(count == 1 for counts in runs for count in counts)

    def test_one_job_runs_inline(self):
        threads = fan_out(lambda _: threading.get_ident(), range(5), 1)
        assert set(threads) == {threading.get_ident()}


class TestMemberFanOut:
    def test_curves_equal_for_every_n_jobs(self):
        series = make_series()
        reference = detect_curve(series, n_jobs=1)
        assert detect_curve(series, n_jobs=2) == reference
        assert detect_curve(series, n_jobs=3) == reference
        assert detect_curve(series) == reference

    def test_default_n_jobs_is_every_available_cpu(self):
        assert EnsembleGrammarDetector(window=60).n_jobs is None
        assert executors._resolve_n_jobs(None) == available_cpus()

    def test_no_process_without_an_explicit_executor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(executors, "ProcessPoolExecutor", refuse)
        assert _resolve_executor(None, 4) == (None, False)
        series = make_series(1)
        detector = EnsembleGrammarDetector(**CONFIG, n_jobs=2)
        detector.detect(series)
        batch = [make_series(2, 1500), make_series(3, 1500)]
        assert detector.detect_batch(batch, 2) == detector.detect_batch(batch, 2, n_jobs=1)

    def test_detect_inside_a_fan_out_task_completes(self):
        """Re-entrancy: a detect on a pool thread runs its members inline
        instead of waiting on the pool it occupies."""
        series = [make_series(seed, 2000) for seed in range(4)]
        expected = [detect_curve(s, n_jobs=1) for s in series]
        on_pool = []
        barrier = threading.Barrier(2, timeout=30)

        def task(index):
            if index < 2:
                barrier.wait()  # one of the first two runs on a pool thread
            on_pool.append(on_fan_out_thread())
            return detect_curve(series[index], n_jobs=2)

        results = []
        caller = threading.Thread(target=lambda: results.append(fan_out(task, range(4), 2)))
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive(), "fan-out deadlocked on itself"
        assert results == [expected]
        assert True in on_pool and False in on_pool

    def test_concurrent_callers_share_the_pool(self):
        series = [make_series(seed, 2000) for seed in range(4)]
        expected = [detect_curve(s, n_jobs=1) for s in series]
        results = [None] * 4

        def call(index):
            results[index] = detect_curve(series[index], n_jobs=2)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected


def _detect_in_child(queue) -> None:
    queue.put(detect_curve(make_series(), n_jobs=2))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_child_detects_with_its_own_pool():
    """The parent's pool threads do not survive ``fork``; the child must
    build its own pool instead of queueing work for dead threads."""
    parent = detect_curve(make_series(), n_jobs=2)
    assert executors._fan_out_pool is not None  # the parent's pool is live
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_detect_in_child, args=(queue,))
    child.start()
    try:
        result = queue.get(timeout=120)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert result == parent
