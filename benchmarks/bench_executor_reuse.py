"""Executor micro-benches: pool reuse vs per-call spawn, shm vs pickling.

Two overheads dominated PR 1's parallel path and are what the executor
subsystem removes:

1. **Pool spawn/teardown per call** — every parallel call built a fresh
   ``ProcessPoolExecutor``. On short series the spawn costs more than the
   detection. ``bench_executor_pool_reuse`` runs the same sequence of
   two-series ``detect_batch()`` calls through one reused
   :class:`ProcessExecutor` vs a fresh pool per call. (Executors carry
   whole series, so a one-series ``detect()`` never reaches the pool and
   has nothing to amortize.)
2. **Pickling the series once per task** — each task payload carried its
   own copy of the input. ``bench_shared_memory_series_passing`` isolates
   the transfer layer on a >=100k-point series: the same reused pool runs
   the same touch-task over payloads that carry the series inline (pickled
   per task, the PR-1 way) vs as one shared-memory reference.

Both benches print the numbers and, by default, assert a measured speedup;
set REPRO_BENCH_STRICT=0 to report without asserting (what CI does — a
shared runner's wall clock is too noisy to gate merges on). Scale knobs:
REPRO_EXEC_CALLS (default 6), REPRO_EXEC_POINTS (default 150_000;
REPRO_FULL=1 raises it to 400_000).
"""

from __future__ import annotations

import os

import numpy as np

from benchlib import FULL, RESULTS_DIR, scale_note, strict
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import ProcessExecutor
from repro.datasets.generators import random_walk
from repro.evaluation.tables import format_table
from repro.utils.timing import Timer
from runner.schema import write_bench_payload
from runner.workloads import touch_task

CALLS = int(os.environ.get("REPRO_EXEC_CALLS", "6"))
# Short on purpose: the reuse bench measures the regime where pool spawn
# rivals the detection itself, which is exactly where reuse pays.
SHORT_POINTS = 1_000
BIG_POINTS = 400_000 if FULL else int(os.environ.get("REPRO_EXEC_POINTS", "150000"))
WINDOW = 100
WORKERS = 2
TASKS = 9  # a burst of tasks over one series
ROUNDS = 5


def bench_executor_pool_reuse(benchmark, report):
    """One long-lived pool vs a fresh pool per detect_batch() call (short series)."""
    batches = [
        [random_walk(SHORT_POINTS, seed=2 * call), random_walk(SHORT_POINTS, seed=2 * call + 1)]
        for call in range(CALLS)
    ]
    detector = EnsembleGrammarDetector(window=WINDOW, ensemble_size=10, seed=0)

    def _reused() -> float:
        with Timer() as timer:
            with ProcessExecutor(WORKERS) as executor:
                for batch in batches:
                    detector.detect_batch(batch, 3, executor=executor)
        return timer.elapsed

    reused_time = benchmark.pedantic(_reused, rounds=1, iterations=1)

    def _per_call_spawn() -> float:
        # The PR-1 shape: every parallel call pays ProcessPoolExecutor
        # spawn/teardown.
        with Timer() as timer:
            for batch in batches:
                with ProcessExecutor(WORKERS) as executor:
                    detector.detect_batch(batch, 3, executor=executor)
        return timer.elapsed

    # Best of two keeps a single scheduler hiccup on a busy CI runner from
    # deciding the comparison either way.
    reused_time = min(reused_time, _reused())
    spawn_time = min(_per_call_spawn(), _per_call_spawn())

    speedup = spawn_time / max(reused_time, 1e-9)
    table = format_table(
        ["Pool strategy", "Time (s)", "Per call (ms)"],
        [
            ["fresh pool per call (PR 1)", f"{spawn_time:.3f}", f"{1e3 * spawn_time / CALLS:.1f}"],
            ["reused ProcessExecutor", f"{reused_time:.3f}", f"{1e3 * reused_time / CALLS:.1f}"],
        ],
        title=(
            f"{CALLS} consecutive two-series detect_batch() calls, "
            f"{SHORT_POINTS:,}-point series, {WORKERS} workers"
        ),
    )
    report(table + f"\nspeedup: {speedup:.2f}x\n" + scale_note(), "executor_reuse.txt")
    write_bench_payload(
        "executor_reuse",
        {
            "calls": CALLS,
            "points": SHORT_POINTS,
            "workers": WORKERS,
            "spawn_s": spawn_time,
            "reused_s": reused_time,
            "speedup": speedup,
        },
        RESULTS_DIR,
    )
    if strict():
        assert speedup >= 1.1, f"expected pool reuse to beat per-call spawn, got {speedup:.2f}x"


def bench_shared_memory_series_passing(benchmark, report):
    """Shared-memory refs vs per-task pickled copies on a >=100k-point series."""
    series = random_walk(BIG_POINTS, seed=1)
    assert BIG_POINTS >= 100_000

    with ProcessExecutor(WORKERS) as executor:
        # Warm the pool so neither side pays the spawn.
        executor.map(touch_task, [np.zeros(1)])

        def _shared() -> float:
            with Timer() as timer:
                for _ in range(ROUNDS):
                    with executor.share_series(series) as handle:
                        executor.map(touch_task, [handle.ref] * TASKS)
            return timer.elapsed

        shared_time = benchmark.pedantic(_shared, rounds=1, iterations=1)

        def _pickled() -> float:
            with Timer() as timer:
                for _ in range(ROUNDS):
                    # The PR-1 way: the full series pickled into every payload.
                    executor.map(touch_task, [series] * TASKS)
            return timer.elapsed

        shared_time = min(shared_time, _shared())
        pickled_time = min(_pickled(), _pickled())

    per_call = TASKS * ROUNDS
    speedup = pickled_time / max(shared_time, 1e-9)
    table = format_table(
        ["Series transfer", "Time (s)", "Per task (ms)"],
        [
            ["pickled per task (PR 1)", f"{pickled_time:.3f}", f"{1e3 * pickled_time / per_call:.2f}"],
            ["shared-memory reference", f"{shared_time:.3f}", f"{1e3 * shared_time / per_call:.2f}"],
        ],
        title=(
            f"{TASKS} tasks x {ROUNDS} rounds over a {BIG_POINTS:,}-point series "
            f"({series.nbytes / 1e6:.1f} MB), {WORKERS} workers"
        ),
    )
    report(table + f"\nspeedup: {speedup:.2f}x\n" + scale_note(), "executor_shm.txt")
    write_bench_payload(
        "executor_shm",
        {
            "tasks": TASKS,
            "rounds": ROUNDS,
            "points": BIG_POINTS,
            "workers": WORKERS,
            "pickled_s": pickled_time,
            "shared_s": shared_time,
            "speedup": speedup,
        },
        RESULTS_DIR,
    )
    if strict():
        assert speedup >= 1.2, f"expected shared memory to beat pickling, got {speedup:.2f}x"
