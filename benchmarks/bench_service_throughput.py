"""Serving bench: micro-batched throughput vs batch-size-1 on the same pool.

The serving subsystem's pitch is consolidation: many concurrent callers on
one executor pool, coalesced into shared ``detect_batch`` calls. This bench
measures exactly that claim at 32 concurrent clients:

1. **batch-size-1 serving** — the same :class:`~repro.service.core.DetectService`
   with ``max_batch_size=1``: every request is its own engine call (the
   pre-serving behaviour, one request at a time).
2. **micro-batched serving** — ``max_batch_size=32``: the requests that
   queued while the previous batch ran ride one ``detect_batch`` call,
   with per-request seeds (results stay bitwise identical — the parity
   suite is the proof) and chunked worker tasks.
3. **micro-batched + result cache** — the same requests repeated, answered
   from the LRU by series digest.

Small requests on purpose (48-point series, 9 single-member w-groups):
this is the serving regime where per-request dispatch overhead rivals the
detection itself, which is precisely what micro-batching amortizes — the
same framing as ``bench_executor_reuse``'s short-series pool-reuse case.
On multi-core machines the coalesced batch additionally packs the pool
better than per-request member fan-out can.

By default the measured speedup must be >= 2x (the PR's acceptance bar);
REPRO_BENCH_STRICT=0 reports without asserting (what CI does — a shared
runner's wall clock is too noisy to gate merges on). Scale knobs:
REPRO_SVC_CLIENTS (default 32), REPRO_SVC_ROUNDS (best-of, default 3),
REPRO_SVC_WORKERS (pool size, default 1).

Results land in ``results/BENCH_service_throughput.json`` so CI can track
the serving trajectory per PR alongside the other bench artifacts.
"""

from __future__ import annotations

import os

from benchlib import RESULTS_DIR, strict
from repro.evaluation.tables import format_table
from runner.schema import write_bench_payload
from runner.workloads import service_best_rps

CLIENTS = int(os.environ.get("REPRO_SVC_CLIENTS", "32"))
ROUNDS = int(os.environ.get("REPRO_SVC_ROUNDS", "3"))
WORKERS = int(os.environ.get("REPRO_SVC_WORKERS", "1"))
#: The acceptance bar: micro-batching must at least double throughput.
REQUIRED_SPEEDUP = 2.0

#: Small requests on purpose — see the module docstring. Nine distinct PAA
#: sizes means batch-size-1 serving ships nine single-member group tasks
#: through the pool per request; the micro-batched path ships chunked
#: whole-series tasks instead (the detector config lives in
#: ``runner.workloads.service_best_rps``, shared with the matrix cell).
SERIES_POINTS = 48


def bench_service_micro_batching_throughput(report):
    """Micro-batched vs batch-size-1 serving at CLIENTS concurrent callers."""
    baseline_rps, baseline_stats = service_best_rps(
        clients=CLIENTS,
        workers=WORKERS,
        rounds=ROUNDS,
        max_batch_size=1,
        series_points=SERIES_POINTS,
    )
    micro_rps, micro_stats = service_best_rps(
        clients=CLIENTS, workers=WORKERS, rounds=ROUNDS, series_points=SERIES_POINTS
    )
    cached_rps, _ = service_best_rps(
        clients=CLIENTS,
        workers=WORKERS,
        rounds=ROUNDS,
        cache_entries=4 * CLIENTS,
        repeat_requests=True,
        series_points=SERIES_POINTS,
    )
    speedup = micro_rps / baseline_rps
    cache_speedup = cached_rps / baseline_rps

    rows = [
        [
            "batch-size-1",
            f"{baseline_rps:.0f}",
            f"{baseline_stats['mean_batch_size']:.1f}",
            "1.00x",
        ],
        [
            "micro-batched",
            f"{micro_rps:.0f}",
            f"{micro_stats['mean_batch_size']:.1f}",
            f"{speedup:.2f}x",
        ],
        ["micro + cache", f"{cached_rps:.0f}", "-", f"{cache_speedup:.2f}x"],
    ]
    text = format_table(
        ["serving mode", "req/s", "mean batch", "speedup"],
        rows,
        title=(
            f"Service throughput: {CLIENTS} concurrent clients, "
            f"{SERIES_POINTS}-point requests, process pool x{WORKERS} "
            f"(best of {ROUNDS})"
        ),
    )
    report(text, "bench_service_throughput.txt")

    write_bench_payload(
        "service_throughput",
        {
            "clients": CLIENTS,
            "rounds": ROUNDS,
            "workers": WORKERS,
            "series_points": SERIES_POINTS,
            "baseline_rps": baseline_rps,
            "micro_batched_rps": micro_rps,
            "cached_rps": cached_rps,
            "speedup": speedup,
            "cache_speedup": cache_speedup,
            "baseline_mean_batch": baseline_stats["mean_batch_size"],
            "micro_mean_batch": micro_stats["mean_batch_size"],
            "required_speedup": REQUIRED_SPEEDUP,
            "strict": strict(),
        },
        RESULTS_DIR,
    )

    # Coalescing must actually have happened for the comparison to mean
    # anything — asserted unconditionally.
    assert micro_stats["mean_batch_size"] > 2.0, micro_stats
    assert baseline_stats["mean_batch_size"] == 1.0, baseline_stats
    if strict():
        assert speedup >= REQUIRED_SPEEDUP, (
            f"micro-batching speedup {speedup:.2f}x below the {REQUIRED_SPEEDUP}x bar "
            f"(baseline {baseline_rps:.0f} req/s, micro {micro_rps:.0f} req/s)"
        )
        assert cache_speedup >= REQUIRED_SPEEDUP, (
            f"cached serving speedup {cache_speedup:.2f}x below the bar"
        )
