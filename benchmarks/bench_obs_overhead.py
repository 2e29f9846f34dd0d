"""Telemetry overhead on the streaming hot path: stage timers on vs off.

The observability PR wrapped the streaming drain's block-level work (PAA,
discretization, grammar feed) and the density poll in
:func:`repro.obs.stages.stage_timer`. The timers fire once per drain
*block* and per poll — never per point — so the per-point cost must be in
the noise. This bench measures the matrix's ``streaming_points`` workload
(chunked ``extend`` + one density poll) with stage timing enabled and
disabled under the warmup+repeats protocol and gates the ratio.

Acceptance claim: stage timing adds < 2% to the streaming per-point cost.
Results are bitwise identical either way (asserted unconditionally); the
wall-clock gate follows the ``REPRO_BENCH_STRICT`` convention. Default
scale is 20k points (REPRO_STREAM_POINTS to override); REPRO_FULL=1 runs
100k points.
"""

from __future__ import annotations

import os

import numpy as np

from benchlib import FULL, RESULTS_DIR, scale_note, strict
from repro.core.streaming import StreamingGrammarDetector
from repro.evaluation.tables import format_table
from repro.obs.stages import set_stage_timing
from repro.utils.timing import collect
from runner.schema import write_bench_payload
from runner.workloads import cached_series, stream_per_point_once

POINTS = 100_000 if FULL else int(os.environ.get("REPRO_STREAM_POINTS", "20000"))
WINDOW = 100
SEED = 0
#: Acceptance bound: timers-on may cost at most this ratio of timers-off.
MAX_RATIO = 1.02


def _per_point(enabled: bool) -> dict[str, float]:
    previous = set_stage_timing(enabled)
    try:
        elapsed = stream_per_point_once(POINTS, window=WINDOW, seed=SEED)
    finally:
        set_stage_timing(previous)
    return {"s_per_point": elapsed}


def bench_obs_overhead_streaming(report):
    series = cached_series(POINTS, SEED)

    # Parity first, and unconditionally: the timers wrap computations, they
    # must never change one. Same seed, same chunks, curves compared bitwise.
    curves = {}
    for enabled in (False, True):
        previous = set_stage_timing(enabled)
        try:
            detector = StreamingGrammarDetector(window=WINDOW, paa_size=4, alphabet_size=4)
            detector.extend(series)
            curves[enabled] = detector.density_curve()
        finally:
            set_stage_timing(previous)
    assert np.array_equal(curves[False], curves[True]), (
        "stage timing changed the density curve"
    )

    off = collect(lambda: _per_point(False), warmup=1, repeats=5)["s_per_point"].median
    on = collect(lambda: _per_point(True), warmup=1, repeats=5)["s_per_point"].median
    ratio = on / max(off, 1e-12)

    table = format_table(
        ["Stage timing", "us/point (median)"],
        [
            ["off", f"{off * 1e6:.3f}"],
            ["on", f"{on * 1e6:.3f}"],
        ],
        title=(
            f"Telemetry overhead on a {POINTS:,}-point stream "
            f"(window {WINDOW})"
        ),
    )
    report(
        table + f"\noverhead: {(ratio - 1) * 100:+.2f}% (bound +2%)\n" + scale_note(),
        "obs_overhead.txt",
    )

    write_bench_payload(
        "obs_overhead",
        {
            "points": POINTS,
            "window": WINDOW,
            "off_us_per_point": off * 1e6,
            "on_us_per_point": on * 1e6,
            "ratio": ratio,
        },
        RESULTS_DIR,
    )

    if strict():
        assert ratio < MAX_RATIO, (
            f"stage timing costs {(ratio - 1) * 100:.2f}% per point "
            f"(bound {(MAX_RATIO - 1) * 100:.0f}%)"
        )
