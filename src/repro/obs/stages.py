"""Low-overhead pipeline stage timing: the ``--profile`` successor.

``stage_timer(stage)`` wraps the five pipeline stages — ``paa``
(znorm + PAA matrix formation), ``discretize`` (breakpoint search),
``grammar`` (Sequitur feed), ``density`` (rule-density curves),
``combine`` (selection/normalization/combination) — inside
:mod:`repro.core.engine` and :mod:`repro.core.streaming`. Each completed
timing is recorded into the process histogram
``repro_stage_seconds{stage=...}`` (scraped via ``/v1/metrics``) and into
every active :func:`capture` accumulator (the opt-in ``timings`` block on
detect responses).

Time measured where no timer can run — inside one native call (the
phase counters of :func:`repro.grammar._kernel.member_curve` for a batch
member, of :func:`repro.grammar._kernel.poll_logs` for streaming polls)
or on a fan-out thread — is charged on the calling thread with
:func:`merge`, one observation per member, so it lands in the same
histogram and captures as a timer's.

Overhead discipline: the timers fire once per *drain block / member
curve*, never per point, and when telemetry is disabled
(``REPRO_TELEMETRY=0`` or :func:`set_stage_timing`\\ ``(False)``)
``stage_timer`` returns a shared no-op context manager — one function
call and one attribute check on the hot path. The bench guard
(``benchmarks/bench_obs_overhead.py``) asserts the enabled streaming
per-point path stays within 2% of the disabled one.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from repro.obs.metrics import REGISTRY, STAGE_BUCKETS

__all__ = [
    "STAGES",
    "capture",
    "merge",
    "set_stage_timing",
    "stage_timer",
    "stage_timing_enabled",
]

#: The instrumented pipeline stages, in pipeline order.
STAGES = ("paa", "discretize", "grammar", "density", "combine")

_enabled = os.environ.get("REPRO_TELEMETRY", "1").strip().lower() not in (
    "0", "false", "off", "no",
)

_histogram = REGISTRY.histogram(
    "repro_stage_seconds",
    "Pipeline stage durations (one observation per drain block / member curve)",
    labelnames=("stage",),
    buckets=STAGE_BUCKETS,
)
_children = {stage: _histogram.labels(stage) for stage in STAGES}

_local = threading.local()


def stage_timing_enabled() -> bool:
    """Whether stage timers currently record anything."""
    return _enabled


def set_stage_timing(enabled: bool) -> bool:
    """Flip stage timing at runtime; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def _observe(stage: str, elapsed: float) -> None:
    child = _children.get(stage)
    if child is None:
        child = _children[stage] = _histogram.labels(stage)
    child.observe(elapsed)
    for accumulator in getattr(_local, "captures", ()):
        accumulator[stage] = accumulator.get(stage, 0.0) + elapsed


class _Timer:
    """One enabled timing scope (class-based: no generator overhead)."""

    __slots__ = ("stage", "started")

    def __init__(self, stage: str) -> None:
        self.stage = stage

    def __enter__(self) -> "_Timer":
        self.started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        _observe(self.stage, perf_counter() - self.started)


class _Noop:
    __slots__ = ()

    def __enter__(self) -> "_Noop":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _Noop()


def stage_timer(stage: str) -> object:
    """A context manager timing ``stage`` (no-op when timing is off)."""
    if not _enabled:
        return _NOOP
    return _Timer(stage)


def merge(times: dict[str, float]) -> None:
    """Charge ``{stage: seconds}`` measured elsewhere to this thread.

    Each entry is one observation, recorded exactly as a closing
    :func:`stage_timer` would record it: into the histogram and every
    capture active on the *calling* thread. Pool tasks measure their own
    time and hand it back; the thread that waits for them merges it, so no
    thread ever writes another thread's accumulators. A no-op when timing
    is off.
    """
    if _enabled:
        for stage, elapsed in times.items():
            _observe(stage, elapsed)


@contextmanager
def capture() -> Iterator[dict[str, float]]:
    """Accumulate this thread's stage durations for the ``with`` block.

    Yields a dict that fills with ``{stage: seconds}`` as timers close;
    nested captures each see every observation. A detect whose members fan
    out across the process-wide thread pool is covered too: each task
    measures its own stages and the calling thread charges them here with
    :func:`merge` once the fan-out completes. Those merged times are
    thread-seconds, so under a fan-out the stages may add up to more than
    the wall time, by up to the number of threads. Empty when telemetry is
    disabled or the executed path runs its stages in another process
    (a process executor records in the worker, not here).
    """
    accumulator: dict[str, float] = {}
    stack = getattr(_local, "captures", None)
    if stack is None:
        stack = _local.captures = []
    stack.append(accumulator)
    try:
        yield accumulator
    finally:
        stack.remove(accumulator)
