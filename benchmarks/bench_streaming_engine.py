"""Streaming engine throughput: shared-state vectorized ingest vs the seed
per-point loop.

The engine PR replaced the original streaming design — N private copies of
the stream, each point pushed through a per-member Python loop with a
per-window list comprehension — by one :class:`SharedStreamState` plus a
vectorized ``extend()`` that computes all newly completed windows' PAA rows
and SAX symbols in one numpy pass per distinct PAA size. This bench keeps a
verbatim replica of the seed per-point member and measures both paths on
the same 20-member ensemble workload.

Acceptance claim: the vectorized ingest is at least 5x faster. Default
scale is 20k points (REPRO_STREAM_POINTS to override); REPRO_FULL=1 runs
the acceptance-scale 100k-point stream.
"""

from __future__ import annotations

import os

import numpy as np

from benchlib import FULL, RESULTS_DIR, scale_note
from oracles.sequitur import SequiturBuilder
from repro.evaluation.tables import format_table
from repro.sax.alphabet import indices_to_word
from repro.sax.breakpoints import gaussian_breakpoints
from repro.sax.znorm import constancy_cutoff
from repro.utils.timing import Timer
from runner.schema import write_bench_payload
from runner.workloads import cached_series, ensemble_ingest_once

POINTS = 100_000 if FULL else int(os.environ.get("REPRO_STREAM_POINTS", "20000"))
WINDOW = 100
MEMBERS = 20
SEED = 0


class _PointwiseMember:
    """Verbatim replica of the seed streaming member (pre-engine).

    Keeps a private copy of the stream (values + prefix sums as Python
    lists) and computes each completed window's SAX word with a per-window
    list comprehension — the O(N·w)-per-point baseline the engine replaced.
    """

    def __init__(self, window: int, paa_size: int, alphabet_size: int) -> None:
        self.window = window
        self.paa_size = paa_size
        self._breakpoints = gaussian_breakpoints(alphabet_size)
        self._values: list[float] = []
        self._prefix: list[float] = [0.0]
        self._prefix_sq: list[float] = [0.0]
        self._last_word: str | None = None
        self._kept_words: list[str] = []
        self._builder = SequiturBuilder()

    def append(self, value: float) -> None:
        self._values.append(value)
        self._prefix.append(self._prefix[-1] + value)
        self._prefix_sq.append(self._prefix_sq[-1] + value * value)
        if len(self._values) < self.window:
            return
        word = self._window_word(len(self._values) - self.window)
        if word != self._last_word:
            self._kept_words.append(word)
            self._last_word = word
            self._builder.feed(word)

    def _window_word(self, start: int) -> str:
        n = self.window
        stop = start + n
        total = self._prefix[stop] - self._prefix[start]
        total_sq = self._prefix_sq[stop] - self._prefix_sq[start]
        mean = total / n
        variance = max((total_sq - total * total / n) / (n - 1), 0.0)
        std = float(np.sqrt(variance))
        boundaries = np.arange(self.paa_size + 1) * (n / self.paa_size) + start
        floor = np.floor(boundaries).astype(np.int64)
        frac = boundaries - floor
        values = self._values
        prefix = self._prefix
        cumulative = np.array(
            [
                prefix[int(k)] + f * (values[int(k)] if int(k) < len(values) else 0.0)
                for k, f in zip(floor, frac)
            ]
        )
        coefficients = np.diff(cumulative) / (n / self.paa_size)
        if std < constancy_cutoff(mean):
            coefficients = np.zeros(self.paa_size)
        else:
            coefficients = (coefficients - mean) / std
        indices = np.searchsorted(self._breakpoints, coefficients, side="right")
        return indices_to_word(indices)


def bench_streaming_engine_vectorized_vs_pointwise(benchmark, report):
    series = cached_series(POINTS, SEED)

    state: dict = {}

    def _vectorized() -> float:
        # The measured path is the matrix's ``ensemble_ingest`` workload —
        # one shared code path for `repro bench` and this narrative table.
        elapsed, detector = ensemble_ingest_once(POINTS, MEMBERS, WINDOW, SEED)
        state["detector"] = detector
        return elapsed

    vectorized_time = benchmark.pedantic(_vectorized, rounds=1, iterations=1)
    fresh = state["detector"]

    reference = [_PointwiseMember(WINDOW, w, a) for w, a in fresh.parameters]
    with Timer() as pointwise_timer:
        for value in series:
            value = float(value)
            for member in reference:
                member.append(value)
    pointwise_time = pointwise_timer.elapsed

    # Sanity: the two paths must agree token-for-token. The engine members
    # intern their tokens, so compare through the public snapshot rather
    # than reaching for the replica's private word list.
    for new_member, old_member in zip(fresh.members, reference):
        assert list(new_member.tokens().words) == old_member._kept_words

    speedup = pointwise_time / max(vectorized_time, 1e-9)
    rate_vec = POINTS / max(vectorized_time, 1e-9)
    rate_loop = POINTS / max(pointwise_time, 1e-9)
    table = format_table(
        ["Ingest path", "Time (s)", "Points/s"],
        [
            ["seed per-point loop", f"{pointwise_time:.3f}", f"{rate_loop:,.0f}"],
            ["shared-state vectorized", f"{vectorized_time:.3f}", f"{rate_vec:,.0f}"],
        ],
        title=(
            f"Streaming ingest of a {POINTS:,}-point stream into a "
            f"{MEMBERS}-member ensemble (window {WINDOW})"
        ),
    )
    report(table + f"\nspeedup: {speedup:.1f}x\n" + scale_note(), "streaming_engine.txt")

    write_bench_payload(
        "streaming_engine",
        {
            "points": POINTS,
            "members": MEMBERS,
            "window": WINDOW,
            "pointwise_s": pointwise_time,
            "vectorized_s": vectorized_time,
            "speedup": speedup,
        },
        RESULTS_DIR,
    )

    assert speedup >= 5.0, f"expected >=5x over the per-point loop, got {speedup:.2f}x"
