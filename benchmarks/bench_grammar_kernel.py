"""Native-speed grammar core: grammar and streaming hot-path bench.

Three measurements, written to ``results/BENCH_grammar_kernel.json`` in the
normalized envelope (machine fingerprint + git SHA, see
``runner/schema.py``):

1. **Grammar stage, per token** — the native ``FastSequitur`` (batched
   ``feed_many`` + fused ``occurrence_spans``) against the reference
   ``SequiturBuilder`` of ``tests/oracles/`` on the same random token
   stream.
2. **Streaming, per point** — end-to-end ``StreamingGrammarDetector``
   ingest + density poll on a 100k-point stream, against the oracle
   pipeline of ``tests/oracles/`` (numpy SAX + word-fed Sequitur over the
   whole stream, whose curve must equal the detector's bitwise) and against
   a reconstruction of the seed's scalar path (per-window ``sax_word`` +
   per-word oracle feed), which is what the refactor replaced. The headline
   gate: the native path is >= 10x the scalar per-point cost.
3. **Poll latency vs stream length** — a capacity-bounded sliding member
   polled while ingesting: steady-state poll latency is O(capacity), so it
   must stay flat (within 20%) between 10k and 100k points ingested.

The hot paths themselves are the matrix runner's registered workloads
(``runner/workloads.py``) — this script adds the seed-path comparison and
the narrative gates, it does not hand-roll its own timing. Timing gates
follow the ``REPRO_BENCH_STRICT`` convention via ``benchlib.strict()``:
measured and reported always, asserted unless ``REPRO_BENCH_STRICT=0``
(shared CI runners are too noisy to merge-block on wall clock).
"""

from __future__ import annotations

import os

import numpy as np

from benchlib import FULL, RESULTS_DIR, scale_note, strict
from oracles import pipeline
from oracles.sequitur import SequiturBuilder
from repro.core.streaming import StreamingGrammarDetector
from repro.datasets.generators import random_walk
from repro.evaluation.tables import format_table
from repro.grammar.density import rule_density_curve
from repro.sax.numerosity import numerosity_reduction
from repro.sax.sax import sax_word
from repro.utils.timing import Timer
from runner.schema import write_bench_payload
from runner.workloads import (
    grammar_stage_once,
    make_token_stream,
    poll_latency_curve,
    stream_per_point_once,
)

POINTS = 300_000 if FULL else int(os.environ.get("REPRO_KERNEL_BENCH_POINTS", "100000"))
#: The scalar reconstruction is ~2 orders slower per point; a slice of the
#: stream is enough to pin its per-point cost.
LEGACY_POINTS = min(POINTS, 10_000)
N_TOKENS = 500_000 if FULL else int(os.environ.get("REPRO_KERNEL_BENCH_TOKENS", "200000"))
ALPHABET = 40
WINDOW = 100
PAA_SIZE = 4
ALPHA_SIZE = 4
CAPACITY = 5_000
SEED = 0


def _oracle_grammar_stage() -> tuple[float, tuple]:
    """The reference builder fed the word spelling of the timed id stream."""
    _, words = make_token_stream(N_TOKENS, ALPHABET, SEED)
    builder = SequiturBuilder()
    with Timer() as timer:
        feed = builder.feed
        for word in words:
            feed(word)
        spans = builder.freeze().occurrence_spans()
    return timer.elapsed, spans


def _grammar_stage() -> dict:
    """Oracle vs native builder on one stream, with the large-scale parity check."""
    oracle_s, spans_oracle = _oracle_grammar_stage()
    fast_s, spans_fast = grammar_stage_once(N_TOKENS, ALPHABET, SEED)

    # The bench doubles as a large-scale parity check: identical span
    # multisets from both builders.
    assert np.array_equal(np.sort(spans_oracle[0]), np.sort(spans_fast[0]))
    assert np.array_equal(np.sort(spans_oracle[1]), np.sort(spans_fast[1]))

    return {
        "tokens": N_TOKENS,
        "alphabet": ALPHABET,
        "oracle_us_per_token": oracle_s / N_TOKENS * 1e6,
        "fast_us_per_token": fast_s / N_TOKENS * 1e6,
        "speedup": oracle_s / max(fast_s, 1e-9),
    }


def _legacy_per_point(series: np.ndarray) -> float:
    """The seed's path: one scalar ``sax_word`` per window, oracle feed.

    This is what the detector did per point before the vectorized tokenizer
    and the id kernel: znorm/PAA/symbol lookup on each window in Python,
    numerosity by string compare, one ``feed`` call per kept word.
    """
    with Timer() as timer:
        words = [
            sax_word(series[p : p + WINDOW], PAA_SIZE, ALPHA_SIZE)
            for p in range(len(series) - WINDOW + 1)
        ]
        kept = numerosity_reduction(words, WINDOW)
        builder = SequiturBuilder()
        for word in kept.words:
            builder.feed(word)
        rule_density_curve(builder.freeze(), kept, len(series))
    return timer.elapsed / len(series)


def _oracle_per_point(series: np.ndarray) -> float:
    """The oracle pipeline's one poll over the whole stream, per point.

    Also the bench's streaming parity check: its curve must equal, bit for
    bit, the native detector's after a chunked ingest of the same stream.
    """
    with Timer() as timer:
        expected = pipeline.stream_member_curve(series, WINDOW, PAA_SIZE, ALPHA_SIZE)
    detector = StreamingGrammarDetector(
        window=WINDOW, paa_size=PAA_SIZE, alphabet_size=ALPHA_SIZE
    )
    for offset in range(0, len(series), 10_000):
        detector.extend(series[offset : offset + 10_000])
    assert detector.density_curve().tobytes() == expected.tobytes()
    return timer.elapsed / len(series)


def bench_grammar_kernel(benchmark, report):
    series = random_walk(POINTS, seed=SEED)

    grammar_stage = _grammar_stage()

    fast_per_point = benchmark.pedantic(
        lambda: stream_per_point_once(POINTS, WINDOW, PAA_SIZE, ALPHA_SIZE, SEED),
        rounds=1,
        iterations=1,
    )
    oracle_per_point = _oracle_per_point(series)
    legacy_per_point = _legacy_per_point(series[:LEGACY_POINTS])

    checkpoints = [c for c in (10_000, 25_000, 50_000, 100_000) if c <= POINTS]
    latency_curve = poll_latency_curve(
        series, checkpoints, CAPACITY, WINDOW, PAA_SIZE, ALPHA_SIZE
    )

    legacy_speedup = legacy_per_point / max(fast_per_point, 1e-12)
    oracle_speedup = oracle_per_point / max(fast_per_point, 1e-12)

    table = format_table(
        ["Path", "Scope", "Per point / token", "vs fast"],
        [
            [
                "scalar seed path",
                f"{LEGACY_POINTS:,} pts",
                f"{legacy_per_point * 1e6:.2f} us/pt",
                f"{legacy_speedup:.1f}x slower",
            ],
            [
                "oracle pipeline",
                f"{POINTS:,} pts",
                f"{oracle_per_point * 1e6:.2f} us/pt",
                f"{oracle_speedup:.1f}x slower",
            ],
            [
                "native detector",
                f"{POINTS:,} pts",
                f"{fast_per_point * 1e6:.2f} us/pt",
                "1.0x",
            ],
            [
                "grammar stage: oracle",
                f"{N_TOKENS:,} tok",
                f"{grammar_stage['oracle_us_per_token']:.2f} us/tok",
                f"{grammar_stage['speedup']:.1f}x slower",
            ],
            [
                "grammar stage: fast",
                f"{N_TOKENS:,} tok",
                f"{grammar_stage['fast_us_per_token']:.2f} us/tok",
                "1.0x",
            ],
        ],
        title=f"Grammar hot path (window {WINDOW}, w={PAA_SIZE}, a={ALPHA_SIZE})",
    )
    latency_lines = [
        f"sliding poll @ {row['points_ingested']:,} pts ingested "
        f"(cap {CAPACITY:,}, {row['live_tokens']:,} live tokens): "
        f"{row['poll_ms_median']:.2f} ms"
        for row in latency_curve
    ]
    report(table + "\n" + "\n".join(latency_lines) + "\n" + scale_note(), "grammar_kernel.txt")

    write_bench_payload(
        "grammar_kernel",
        {
            "points": POINTS,
            "window": WINDOW,
            "paa_size": PAA_SIZE,
            "alphabet_size": ALPHA_SIZE,
            "capacity": CAPACITY,
            "strict": strict(),
            "grammar_stage": grammar_stage,
            "streaming_per_point_us": {
                "legacy_scalar": legacy_per_point * 1e6,
                "oracle_pipeline": oracle_per_point * 1e6,
                "fast_kernel": fast_per_point * 1e6,
                "legacy_over_fast": legacy_speedup,
                "oracle_over_fast": oracle_speedup,
            },
            "sliding_poll_latency": latency_curve,
        },
        RESULTS_DIR,
    )

    # Always asserted: the native builder must actually beat the oracle on
    # the grammar stage (a generous floor; locally it is ~2.5-3x).
    assert grammar_stage["speedup"] > 1.2, (
        f"native builder is not faster than the oracle ({grammar_stage['speedup']:.2f}x)"
    )

    if strict():
        # The headline: the refactored per-point cost vs the scalar seed
        # path it replaced.
        assert legacy_speedup >= 10.0, (
            f"expected >= 10x per-point streaming speedup over the scalar "
            f"path, got {legacy_speedup:.1f}x"
        )
        # Flat poll latency: capacity-bounded polls must not grow with the
        # stream. Compare the first checkpoint (10k ingested) to the last.
        first, last = latency_curve[0], latency_curve[-1]
        ratio = last["poll_ms_median"] / max(first["poll_ms_median"], 1e-9)
        assert ratio <= 1.20, (
            f"sliding poll latency grew {ratio:.2f}x between "
            f"{first['points_ingested']:,} and {last['points_ingested']:,} "
            "points ingested — not flat in stream length"
        )
