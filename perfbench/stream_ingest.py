"""Workload ``stream_ingest``: bounded in-process streaming sessions.

What runs
    One ``StreamingEnsembleDetector(window=100)`` session (default ensemble
    size 20, ``capacity=`` :data:`CAPACITY`, ``policy="sliding"``) per pool
    stream, all live at once, in one thread, no HTTP. Each session is fed
    its stream in chunks of 200-400 points; after every
    :data:`APPENDS_PER_POLL` appends it is polled with ``detect(3)``, so
    writes outnumber reads. A round gives every session one such cycle, and
    a generation is :data:`LIFETIME_CYCLES` rounds (about 24k points per
    session, 12 horizons); then every session is replaced by a fresh one.
    The loop runs whole generations until ``--seconds`` have passed, so the
    work per generation, and the memory a run retains, never depend on how
    fast the run was.

Inputs
    :data:`POOL_STREAMS` streams generated from fixed seeds: a periodic
    carrier riding a random walk, plus observation noise, with an anomaly
    (a damped stretch or a frequency change, alternating) planted every
    :data:`ANOMALY_EVERY` points. Chunk sizes come from each stream's own
    generator. ``--seed`` sets the order in which every round visits the
    sessions. ``golden/stream_ingest.json`` holds a digest of every poll of
    every session's life.

Why this workload
    It stresses ``engine.SharedStreamState`` (ring buffer, prefix sums,
    compaction), the ensemble drain (one shared sweep per block), packed
    interning, and sliding incremental forgetting once the horizon is full
    (the span builder is rebuilt over the live tokens after each advance).
    Sliding-only changes show here and not in ``served_mix``, which runs the
    decay policy.

Layers it loads and bypasses
    Loads: engine.state_extend, sax.sweep, sax.tokenize, grammar.feed,
    grammar.spans, grammar.density, streaming.member_curve, core.combine,
    core.extract.
    Bypasses: service.*, loadgen (no HTTP), the decay policy, executors.

Mapping rows (layer metric -> end-to-end metric it should move here)
    sax.sweep_ms, engine.state_extend_ms -> session.append_p50_ms, points_per_s
    sax.tokenize_ms, sax.kept_ratio -> points_per_s
    grammar.feed_ms, grammar.spans_ms, grammar.tokens -> detect_p50_ms (the poll)
    grammar.density_ms -> detect_p50_ms
    streaming.member_curve_ms, streaming.live_tokens -> detect_p50_ms,
        detect_p90_ms, session.bytes
    core.combine_ms, core.extract_ms -> detect_p50_ms
    trace.unattributed_ms, trace.overhead_ratio -> (trace validity)

End-to-end figures
    ``detect_*`` time the poll (``StreamingEnsembleDetector.detect(3)``);
    ``points_per_s`` is appended points over append plus poll time;
    ``hit_rate`` is the share of polls, among those whose live range holds a
    whole planted anomaly, whose top-1 candidate overlaps one.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from common import (
    RunResult,
    SpeedProbe,
    anomaly_rows,
    cold_start,
    digest,
    ms,
    overlaps,
    percentile,
    self_peak_rss_mb,
    timed_setup,
)

POOL_SEED = 6151
POOL_STREAMS = 6
WINDOW = 100
CAPACITY = 2000
APPENDS_PER_POLL = 4
CHUNK_RANGE = (200, 400)
ANOMALY_EVERY = 1000
ANOMALY_LENGTH = 100
PERIOD = 60.0
K = 3
#: Cycles (rounds) one session lives; golden digests cover a whole life.
LIFETIME_CYCLES = 20
GOLDEN = Path(__file__).resolve().parent / "golden" / "stream_ingest.json"


class StreamSource:
    """One deterministic infinite stream, produced chunk by chunk."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.rng = np.random.default_rng(POOL_SEED + index)
        self.position = 0
        self.level = 0.0

    def next_chunk(self) -> np.ndarray:
        size = int(self.rng.integers(CHUNK_RANGE[0], CHUNK_RANGE[1] + 1))
        t = np.arange(self.position, self.position + size)
        walk = self.level + np.cumsum(0.05 * self.rng.standard_normal(size))
        self.level = float(walk[-1])
        noise = 0.05 * self.rng.standard_normal(size)
        phase = t % ANOMALY_EVERY
        block = t // ANOMALY_EVERY
        inside = (phase >= ANOMALY_EVERY // 2) & (phase < ANOMALY_EVERY // 2 + ANOMALY_LENGTH)
        carrier = np.sin(2 * np.pi * t / PERIOD)
        damped = 0.1 * carrier
        shifted = np.sin(2 * np.pi * t / (PERIOD * 0.4))
        anomaly = np.where(block % 2 == 0, damped, shifted)
        chunk = walk + noise + np.where(inside, anomaly, carrier)
        self.position += size
        return chunk

    def planted_within(self, start: int, stop: int) -> list[int]:
        """Starts of planted anomalies lying wholly inside ``[start, stop)``."""
        first = start // ANOMALY_EVERY
        starts = []
        for block in range(first, stop // ANOMALY_EVERY + 1):
            begin = block * ANOMALY_EVERY + ANOMALY_EVERY // 2
            if begin >= start and begin + ANOMALY_LENGTH <= stop:
                starts.append(begin)
        return starts


def make_detector(index: int):
    from repro import StreamingEnsembleDetector

    return StreamingEnsembleDetector(
        window=WINDOW, capacity=CAPACITY, policy="sliding", seed=POOL_SEED + index
    )


class Session:
    """One pool stream fed to one live detector, from the stream's start."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.source = StreamSource(index)
        self.detector = make_detector(index)
        self.cycles = 0
        #: Digest of every poll so far, in order.
        self.life: list[str] = []

    def poll_digest(self, anomalies) -> str:
        detector = self.detector
        return digest([detector.horizon_start, len(detector), anomaly_rows(anomalies)])


class Plan:
    """The live sessions plus the seeded visiting order of every round."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.sessions = self.fresh_sessions()
        # Warm-up on a throwaway detector: first-call costs land here.
        warm = Session(POOL_STREAMS)
        for _ in range(APPENDS_PER_POLL):
            warm.detector.extend(warm.source.next_chunk())
        warm.detector.detect(K)

    @staticmethod
    def fresh_sessions() -> list[Session]:
        return [Session(index) for index in range(POOL_STREAMS)]

    def round(self) -> list[Session]:
        return [self.sessions[int(i)] for i in self.rng.permutation(POOL_STREAMS)]


def set_up(seed: int) -> Plan:
    """What a fresh process pays before its first timed call."""
    cold_start()
    return Plan(seed)


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["polls"]


class Recorder:
    """Per-operation figures of one run of cycles (times speed-normalized)."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.spans: list[tuple[str, float, float]] = []  # (kind, start, end)
        self.points = 0
        self.hits = 0
        self.scored_polls = 0
        self.retired_bytes: list[int] = []
        self.lives: list[tuple[int, list[str]]] = []


def cycle(session: Session, recorder: Recorder, result: RunResult, tracer=None) -> None:
    """``APPENDS_PER_POLL`` appends then one poll on one session."""
    detector = session.detector
    recorder.probe.sample()
    for _ in range(APPENDS_PER_POLL):
        chunk = session.source.next_chunk()
        result.attempted += 1
        begin = time.perf_counter()
        if tracer is None:
            detector.extend(chunk)
        else:
            with tracer.operation("stream.append"):
                detector.extend(chunk)
        recorder.spans.append(("append", begin, time.perf_counter()))
        recorder.points += len(chunk)
    result.attempted += 1
    begin = time.perf_counter()
    if tracer is None:
        anomalies = detector.detect(K)
    else:
        with tracer.operation("stream.poll"):
            anomalies = detector.detect(K)
    recorder.spans.append(("poll", begin, time.perf_counter()))
    if session.cycles == 0:
        recorder.lives.append((session.index, session.life))
    session.cycles += 1
    session.life.append(session.poll_digest(anomalies))
    planted = session.source.planted_within(detector.horizon_start, len(detector))
    if planted:
        recorder.scored_polls += 1
        top = anomalies[0]
        recorder.hits += any(
            overlaps(top.position, top.length, start, ANOMALY_LENGTH) for start in planted
        )


def check(result: RunResult, golden: dict, recorder: Recorder) -> None:
    for index, digests in recorder.lives:
        for number, (got, want) in enumerate(zip(digests, golden[str(index)])):
            if got != want:
                result.mismatch(f"stream {index} poll {number}: digest {got} != golden {want}")
                break


def run_generations(
    plan: Plan, probe: SpeedProbe, seconds: float, result: RunResult, tracer=None, count=None
):
    """Whole generations until ``seconds`` pass (or exactly ``count`` of them)."""
    recorder = Recorder(probe)
    started = time.perf_counter()
    done = 0
    while (time.perf_counter() - started < seconds) if count is None else (done < count):
        if done:
            plan.sessions = plan.fresh_sessions()
        for _ in range(LIFETIME_CYCLES):
            for session in plan.round():
                cycle(session, recorder, result, tracer)
        recorder.retired_bytes += [session.detector.memory_bytes() for session in plan.sessions]
        done += 1
    return recorder, done, time.perf_counter() - started


def durations(recorder: Recorder, kind: str) -> list[float]:
    return [
        recorder.probe.normalize(begin, end)
        for seen, begin, end in recorder.spans
        if seen == kind
    ]


def report_sessions(result: RunResult, recorder: Recorder) -> dict:
    appends, polls = durations(recorder, "append"), durations(recorder, "poll")
    figures = {
        "session.append_p50_ms": ms(percentile(appends, 50)),
        "session.append_p95_ms": ms(percentile(appends, 95)),
        "session.poll_p50_ms": ms(percentile(polls, 50)),
        "session.poll_p95_ms": ms(percentile(polls, 95)),
        "session.bytes": float(np.median(recorder.retired_bytes)),
    }
    for name, value in figures.items():
        result.note(name, value, "bytes" if name == "session.bytes" else "ms")
    return figures


def run(seed: int, seconds: float) -> RunResult:
    result = RunResult("stream_ingest")
    golden = load_golden()
    probe = SpeedProbe()
    setup_s, plan = timed_setup(probe, lambda: set_up(seed))
    recorder, generations, wall = run_generations(plan, probe, seconds, result)
    check(result, golden, recorder)

    appends, polls = durations(recorder, "append"), durations(recorder, "poll")
    raw_busy = sum(end - begin for _, begin, end in recorder.spans)
    result.metric("setup_s", setup_s, "s")
    result.metric("success_ratio", result.success_ratio(), "ratio")
    result.metric("points_per_s", recorder.points / (sum(appends) + sum(polls)), "1/s")
    result.metric("hit_rate", recorder.hits / max(1, recorder.scored_polls), "ratio")
    result.metric("detect_p50_ms", ms(percentile(polls, 50)), "ms")
    result.metric("detect_p90_ms", ms(percentile(polls, 90)), "ms")
    result.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
    report_sessions(result, recorder)
    result.note("raw.points_per_s", recorder.points / raw_busy, "1/s")
    result.note("appends", len(appends), "count")
    result.note("polls", len(polls), "count")
    result.note("generations", generations, "count")
    result.note("timed_wall_s", wall, "s")
    return result


def run_traced(seed: int, seconds: float, tracer) -> tuple[RunResult, dict]:
    """One generation twice, untraced and traced, round by round; per-layer metrics.

    Two identical sets of sessions advance together; each round runs on
    both, alternating which goes first, so both see the same machine state
    and their time ratio is the overhead.
    """
    from tracing import layer_metrics, traced_layers

    result = RunResult("stream_ingest")
    golden = load_golden()
    probe = SpeedProbe()
    plans = {False: Plan(seed), True: Plan(seed)}
    recorders = {False: Recorder(probe), True: Recorder(probe)}
    for number in range(LIFETIME_CYCLES):
        for traced in (False, True) if number % 2 == 0 else (True, False):
            with traced_layers(tracer) if traced else nullcontext():
                for session in plans[traced].round():
                    cycle(session, recorders[traced], result, tracer if traced else None)
    plain, traced = recorders[False], recorders[True]
    plain.retired_bytes = [session.detector.memory_bytes() for session in plans[False].sessions]
    check(result, golden, plain)
    if traced.lives != plain.lives:
        result.mismatch("traced poll results differ from the untraced run")
    metrics = layer_metrics(tracer, probe)

    def busy(recorder: Recorder) -> float:
        return sum(durations(recorder, "append")) + sum(durations(recorder, "poll"))

    metrics["trace.overhead_ratio"] = busy(traced) / busy(plain)
    metrics.update(report_sessions(result, plain))
    return result, metrics


def record_golden() -> dict:
    """Digest of every poll in the life of every pool stream's session."""
    polls = {}
    for index in range(POOL_STREAMS):
        session = Session(index)
        recorder = Recorder(SpeedProbe())
        sink = RunResult("stream_ingest")
        for _ in range(LIFETIME_CYCLES):
            cycle(session, recorder, sink)
        polls[str(index)] = recorder.lives[0][1]
    return {"pool_seed": POOL_SEED, "lifetime_cycles": LIFETIME_CYCLES, "polls": polls}
