"""Workload ``batch_corpus``: the paper's protocol over a planted-anomaly corpus.

What runs
    ``EnsembleGrammarDetector(window=instance_length, ensemble_size=50,
    selectivity=0.4).detect(series, k=3)`` serially, in a closed loop (one
    caller, next series only after the previous result), over planted test
    cases from all six UCR-like datasets (``make_corpus``: series of
    1.7k-21.5k points, windows 82-1024).

Inputs
    A fixed pool of :data:`POOL_CASES` cases per dataset, generated from
    :data:`POOL_SEED`, with the top-3 anomalies of every pool case recorded
    in ``golden/batch_corpus.json``. A pass detects every pool case once;
    ``--seed`` sets the order of every pass. The loop runs whole passes until
    ``--seconds`` have passed, so every run does the same work per pass and
    only the order and the number of passes change.

Why this workload
    All the work is in ``sax`` (shared sweep, tokenize/intern), ``grammar``
    (id Sequitur, spans, density) and ``core`` (selection, combination,
    extraction). There is no transport and no streaming state. Series
    length and window vary, so how much of the sweep the 50 members share
    varies too. It is the single-threaded baseline of the detector itself.

Layers it loads and bypasses
    Loads: sax.sweep, sax.tokenize, grammar.feed, grammar.spans,
    grammar.density, core.combine, core.extract.
    Bypasses: engine.state_extend and streaming.* (no stream state),
    service.* and loadgen (no HTTP). A change that only touches those
    should leave every figure here flat.

Mapping rows (layer metric -> end-to-end metric it should move here)
    sax.sweep_ms, sax.tokenize_ms, sax.kept_ratio -> points_per_s
    grammar.feed_ms, grammar.spans_ms, grammar.tokens -> points_per_s
    grammar.density_ms -> points_per_s
    core.combine_ms, core.extract_ms -> detect_p50_ms
    trace.unattributed_ms, trace.overhead_ratio -> (trace validity)

Correctness
    Every detection must equal the golden top-3 (rank, position, length and
    score, bit for bit). ``hit_rate`` is the share of distinct cases whose
    top-1 candidate overlaps the planted anomaly.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    RunResult,
    SpeedProbe,
    anomaly_rows,
    cold_start,
    ms,
    overlaps,
    percentile,
    self_peak_rss_mb,
    timed_setup,
)

POOL_SEED = 20200330
POOL_CASES = 6
ENSEMBLE_SIZE = 50
SELECTIVITY = 0.4
K = 3
GOLDEN = Path(__file__).resolve().parent / "golden" / "batch_corpus.json"


@dataclass
class Case:
    dataset: str
    index: int
    series: np.ndarray
    gt_location: int
    gt_length: int

    @property
    def detector_seed(self) -> int:
        # One fixed sampling seed per pool case, so its golden result holds.
        return POOL_SEED + self.index

    def detect(self):
        from repro import EnsembleGrammarDetector

        detector = EnsembleGrammarDetector(
            window=self.gt_length,
            ensemble_size=ENSEMBLE_SIZE,
            selectivity=SELECTIVITY,
            seed=self.detector_seed,
        )
        return detector.detect(self.series, k=K)

    def hit(self, anomalies) -> bool:
        top = anomalies[0]
        return overlaps(top.position, top.length, self.gt_location, self.gt_length)


def make_pool() -> dict[str, list[Case]]:
    """Every pool case, per dataset, in pool order."""
    from repro.datasets.planting import make_corpus
    from repro.datasets.ucr_like import DATASETS

    pool = {}
    for offset, (name, dataset) in enumerate(DATASETS.items()):
        cases = make_corpus(dataset, n_cases=POOL_CASES, seed=POOL_SEED + offset)
        pool[name] = [
            Case(name, index, case.series, case.gt_location, case.gt_length)
            for index, case in enumerate(cases)
        ]
    return pool


class Plan:
    """The pool plus the seeded order of every pass."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.cases = [case for cases in make_pool().values() for case in cases]
        # Warm-up: one detection, so lazy imports and first-call costs are
        # paid here and not by the first timed series.
        min(self.cases, key=lambda case: len(case.series)).detect()

    def next_pass(self) -> list[Case]:
        return [self.cases[int(i)] for i in self.rng.permutation(len(self.cases))]


def set_up(seed: int) -> Plan:
    """What a fresh process pays before its first timed call."""
    cold_start()
    return Plan(seed)


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def check(result: RunResult, golden: dict, case: Case, rows: list) -> None:
    expected = golden[case.dataset][case.index]
    if rows != expected:
        result.mismatch(f"{case.dataset}[{case.index}]: got {rows}, golden {expected}")


def run(seed: int, seconds: float) -> RunResult:
    result = RunResult("batch_corpus")
    golden = load_golden()
    probe = SpeedProbe()
    setup_s, plan = timed_setup(probe, lambda: set_up(seed))

    spans: list[tuple[float, float]] = []
    points = 0
    hits: dict[tuple[str, int], bool] = {}
    started = time.perf_counter()
    passes = 0
    while time.perf_counter() - started < seconds:
        for case in plan.next_pass():
            result.attempted += 1
            probe.sample()
            begin = time.perf_counter()
            anomalies = case.detect()
            spans.append((begin, time.perf_counter()))
            # A sample on each side of every call: about 200 ms apart, one
            # side alone left the p50 spreading 8% over ten seeds.
            probe.sample()
            points += len(case.series)
            check(result, golden, case, anomaly_rows(anomalies))
            hits[(case.dataset, case.index)] = case.hit(anomalies)
        passes += 1
    wall = time.perf_counter() - started
    latencies = [probe.normalize(begin, end) for begin, end in spans]
    raw = [end - begin for begin, end in spans]

    result.metric("setup_s", setup_s, "s")
    result.metric("success_ratio", result.success_ratio(), "ratio")
    result.metric("points_per_s", points / sum(latencies), "1/s")
    result.metric("hit_rate", sum(hits.values()) / len(hits), "ratio")
    result.metric("detect_p50_ms", ms(percentile(latencies, 50)), "ms")
    result.metric("detect_p90_ms", ms(percentile(latencies, 90)), "ms")
    result.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
    result.note("raw.detect_p50_ms", ms(percentile(raw, 50)), "ms")
    result.note("raw.points_per_s", points / sum(raw), "1/s")
    result.note("series_detected", len(latencies), "count")
    result.note("distinct_series", len(hits), "count")
    result.note("passes", passes, "count")
    result.note("timed_wall_s", wall, "s")
    return result


def run_traced(seed: int, seconds: float, tracer) -> tuple[RunResult, dict]:
    """Every case untraced and traced back to back; per-layer metrics.

    The two runs of a case alternate which goes first, so both see the same
    machine state and warm caches and their time ratio is the overhead.
    """
    from tracing import layer_metrics, traced_layers

    result = RunResult("batch_corpus")
    golden = load_golden()
    probe = SpeedProbe()
    busy = {False: 0.0, True: 0.0}
    for number, case in enumerate(Plan(seed).next_pass()):
        rows = {}
        for traced in (False, True) if number % 2 == 0 else (True, False):
            with traced_layers(tracer) if traced else nullcontext():
                probe.sample()
                begin = time.perf_counter()
                with tracer.operation("batch.detect") if traced else nullcontext():
                    anomalies = case.detect()
                busy[traced] += probe.normalize(begin, time.perf_counter())
            rows[traced] = anomaly_rows(anomalies)
        result.attempted += 1
        check(result, golden, case, rows[False])
        if rows[True] != rows[False]:
            result.mismatch(f"{case.dataset}[{case.index}]: traced output differs")
    metrics = layer_metrics(tracer, probe)
    metrics["trace.overhead_ratio"] = busy[True] / busy[False]
    return result, metrics


def record_golden() -> dict:
    """Top-3 of every pool case (the file :data:`GOLDEN` holds)."""
    pool = make_pool()
    return {
        "pool_seed": POOL_SEED,
        "ensemble_size": ENSEMBLE_SIZE,
        "selectivity": SELECTIVITY,
        "k": K,
        "cases": {
            name: [anomaly_rows(case.detect()) for case in cases] for name, cases in pool.items()
        },
    }
