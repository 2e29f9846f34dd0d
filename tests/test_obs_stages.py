"""Stage timing: capture semantics, runtime toggle, and bitwise parity.

The load-bearing contract is the last section: running the batch and
streaming detectors with stage timing on versus off produces bitwise
identical results — the timers wrap computations, they never alter one.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector
from repro.obs import stages
from repro.obs.stages import STAGES, capture, set_stage_timing, stage_timer, stage_timing_enabled

CONFIG = dict(window=50, ensemble_size=5, max_paa_size=5, max_alphabet_size=5)


@pytest.fixture()
def timing_on():
    previous = set_stage_timing(True)
    yield
    set_stage_timing(previous)


def make_series(seed: int = 0, n: int = 600) -> np.ndarray:
    rng = np.random.default_rng(seed)
    series = np.sin(np.linspace(0.0, 12.0 * np.pi, n)) + 0.05 * rng.standard_normal(n)
    series[n // 2 : n // 2 + 40] *= 0.2
    return series


# ----------------------------------------------------------------------
# Timer and capture mechanics.
# ----------------------------------------------------------------------


def test_capture_accumulates_per_stage(timing_on):
    with capture() as timings:
        with stage_timer("grammar"):
            pass
        with stage_timer("grammar"):
            pass
        with stage_timer("density"):
            pass
    assert set(timings) == {"grammar", "density"}
    assert timings["grammar"] >= 0.0


def test_nested_captures_both_see_observations(timing_on):
    with capture() as outer:
        with stage_timer("paa"):
            pass
        with capture() as inner:
            with stage_timer("combine"):
                pass
    assert set(outer) == {"paa", "combine"}
    assert set(inner) == {"combine"}


def test_disabled_timers_record_nothing():
    previous = set_stage_timing(False)
    try:
        assert not stage_timing_enabled()
        with capture() as timings:
            with stage_timer("grammar"):
                pass
        assert timings == {}
    finally:
        set_stage_timing(previous)


def test_set_stage_timing_returns_previous():
    first = set_stage_timing(False)
    try:
        assert set_stage_timing(True) is False
        assert set_stage_timing(first) is True
    finally:
        set_stage_timing(first)


def test_detect_fills_all_five_stages(timing_on):
    series = make_series()
    with capture() as timings:
        EnsembleGrammarDetector(**CONFIG, seed=1).detect(series, 2)
    assert set(timings) == set(STAGES)  # shared sweep times paa + discretize
    with capture() as timings:
        detector = StreamingEnsembleDetector(**CONFIG, seed=1)
        detector.extend(series)
        detector.detect(2)
    assert set(timings) == set(STAGES)


def test_member_threads_report_the_same_stages(timing_on):
    """Members fanned out across threads measure their own stages; the
    calling thread merges them, so ``capture()`` sees all five under
    ``n_jobs=2`` exactly as under the serial path, none of them empty."""
    series = make_series(n=3000)
    seen = {}
    for n_jobs in (1, 2):
        with capture() as timings:
            EnsembleGrammarDetector(**CONFIG, seed=1, n_jobs=n_jobs).detect(series, 2)
        seen[n_jobs] = timings
        assert set(timings) == set(STAGES)
        assert all(value > 0.0 for value in timings.values())
    assert set(seen[1]) == set(seen[2])


def test_merge_charges_the_calling_thread(timing_on):
    with capture() as timings:
        stages.merge({"grammar": 0.25, "density": 0.5})
        stages.merge({"grammar": 0.25})
    assert timings == {"grammar": 0.5, "density": 0.5}
    previous = set_stage_timing(False)
    try:
        with capture() as timings:
            stages.merge({"grammar": 1.0})
        assert timings == {}
    finally:
        set_stage_timing(previous)


def test_first_unbounded_poll_stages_do_not_overlap(timing_on):
    """The first poll of an unbounded member runs the deferred grammar feed;
    it must be charged to ``grammar`` only, not to ``density`` as well, so
    the two stages together fit inside the poll's wall time."""
    rng = np.random.default_rng(11)
    member = StreamingGrammarDetector(window=50, paa_size=5, alphabet_size=5)
    member.extend(np.cumsum(rng.standard_normal(20_000)))
    with capture() as timings:
        started = perf_counter()
        member.density_curve()
        wall = perf_counter() - started
    assert timings["grammar"] > 0.0 and timings["density"] > 0.0
    assert timings["grammar"] + timings["density"] <= wall


def test_sliding_poll_charges_reinduction_to_grammar(timing_on):
    """A sliding poll after the horizon advanced rebuilds the span builder
    over the live tokens; that feed is ``grammar`` time, timed before the
    ``density`` timer opens, so the two stages fit inside the poll."""
    detector = StreamingEnsembleDetector(**CONFIG, capacity=300, seed=2)
    detector.extend(make_series(seed=4, n=1_500))
    assert all(member.retired_tokens > 0 for member in detector.members)
    with capture() as timings:
        started = perf_counter()
        detector.density_curve()
        wall = perf_counter() - started
    assert timings.get("grammar", 0.0) > 0.0 and timings["density"] > 0.0
    assert timings["grammar"] + timings["density"] <= wall


@pytest.mark.parametrize(
    "bounds, feeds_grammar",
    [({}, False), ({"capacity": 300}, False), ({"capacity": 300, "policy": "decay"}, True)],
    ids=["unbounded", "sliding", "decay"],
)
def test_ingest_times_grammar_only_where_it_feeds_one(timing_on, bounds, feeds_grammar):
    """Symbol lookup, numerosity reduction and interning are ``discretize``
    time; only the decay generations feed a grammar during ``extend``."""
    detector = StreamingEnsembleDetector(**CONFIG, **bounds, seed=2)
    with capture() as timings:
        detector.extend(make_series(seed=4, n=1_500))
    assert timings["discretize"] > 0.0
    assert ("grammar" in timings) is feeds_grammar
    if feeds_grammar:
        assert timings["grammar"] > 0.0


def test_observations_land_in_the_shared_histogram(timing_on):
    child = stages._children["density"]
    _, _, before = child.snapshot()
    with stage_timer("density"):
        pass
    _, _, after = child.snapshot()
    assert after == before + 1


# ----------------------------------------------------------------------
# Bitwise parity: telemetry must never change a result.
# ----------------------------------------------------------------------


def _run_batch(series: np.ndarray):
    detector = EnsembleGrammarDetector(**CONFIG, seed=3)
    return detector.detect(series, 3), detector.density_curve(series)


def _run_streaming(series: np.ndarray):
    detector = StreamingEnsembleDetector(**CONFIG, seed=3)
    for offset in range(0, len(series), 150):
        detector.extend(series[offset : offset + 150])
    return detector.detect(3), detector.density_curve()


def _run_streaming_member(series: np.ndarray):
    detector = StreamingGrammarDetector(window=50, paa_size=4, alphabet_size=4)
    detector.extend(series)
    return detector.density_curve()


@pytest.mark.parametrize(
    "run", [_run_batch, _run_streaming, _run_streaming_member],
    ids=["batch", "streaming-ensemble", "streaming-member"],
)
def test_timing_on_off_bitwise_parity(run):
    series = make_series(seed=7)
    previous = set_stage_timing(True)
    try:
        with_timing = run(series)
        set_stage_timing(False)
        without_timing = run(series)
    finally:
        set_stage_timing(previous)
    flat_on = with_timing if isinstance(with_timing, tuple) else (with_timing,)
    flat_off = without_timing if isinstance(without_timing, tuple) else (without_timing,)
    for on, off in zip(flat_on, flat_off):
        if isinstance(on, np.ndarray):
            assert np.array_equal(on, off)
        else:
            assert on == off
