"""The measured hot paths, registered once, shared by matrix and benches.

Each public ``*_once`` function performs **one repeat** of a measurement
and returns raw results (elapsed seconds plus whatever a narrative bench
needs for its parity checks); the registered matrix wrappers normalize one
repeat into a ``{metric_name: value}`` dict. The runner core then applies
the warmup + N-repeats + median/IQR protocol from
:mod:`repro.utils.timing` — no workload hand-rolls its own timing loop.

The ``bench_*.py`` scripts import the same ``*_once`` functions for their
narrative tables, so the matrix numbers and the bench numbers are by
construction measurements of the same code path.
"""

from __future__ import annotations

import numpy as np

from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector
from repro.datasets.generators import random_walk
from repro.grammar import _kernel
from repro.utils.timing import Timer

#: name -> callable(**params) -> {metric: value}; one entry per
#: ``[workloads.*]`` table in ``bench_matrix.toml``.
REGISTRY: dict = {}


def register(name: str):
    """Class the decorated function as the matrix workload ``name``."""

    def _decorator(fn):
        if name in REGISTRY:
            raise ValueError(f"workload {name!r} registered twice")
        REGISTRY[name] = fn
        return fn

    return _decorator


# One series per (points, seed), shared across repeats and workloads:
# generation is not part of any measurement.
_series_cache: dict[tuple[int, int], np.ndarray] = {}


def cached_series(points: int, seed: int = 0) -> np.ndarray:
    """A deterministic random-walk series, generated once per process."""
    key = (int(points), int(seed))
    if key not in _series_cache:
        _series_cache[key] = random_walk(key[0], seed=key[1])
    return _series_cache[key]


def make_token_stream(tokens: int, alphabet: int, seed: int = 0):
    """A deterministic id stream plus its word spelling (for the oracle)."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, alphabet, size=tokens)
    words = [f"w{i}" for i in range(alphabet)]
    return ids, [words[i] for i in ids]


# ----------------------------------------------------------------------
# Grammar stage: feed + occurrence spans, per token.
# ----------------------------------------------------------------------


def grammar_stage_once(tokens: int, alphabet: int = 40, seed: int = 0) -> tuple[float, tuple]:
    """One grammar-stage run: returns ``(elapsed_s, occurrence_spans)``.

    Feeds the id stream to a native builder
    (:func:`repro.grammar._kernel.make_builder`) and reads its occurrence
    spans. Returning the spans lets callers (the grammar bench) check them
    against the reference Sequitur on the exact stream that was timed.
    """
    ids, _ = make_token_stream(tokens, alphabet, seed)
    builder = _kernel.make_builder()
    with Timer() as timer:
        builder.feed_many(ids)
        spans = builder.occurrence_spans()
    return timer.elapsed, spans


@register("grammar_tokens")
def _grammar_tokens(*, tokens: int, alphabet: int = 40, seed: int = 0):
    elapsed, _ = grammar_stage_once(tokens, alphabet, seed)
    return {"us_per_token": elapsed / tokens * 1e6}


# ----------------------------------------------------------------------
# Streaming detector: end-to-end per-point cost (ingest + density poll).
# ----------------------------------------------------------------------


def stream_per_point_once(
    points: int,
    window: int = 100,
    paa_size: int = 4,
    alphabet_size: int = 4,
    seed: int = 0,
    chunk: int = 10_000,
) -> float:
    """Seconds per point: chunked ``extend`` plus one final density poll."""
    series = cached_series(points, seed)
    detector = StreamingGrammarDetector(
        window=window, paa_size=paa_size, alphabet_size=alphabet_size
    )
    with Timer() as timer:
        for offset in range(0, len(series), chunk):
            detector.extend(series[offset : offset + chunk])
        detector.density_curve()
    return timer.elapsed / len(series)


@register("streaming_points")
def _streaming_points(
    *,
    points: int,
    window: int = 100,
    paa_size: int = 4,
    alphabet_size: int = 4,
    seed: int = 0,
):
    per_point = stream_per_point_once(points, window, paa_size, alphabet_size, seed)
    return {"us_per_point": per_point * 1e6}


# ----------------------------------------------------------------------
# Sliding-policy poll latency at bounded capacity.
# ----------------------------------------------------------------------


def poll_latency_curve(
    series: np.ndarray,
    checkpoints: list[int],
    capacity: int,
    window: int = 100,
    paa_size: int = 4,
    alphabet_size: int = 4,
    poll_chunk: int = 500,
    polls: int = 15,
) -> list[dict]:
    """Steady-state poll latency at each checkpoint of one growing stream.

    At every checkpoint, ``polls`` cycles each ingest ``poll_chunk`` points
    (advancing the horizon, so the poll cannot reuse a cached curve or
    builder) and time the density snapshot that follows; the row records
    the median. This is the curve behind the kernel bench's flat-latency
    gate and the matrix's ``sliding_poll`` workload.
    """
    detector = StreamingGrammarDetector(
        window=window,
        paa_size=paa_size,
        alphabet_size=alphabet_size,
        capacity=capacity,
        policy="sliding",
    )
    curve = []
    fed = 0
    for checkpoint in checkpoints:
        lead_in = checkpoint - polls * poll_chunk
        detector.extend(series[fed:lead_in])
        fed = lead_in
        samples = []
        while fed < checkpoint:
            detector.extend(series[fed : fed + poll_chunk])
            fed += poll_chunk
            with Timer() as timer:
                detector.density_curve()
            samples.append(timer.elapsed)
        curve.append(
            {
                "points_ingested": checkpoint,
                "live_tokens": detector.n_tokens,
                "poll_ms_median": float(np.median(samples) * 1e3),
            }
        )
    return curve


@register("sliding_poll")
def _sliding_poll(
    *,
    points: int,
    capacity: int,
    window: int = 100,
    paa_size: int = 4,
    alphabet_size: int = 4,
    seed: int = 0,
):
    series = cached_series(points, seed)
    curve = poll_latency_curve(series, [points], capacity, window, paa_size, alphabet_size)
    return {"poll_ms": curve[-1]["poll_ms_median"]}


# ----------------------------------------------------------------------
# Shared multi-window discretization front end (the plan sweep).
# ----------------------------------------------------------------------


def paa_multiwindow_once(
    points: int,
    window: int = 100,
    paa_sizes: tuple = (3, 4, 5, 6, 7, 8),
    seed: int = 0,
) -> tuple[float, object]:
    """One shared sweep emitting every PAA + interval matrix; returns the sweep.

    Measures the :class:`~repro.sax.plan.DiscretizationSweep` front half —
    shared window statistics, one PAA matrix and one merged-table search per
    distinct PAA size. Prefix sums are
    built outside the timed region (they are series-level setup shared with
    every other stage).
    """
    from repro.sax.paa import CumulativeStats
    from repro.sax.plan import DiscretizationPlan

    series = cached_series(points, seed)
    stats = CumulativeStats(series)
    plan = DiscretizationPlan(
        window,
        [(int(w), 10) for w in paa_sizes],
        max_alphabet_size=10,
    )
    with Timer() as timer:
        sweep = plan.sweep_series(stats)
        for paa_size in paa_sizes:
            sweep.interval_rows(int(paa_size))
    return timer.elapsed, sweep


@register("paa_multiwindow")
def _paa_multiwindow(*, points: int, window: int = 100, seed: int = 0):
    paa_sizes = (3, 4, 5, 6, 7, 8)
    elapsed, sweep = paa_multiwindow_once(points, window, paa_sizes, seed)
    rows = len(sweep) * len(paa_sizes)
    return {"us_per_row": elapsed / rows * 1e6}


def discretize_once(
    points: int,
    members: int,
    window: int = 100,
    seed: int = 0,
) -> tuple[float, list]:
    """One full ensemble discretization front end: symbols for every member.

    Samples the same distinct ``(w, a)`` bag an ensemble would (via the
    ensemble's own RNG protocol) and emits every member's symbol matrix from
    one shared sweep — the complete tokenize stage minus grammar feeding.
    Returns the per-member symbol matrices so narrative benches can
    parity-check them against the naive per-member path.
    """
    from repro.sax.paa import CumulativeStats
    from repro.sax.plan import DiscretizationPlan
    from repro.utils.rng import ensure_rng

    series = cached_series(points, seed)
    rng = ensure_rng(seed)
    pool = [(w, a) for w in range(2, 11) for a in range(2, 11)]
    chosen = rng.choice(len(pool), size=min(members, len(pool)), replace=False)
    configs = [pool[int(i)] for i in chosen]
    stats = CumulativeStats(series)
    plan = DiscretizationPlan(window, configs, max_alphabet_size=10)
    with Timer() as timer:
        sweep = plan.sweep_series(stats)
        matrices = [sweep.symbol_rows(w, a) for w, a in configs]
    return timer.elapsed, matrices


@register("discretize")
def _discretize(*, points: int, members: int, window: int = 100, seed: int = 0):
    elapsed, matrices = discretize_once(points, members, window, seed)
    windows = sum(len(matrix) for matrix in matrices)
    return {"us_per_member_window": elapsed / windows * 1e6}


# ----------------------------------------------------------------------
# Batch members: one native call each, on the thread's warm workspace.
# ----------------------------------------------------------------------


def member_curve_once(
    points: int, members: int, window: int = 100, seed: int = 0
) -> tuple[float, list]:
    """Seconds for ``members`` batch members on this thread; returns the curves.

    Samples the ``(w, a)`` bag as :func:`discretize_once` does and builds
    every interval matrix outside the timed region; the timed loop is one
    :func:`repro.grammar._kernel.member_curve` call per member (tokenize,
    grammar, spans, density), largest ``w`` first as the engine orders
    them, on the calling thread's native workspace.
    """
    from repro.core.multiresolution import MultiResolutionDiscretizer
    from repro.utils.rng import ensure_rng

    series = cached_series(points, seed)
    rng = ensure_rng(seed)
    pool = [(w, a) for w in range(2, 11) for a in range(2, 11)]
    chosen = rng.choice(len(pool), size=min(members, len(pool)), replace=False)
    configs = sorted((pool[int(i)] for i in chosen), reverse=True)
    discretizer = MultiResolutionDiscretizer(series, window, 10, 10)
    table = discretizer.alphabet_table
    inputs = [(discretizer.interval_matrix(w), table.symbol_column(a)) for w, a in configs]
    length = len(series)
    with Timer() as timer:
        curves = [
            _kernel.member_curve(intervals, column, window, length)[0]
            for intervals, column in inputs
        ]
    return timer.elapsed, curves


@register("member_curve")
def _member_curve(*, points: int, members: int, window: int = 100, seed: int = 0):
    elapsed, curves = member_curve_once(points, members, window, seed)
    return {"us_per_member": elapsed / len(curves) * 1e6}


# ----------------------------------------------------------------------
# Ensemble streaming ingest (the engine's vectorized shared-state path).
# ----------------------------------------------------------------------


def ensemble_ingest_once(
    points: int, members: int, window: int = 100, seed: int = 0
) -> tuple[float, StreamingEnsembleDetector]:
    """One full-stream ingest into a fresh ensemble; returns the detector.

    The detector comes back so the engine bench can parity-check its
    members' kept tokens against the seed per-point replica.
    """
    series = cached_series(points, seed)
    with Timer() as timer:
        detector = StreamingEnsembleDetector(
            window=window, ensemble_size=members, seed=seed
        )
        detector.extend(series)
    return timer.elapsed, detector


@register("ensemble_ingest")
def _ensemble_ingest(*, points: int, members: int, window: int = 100, seed: int = 0):
    elapsed, _ = ensemble_ingest_once(points, members, window, seed)
    return {"us_per_point": elapsed / points * 1e6}


# ----------------------------------------------------------------------
# One session cycle: an ensemble append plus a poll, per eviction policy.
# ----------------------------------------------------------------------


def stream_cycle_once(
    policy: str,
    cycles: int,
    chunk: int = 100,
    window: int = 50,
    members: int = 10,
    capacity: int = 1000,
    segments: int = 4,
    seed: int = 0,
) -> float:
    """Seconds for ``cycles`` append+poll cycles of one bounded session.

    The session has the serving benchmark's shape (window, members,
    capacity and generations per capacity) and is filled to twice its
    capacity, outside the timed region, so the horizon already moves. Each
    cycle appends ``chunk`` points and polls ``detect(3)``, as a served
    session's append and poll requests do.
    """
    warm = 2 * capacity
    series = cached_series(warm + cycles * chunk, seed)
    detector = StreamingEnsembleDetector(
        window=window, ensemble_size=members, capacity=capacity, policy=policy,
        segments=segments, seed=seed,
    )
    detector.extend(series[:warm])
    detector.detect(3)
    with Timer() as timer:
        for start in range(warm, warm + cycles * chunk, chunk):
            detector.extend(series[start : start + chunk])
            detector.detect(3)
    return timer.elapsed


@register("stream_cycle")
def _stream_cycle(
    *,
    policy: str,
    cycles: int,
    chunk: int = 100,
    window: int = 50,
    members: int = 10,
    capacity: int = 1000,
    segments: int = 4,
    seed: int = 0,
):
    elapsed = stream_cycle_once(policy, cycles, chunk, window, members, capacity, segments, seed)
    return {"ms_per_cycle": elapsed / cycles * 1e3}


# ----------------------------------------------------------------------
# Appends alone to a stream_ingest-shaped session.
# ----------------------------------------------------------------------


def stream_append_once(
    appends: int,
    members: int = 20,
    window: int = 100,
    capacity: int = 2000,
    chunk_min: int = 200,
    chunk_max: int = 400,
    seed: int = 0,
) -> float:
    """Seconds for ``appends`` appends to one bounded sliding session.

    The session has the end-to-end ``stream_ingest`` workload's shape
    (members, window, capacity, sliding policy, chunks of ``chunk_min`` to
    ``chunk_max`` points) and is filled to twice its capacity outside the
    timed region, so the horizon already moves. Nothing is polled: the row
    times the drain of each append (window statistics, the native drain
    call and the horizon advance) and nothing else.
    """
    sizes = np.random.default_rng(seed).integers(chunk_min, chunk_max + 1, size=appends)
    warm = 2 * capacity
    bounds = (warm + np.concatenate(([0], np.cumsum(sizes)))).tolist()
    series = cached_series(bounds[-1], seed)
    detector = StreamingEnsembleDetector(
        window=window, ensemble_size=members, capacity=capacity, policy="sliding", seed=seed
    )
    detector.extend(series[:warm])
    chunks = [series[start:stop] for start, stop in zip(bounds, bounds[1:])]
    with Timer() as timer:
        for chunk in chunks:
            detector.extend(chunk)
    return timer.elapsed


@register("stream_append")
def _stream_append(
    *,
    appends: int,
    members: int = 20,
    window: int = 100,
    capacity: int = 2000,
    chunk_min: int = 200,
    chunk_max: int = 400,
    seed: int = 0,
):
    elapsed = stream_append_once(appends, members, window, capacity, chunk_min, chunk_max, seed)
    return {"ms_per_append": elapsed / appends * 1e3}


# ----------------------------------------------------------------------
# Batch detection across executor backends.
# ----------------------------------------------------------------------


def detect_batch_once(
    executor: str,
    n_series: int,
    points: int,
    window: int = 100,
    ensemble: int = 8,
    seed: int = 0,
) -> float:
    """Seconds for one ``detect_batch`` over ``n_series`` fresh series.

    The executor pool is built and started *outside* the timed region: the
    matrix cell measures batch compute + dispatch, not pool spawn
    (pool-spawn amortization is ``bench_executor_reuse``'s subject). The
    warm-up batch holds two series, because a batch of one runs in the
    caller and never starts the pool.
    """
    from repro.core.ensemble import EnsembleGrammarDetector
    from repro.core.executors import as_executor

    batch = [cached_series(points, seed + i) for i in range(n_series)]
    if executor == "serial":
        detector = EnsembleGrammarDetector(window=window, ensemble_size=ensemble, seed=seed)
        with Timer() as timer:
            detector.detect_batch(batch, 3)
        return timer.elapsed
    with as_executor(executor, 2) as pool:
        detector = EnsembleGrammarDetector(
            window=window, ensemble_size=ensemble, seed=seed, executor=pool
        )
        detector.detect_batch(batch[:2], 3)  # warm the lazy pool
        with Timer() as timer:
            detector.detect_batch(batch, 3)
        return timer.elapsed


@register("detect_batch")
def _detect_batch(
    *,
    executor: str,
    n_series: int,
    points: int,
    window: int = 100,
    ensemble: int = 8,
    seed: int = 0,
):
    elapsed = detect_batch_once(executor, n_series, points, window, ensemble, seed)
    return {"ms_per_series": elapsed / n_series * 1e3}


# ----------------------------------------------------------------------
# One-series detection next to an executor (what a served node runs).
# ----------------------------------------------------------------------


def detect_one_once(
    executor: str,
    points: int,
    window: int = 100,
    ensemble: int = 20,
    calls: int = 5,
    seed: int = 0,
) -> float:
    """Seconds for ``calls`` consecutive ``detect`` calls on one series.

    ``executor="none"`` gives the detector no executor; any other name
    builds that backend and starts its pool with a two-series batch
    *outside* the timed region, as on a served node whose pool is up.
    Executors carry whole series, so both cells time the same in-process
    member fan-out; the ``process`` cell guards that a one-series detect
    never pays the pool again.
    """
    from repro.core.ensemble import EnsembleGrammarDetector
    from repro.core.executors import as_executor

    series = cached_series(points, seed)
    config = dict(window=window, ensemble_size=ensemble, seed=seed)

    def timed(detector) -> float:
        # One untimed detect first: right after a fork the parent pays a
        # copy-on-write fault on every page it writes, once.
        detector.detect(series, 3)
        with Timer() as timer:
            for _ in range(calls):
                detector.detect(series, 3)
        return timer.elapsed

    if executor == "none":
        return timed(EnsembleGrammarDetector(**config))
    with as_executor(executor, 2) as pool:
        detector = EnsembleGrammarDetector(**config, executor=pool)
        warm = [cached_series(points, seed + 1), cached_series(points, seed + 2)]
        detector.detect_batch(warm, 3)  # start the lazy pool
        return timed(detector)


@register("detect_one")
def _detect_one(
    *,
    executor: str,
    points: int,
    window: int = 100,
    ensemble: int = 20,
    calls: int = 5,
    seed: int = 0,
):
    elapsed = detect_one_once(executor, points, window, ensemble, calls, seed)
    return {"ms_per_detect": elapsed / calls * 1e3}


# Case 0 of each dataset's reduced-scale corpus, generated once per process.
_planted_cache: dict[str, object] = {}


def planted_case(dataset: str):
    """Case 0 of ``dataset``'s evaluation corpus (corpus seed 0), as the
    reduced-scale paper suite generates it."""
    if dataset not in _planted_cache:
        from repro.datasets.planting import make_corpus
        from repro.datasets.ucr_like import DATASETS

        _planted_cache[dataset] = make_corpus(DATASETS[dataset], n_cases=1, seed=0)[0]
    return _planted_cache[dataset]


def gi_select_detect_once(dataset: str, calls: int = 5) -> float:
    """Seconds for ``calls`` GI-Select detections of one planted case.

    Each detect runs the ``(w, a)`` grid search over the leading sample
    (a tenth of the series, at least two windows) and then the chosen
    single-run detector over the whole series, at the case's window.
    """
    from repro.evaluation.baselines import GISelectDetector

    case = planted_case(dataset)
    detector = GISelectDetector(case.gt_length)
    with Timer() as timer:
        for _ in range(calls):
            detector.detect(case.series, 3)
    return timer.elapsed


@register("gi_select_detect")
def _gi_select_detect(*, dataset: str, calls: int = 5):
    return {"ms_per_detect": gi_select_detect_once(dataset, calls) / calls * 1e3}


def service_detect_once(
    executor: str,
    points: int,
    window: int = 100,
    ensemble: int = 20,
    calls: int = 5,
    seed: int = 0,
) -> float:
    """Seconds for ``calls`` sequential uncached ``DetectService.detect`` calls.

    One closed-loop caller, a fresh seed per call and no result cache: every
    call goes through the micro-batcher as a batch of one, so the cell reads
    ``detect_one``'s cost plus whatever the batcher adds before dispatch.
    ``executor="none"`` serves inline; any other name builds that backend and
    starts its pool with a two-series batch outside the timed region.
    """
    import asyncio

    from repro.service import DetectService

    series = cached_series(points, seed)
    config = dict(window=window, ensemble_size=ensemble)

    async def _run() -> float:
        async with DetectService(
            executor=None if executor == "none" else executor,
            n_jobs=2,
            cache_entries=0,
            default_timeout=None,
        ) as service:
            if executor != "none":
                warm = [cached_series(points, seed + 1), cached_series(points, seed + 2)]
                await service.detect_many(warm, k=3, seed=seed, **config)
            # One untimed detect first, as in detect_one_once.
            await service.detect(series, k=3, seed=seed, **config)
            with Timer() as timer:
                for call in range(calls):
                    await service.detect(series, k=3, seed=seed + 1 + call, **config)
            return timer.elapsed

    return asyncio.run(_run())


@register("service_detect")
def _service_detect(
    *,
    executor: str,
    points: int,
    window: int = 100,
    ensemble: int = 20,
    calls: int = 5,
    seed: int = 0,
):
    elapsed = service_detect_once(executor, points, window, ensemble, calls, seed)
    return {"ms_per_detect": elapsed / calls * 1e3}


class _LoopThread:
    """An event loop running on its own daemon thread (one server's loop)."""

    def __init__(self) -> None:
        import asyncio
        import threading

        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self._thread.start()

    def run(self, coro):
        """Run ``coro`` on this loop and wait for its result."""
        import asyncio

        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()


def served_detect_once(
    via: str,
    points: int,
    window: int = 100,
    ensemble: int = 20,
    calls: int = 5,
    seed: int = 0,
) -> float:
    """Seconds for ``calls`` sequential ``POST /v1/detect`` requests over HTTP.

    A ``ServiceHTTPServer`` (no executor, no result cache) and, for
    ``via="router"``, a ``RouterHTTPServer`` in front of it run each on its
    own event-loop thread on ephemeral ports. One closed-loop ``http.client``
    caller sends every request over one keep-alive connection to the node
    (``via="node"``) or to the router, a fresh seed each, bodies encoded
    before the timer starts. So the cell reads ``service_detect``'s cost
    plus the HTTP front end's, and the router cell adds the router hop.
    """
    import http.client
    import json

    from repro.service import DetectService
    from repro.service.http import ServiceHTTPServer
    from repro.service.router import RouterHTTPServer, SessionRouter

    if via not in ("node", "router"):
        raise ValueError(f"via must be 'node' or 'router', got {via!r}")
    series = cached_series(points, seed).tolist()
    bodies = [
        json.dumps(
            {"series": series, "k": 3, "seed": seed + call, "window": window,
             "ensemble_size": ensemble}
        ).encode("utf-8")
        for call in range(calls + 1)
    ]

    async def start_node():
        service = DetectService(n_jobs=2, cache_entries=0, default_timeout=None)
        server = ServiceHTTPServer(service, "127.0.0.1", 0)
        await server.start()
        return service, server

    async def stop_node(service, server):
        await server.aclose()
        await service.aclose()

    async def start_router(port: int):
        router = SessionRouter([f"127.0.0.1:{port}"])
        server = RouterHTTPServer(router, "127.0.0.1", 0)
        await server.start()
        return router, server

    async def stop_router(router, server):
        await server.aclose()
        await router.aclose()

    node_loop = _LoopThread()
    router_loop = _LoopThread() if via == "router" else None
    try:
        service, node = node_loop.run(start_node())
        port = node.port
        if router_loop is not None:
            router, front = router_loop.run(start_router(node.port))
            port = front.port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

        def detect(body: bytes) -> None:
            conn.request("POST", "/v1/detect", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            reply = response.read()
            if response.status != 200:
                raise RuntimeError(f"detect answered {response.status}: {reply[:200]!r}")

        try:
            detect(bodies[0])  # untimed, as in detect_one_once
            with Timer() as timer:
                for body in bodies[1:]:
                    detect(body)
        finally:
            conn.close()
            if router_loop is not None:
                router_loop.run(stop_router(router, front))
            node_loop.run(stop_node(service, node))
        return timer.elapsed
    finally:
        node_loop.close()
        if router_loop is not None:
            router_loop.close()


@register("served_detect")
def _served_detect(
    *,
    via: str,
    points: int,
    window: int = 100,
    ensemble: int = 20,
    calls: int = 5,
    seed: int = 0,
):
    elapsed = served_detect_once(via, points, window, ensemble, calls, seed)
    return {"ms_per_detect": elapsed / calls * 1e3}


# ----------------------------------------------------------------------
# Dispatch overhead: near-empty tasks over one shared series.
# ----------------------------------------------------------------------


def touch_task(payload) -> float:
    """Minimal worker task: materialize the series, return a checksum.

    The work is negligible on purpose — a burst of these isolates the
    per-task dispatch round trip (submit + pickle + transport + result) of
    whatever backend runs them.
    """
    from repro.core.executors import resolve_series

    return float(resolve_series(payload)[::500].sum())


def dispatch_overhead_once(executor, series: np.ndarray, tasks: int = 40) -> float:
    """Seconds per task for a burst of ``tasks`` touch tasks on a live executor."""
    with executor.share_series(series) as handle:
        payloads = [handle.ref] * tasks
        expected = touch_task(np.asarray(series))
        with Timer() as timer:
            results = executor.map(touch_task, payloads)
    assert all(value == expected for value in results)
    return timer.elapsed / tasks


@register("dispatch")
def _dispatch(*, executor: str, points: int, tasks: int = 40, workers: int = 2, seed: int = 0):
    from repro.core.executors import ProcessExecutor

    if executor != "process":
        raise ValueError(f"dispatch workload: unsupported executor {executor!r}")
    series = cached_series(points, seed)
    with ProcessExecutor(workers) as pool:
        pool.map(touch_task, [np.zeros(1)])  # spawn outside the measurement
        per_task = dispatch_overhead_once(pool, series, tasks)
    return {"ms_per_task": per_task * 1e3}


# ----------------------------------------------------------------------
# Serving throughput: micro-batched concurrent clients.
# ----------------------------------------------------------------------


def service_best_rps(
    *,
    clients: int,
    workers: int,
    rounds: int = 3,
    max_batch_size: int | None = None,
    cache_entries: int = 0,
    repeat_requests: bool = False,
    series_points: int = 48,
) -> tuple[float, dict]:
    """Best-of-``rounds`` requests/second for one service configuration.

    ``repeat_requests=False`` gives every round fresh series/seeds (nothing
    cacheable); ``True`` re-sends one fixed request set every round, so
    with a cache all rounds after the first are pure hits. Returns
    ``(best_rps, batcher_stats)`` — the stats let callers assert that
    coalescing actually happened.
    """
    import asyncio
    import time as _time

    from repro.service import DetectService

    config = dict(window=10, ensemble_size=9, max_paa_size=10, max_alphabet_size=2)
    max_batch_size = clients if max_batch_size is None else max_batch_size

    def _client_series(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 6.0 * np.pi, series_points)
        return np.sin(t) + 0.05 * rng.standard_normal(series_points)

    async def _run() -> tuple[float, dict]:
        async with DetectService(
            executor="process",
            n_jobs=workers,
            max_batch_size=max_batch_size,
            max_pending=4 * clients,
            cache_entries=cache_entries,
            default_timeout=None,
        ) as service:
            # Start the pool: a coalesced pair reaches it, a lone series
            # would run in the service.
            await service.detect_many(
                [_client_series(10**6), _client_series(10**6 + 1)], seed=0, **config
            )
            best = 0.0
            for round_index in range(rounds):
                salt = 0 if repeat_requests else 1000 * (round_index + 1)
                series = [_client_series(salt + i) for i in range(clients)]
                started = _time.perf_counter()
                await asyncio.gather(
                    *(
                        service.detect(series[i], k=3, seed=salt + i, **config)
                        for i in range(clients)
                    )
                )
                elapsed = _time.perf_counter() - started
                best = max(best, clients / elapsed)
            return best, service.stats()["batcher"]

    return asyncio.run(_run())


@register("service_throughput")
def _service_throughput(*, clients: int, workers: int = 1, rounds: int = 2):
    rps, stats = service_best_rps(clients=clients, workers=workers, rounds=rounds)
    assert stats["mean_batch_size"] > 1.0, "micro-batching did not coalesce"
    return {"req_per_s": rps}


def run_cell_once(name: str, params: dict) -> dict:
    """Run one repeat of a registered workload; the runner core's hook."""
    if name not in REGISTRY:
        raise KeyError(
            f"no registered workload {name!r}; known: {sorted(REGISTRY)}"
        )
    return REGISTRY[name](**params)
