"""Workload ``served_mix``: request traffic through the router to one node.

What runs
    The benchmark starts ``repro serve --executor process --snapshot-dir
    <tmp> --snapshot-every`` :data:`SNAPSHOT_EVERY` and ``repro router`` in
    front of it, both on ephemeral ports, and waits for ``/v1/healthz`` on
    each (counted in ``setup_s``). One client thread (:data:`CLIENTS`) with
    one keep-alive connection then runs a closed loop for ``--seconds``: it
    sends its next request as soon as the previous reply is in. The three
    request kinds come in equal shares:

    - ``POST /v1/detect`` of a planted :data:`DETECT_DATASET` test case
      (2.8k points, window 132) with ``ensemble_size=20``; every
      :data:`REPEAT_EVERY`-th of them repeats one of the client's recent
      requests exactly, so the node's result cache has hits;
    - ``POST /v1/sessions/{name}/append`` of :data:`CHUNK` points to one of
      :data:`SESSIONS` ``policy="decay"`` sessions (auto-checkpointed every
      :data:`SNAPSHOT_EVERY` points);
    - ``GET /v1/sessions/{name}/anomalies`` right after every append.

    A refused or failed request (429/504/507, any non-200, connection
    errors) counts as failed and as missing every latency limit.

    Why closed and not open loop: on the shared 2-core VM this was written
    on, an open loop at 5 or 8 requests per kind per second left the node
    idle between requests, and its latency then followed how fast the host
    woke the idle machine: the detect median moved between 48 and 115 ms
    from run to run, far more than the program does. A caller that waits
    for its reply keeps the node busy, which is also how a batch client of
    the service behaves.

    Why one client: with two, node, router, two pool workers and the
    clients competed for the two cores, and the run-to-run spread of the
    detect p90 was 34% (five seeds); with one it was 8%.

    Why the speed probe visits every core: a one-series detect spends the
    node's whole process pool on its members, so the work runs on both
    cores while the probe ran on the client's. The two cores of the shared
    host were not equally fast, and the detect p90 still spread 14% over
    ten seeds; sampling the reference on each core in turn brought the
    spread of every latency under 3% (five seeds).

Inputs
    Generated from ``--seed``: the detect series and their sampling seeds,
    which requests repeat, and the session streams.

Why this workload
    Per-request compute is small, so ``service.*`` transport (HTTP parse,
    JSON, router proxying), micro-batching, the result cache, process
    executor dispatch and checkpoint I/O dominate. Auto-checkpoints put
    snapshot writes on the append tail next to the reads. The decay policy
    covers ``GenerationalSequitur``, which no other workload runs.

Layers it loads and bypasses
    Loads: service.http (node), service.router, the client, batching, the
    cache, snapshots, executors, plus the whole detector inside the node.
    In-node layer times are not visible from outside the processes, so the
    in-process layer metrics read 0 here; the service layers are read from
    ``/v1/metrics`` and ``/v1/stats`` deltas (no in-program tracing).
    Bypasses: the sliding policy (``stream_ingest`` has it).

Mapping rows (layer metric -> end-to-end metric it should move here)
    service.http.node_ms -> detect_p50_ms, detect_p90_ms, session.*
    service.router.forward_ms -> detect_p50_ms, session.append_p50_ms,
        session.poll_p50_ms
    service.client.overhead_ms -> detect_p50_ms, session.*_p50_ms
    service.batching.mean_batch_size, service.cache.hit_ratio -> detect_p50_ms,
        detect_p90_ms (one client never fills a micro-batch: its size is 1)
    service.snapshot.checkpoints -> session.append_p95_ms
    session.bytes -> (memory)
    loadgen.lag_p95_ms -> (validity: the client's own time between a reply
        and its next request, which no latency includes)
    trace.overhead_ratio -> (trace validity; outside-in attribution splits
        the client-observed time completely, so trace.unattributed_ms is 0)

End-to-end figures
    ``detect_*`` time ``POST /v1/detect``; ``points_per_s`` is points
    carried by successful requests over their summed latency; ``hit_rate``
    is the share of distinct detections whose top-1 overlaps the planted
    anomaly; ``peak_rss_mb`` sums the node, its workers and the router.

Correctness
    After the timed phase every distinct detect response must equal
    in-process ``EnsembleGrammarDetector(...).detect`` with the same
    configuration and seed, and every poll must equal the same poll on an
    in-process ``StreamingEnsembleDetector`` fed the same chunks (the
    documented bitwise parity contract). Teardown must leave no serve,
    router or worker process, no shared-memory segment of the node and no
    snapshot directory behind.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    PER_LAYER_UNITS,
    RunResult,
    SpeedProbe,
    anomaly_rows,
    child_env,
    group_members,
    ms,
    overlaps,
    payload_rows,
    percentile,
    pid_peak_rss_mb,
    shm_segments,
    timed_setup,
)

CLIENTS = 1
#: Processes that recompute the served detections in process after the run.
CHECKERS = 2
DETECT_DATASET = "ECGFiveDay"
DETECT_ENSEMBLE = 20
#: Every REPEAT_EVERY-th detect of a client repeats a recent one (cache hit).
REPEAT_EVERY = 5
SESSIONS = 4
SESSION_CONFIG = {
    "window": 50,
    "ensemble_size": 10,
    "capacity": 1000,
    "policy": "decay",
    "segments": 4,
}
CHUNK = 100
SNAPSHOT_EVERY = 1000
K = 3
WARM_SERIES = 4
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0

SERVE_BANNER = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")
ROUTER_BANNER = re.compile(r"routing on http://127\.0\.0\.1:(\d+)")
LATENCY_SERIES = re.compile(
    r'^repro_http_request_seconds_(sum|count)\{role="(\w+)",method="(\w+)",path="([^"]+)"\} (\S+)$'
)
TIMED_PATHS = ("/detect", "/sessions/{name}/append", "/sessions/{name}/anomalies")


# ----------------------------------------------------------------------
# The request streams (made from the seed).
# ----------------------------------------------------------------------


@dataclass
class DetectInput:
    key: str
    dataset: str
    series: np.ndarray
    gt_location: int
    gt_length: int
    seed: int
    body: bytes = b""

    def __post_init__(self) -> None:
        self.body = json.dumps(
            {
                "series": self.series.tolist(),
                "window": self.gt_length,
                "ensemble_size": DETECT_ENSEMBLE,
                "seed": self.seed,
                "k": K,
            }
        ).encode("utf-8")

    def batch_body(self) -> bytes:
        series = self.series.tolist()
        return json.dumps(
            {"series": [series] * WARM_SERIES, "window": self.gt_length,
             "ensemble_size": DETECT_ENSEMBLE, "seed": self.seed, "k": K}
        ).encode("utf-8")


@dataclass
class Event:
    kind: str  # "detect" or "session"
    detect: DetectInput | None = None
    session: str = ""
    chunk: list = field(default_factory=list)


def session_name(index: int) -> str:
    return f"bench.s{index}"


def session_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def client_events(seed: int, client: int):
    """The endless request sequence of one client, made from the seed.

    Detects and session operations alternate; the sessions of one client
    are never touched by the other, so each session's chunks arrive in
    order.
    """
    from repro.datasets.planting import make_test_case
    from repro.datasets.ucr_like import DATASETS

    rng = np.random.default_rng([seed, client])
    mine = [index for index in range(SESSIONS) if index % CLIENTS == client]
    streams = {index: _session_stream(seed, index) for index in mine}
    history: list[DetectInput] = []
    cycle = 0
    while True:
        if cycle % REPEAT_EVERY == REPEAT_EVERY - 1:
            detect = history[-1 - int(rng.integers(0, min(4, len(history))))]
        else:
            case = make_test_case(DATASETS[DETECT_DATASET], rng)
            detect = DetectInput(
                f"{seed}:{client}:{cycle}", DETECT_DATASET, case.series, case.gt_location,
                case.gt_length, int(rng.integers(0, 2**31)),
            )
            history.append(detect)
        yield Event("detect", detect=detect)
        index = mine[cycle % len(mine)]
        yield Event("session", session=session_name(index), chunk=next(streams[index]))
        cycle += 1


def _session_stream(seed: int, index: int):
    rng = np.random.default_rng([seed, index])
    position = 0
    level = 0.0
    while True:
        t = np.arange(position, position + CHUNK)
        walk = level + np.cumsum(0.05 * rng.standard_normal(CHUNK))
        level = float(walk[-1])
        values = np.sin(2 * np.pi * t / 40.0) + walk + 0.05 * rng.standard_normal(CHUNK)
        position += CHUNK
        yield values.tolist()


# ----------------------------------------------------------------------
# The system under test: one node behind one router.
# ----------------------------------------------------------------------


def _spawn(args: list[str], banner: re.Pattern) -> tuple[subprocess.Popen, int]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL,
        text=True,
        env=child_env(),
        # Its own process group, so teardown can wait for everything it starts.
        start_new_session=True,
    )
    deadline = time.monotonic() + START_TIMEOUT_S
    try:
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line and process.poll() is not None:
                raise RuntimeError(f"repro {args[0]} exited before binding")
            match = banner.search(line or "")
            if match:
                # Keep draining its output so the child never blocks on a full pipe.
                threading.Thread(target=_drain, args=(process.stdout,), daemon=True).start()
                return process, int(match.group(1))
        raise RuntimeError(f"repro {args[0]} did not bind within {START_TIMEOUT_S}s")
    except BaseException:
        _stop(process)
        raise


def _drain(stream) -> None:
    for _ in stream:
        pass


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=30)


def request(conn: http.client.HTTPConnection, method: str, path: str, body=None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        status, body = request(conn, "GET", path)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def scrape(port: int) -> dict[tuple[str, str, str, str], float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        _, body = request(conn, "GET", "/v1/metrics")
    finally:
        conn.close()
    series = {}
    for line in body.decode("utf-8").splitlines():
        match = LATENCY_SERIES.match(line)
        if match:
            stat, role, method, path, value = match.groups()
            series[(stat, role, method, path)] = float(value)
    return series


def _wait_healthy(port: int) -> None:
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        try:
            get_json(port, "/v1/healthz")
            return
        except (OSError, RuntimeError, http.client.HTTPException):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


class Cluster:
    """A running node + router pair with its sessions; ``release()`` tears down."""

    def __init__(self, seed: int, warm: DetectInput) -> None:
        from repro.core.executors import SHM_PREFIX

        scratch = Path.cwd() / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.snapshot_dir = tempfile.mkdtemp(prefix="snapshots-", dir=scratch)
        self.processes: list[subprocess.Popen] = []
        self.worker_pids: list[int] = []
        self.shm_prefix: str | None = None
        try:
            node, self.node_port = _spawn(
                ["serve", "--port", "0", "--executor", "process",
                 "--snapshot-dir", self.snapshot_dir,
                 "--snapshot-every", str(SNAPSHOT_EVERY), "--node-id", "n1"],
                SERVE_BANNER,
            )
            self.processes.append(node)
            self.shm_prefix = f"{SHM_PREFIX}-{node.pid}-"
            router, self.port = _spawn(
                ["router", "--port", "0", "--nodes", f"127.0.0.1:{self.node_port}"],
                ROUTER_BANNER,
            )
            self.processes.append(router)
            _wait_healthy(self.node_port)
            _wait_healthy(self.port)
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            try:
                for index in range(SESSIONS):
                    body = json.dumps(
                        {"name": session_name(index), "seed": session_seed(seed, index),
                         **SESSION_CONFIG}
                    ).encode("utf-8")
                    status, reply = request(conn, "POST", "/v1/sessions", body)
                    if status != 200:
                        raise RuntimeError(f"session create answered {status}: {reply!r}")
                # Warm-up: the node's process pool starts on its first detect,
                # and each worker imports the detector on its first task; a
                # batch of WARM_SERIES reaches every worker. A throwaway
                # session then runs the session paths (append, snapshot
                # curves in the pool, poll) once before anything is timed.
                warm_chunk = json.dumps({"values": warm.series[: 4 * CHUNK].tolist()})
                for method, path, body in (
                    ("POST", "/v1/detect_batch", warm.batch_body()),
                    ("POST", "/v1/sessions", json.dumps({"name": "warm.s", **SESSION_CONFIG})),
                    ("POST", "/v1/sessions/warm.s/append", warm_chunk),
                    ("GET", f"/v1/sessions/warm.s/anomalies?k={K}", None),
                    ("DELETE", "/v1/sessions/warm.s", None),
                ):
                    status, reply = request(conn, method, path, body)
                    if status != 200:
                        raise RuntimeError(f"warm-up {method} {path} answered {status}: {reply!r}")
            finally:
                conn.close()
            self.worker_pids = list(get_json(self.node_port, "/v1/stats")["executor"]["worker_pids"])
        except BaseException:
            self.release()
            raise

    def peak_rss_mb(self) -> float:
        pids = [process.pid for process in self.processes] + self.worker_pids
        return sum(pid_peak_rss_mb(pid) for pid in pids)

    def release(self) -> list[str]:
        """Stop both processes; return every hygiene problem found.

        Each was started in its own process group, which also holds the
        node's pool workers and resource tracker: teardown waits until every
        group is empty and kills what is left after 10 seconds.
        """
        problems = []
        for process in reversed(self.processes):
            _stop(process)
        for process in self.processes:
            deadline = time.monotonic() + 10
            while group_members(process.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            left = group_members(process.pid)
            if left:
                problems.append(f"processes {left} outlived repro {process.args[3]}")
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        leaked = [
            name for name in shm_segments()
            if self.shm_prefix is not None and name.startswith(self.shm_prefix)
        ]
        if leaked:
            problems.append(f"shared-memory segments left behind: {leaked}")
        shutil.rmtree(self.snapshot_dir, ignore_errors=True)
        if os.path.exists(self.snapshot_dir):
            problems.append(f"snapshot directory {self.snapshot_dir} left behind")
        self.processes = []
        return problems


# ----------------------------------------------------------------------
# The closed-loop clients.
# ----------------------------------------------------------------------


@dataclass
class Sample:
    kind: str  # detect | append | poll
    idle: float  # client time since its previous reply (inputs, speed probe)
    sent: float
    done: float
    ok: bool
    points: int = 0
    rows: list | None = None
    detect: DetectInput | None = None
    session: str = ""
    chunk: list | None = None
    error: str = ""


def _client(
    port: int, events, deadline: float, samples: list[Sample], probe: SpeedProbe
) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    last = time.perf_counter()

    def send(kind, method, path, body, **extra):
        nonlocal conn, last
        probe.sample()
        sent = time.perf_counter()
        try:
            status, reply = request(conn, method, path, body)
            ok = status == 200
            error = "" if ok else f"HTTP {status}"
        except (OSError, http.client.HTTPException) as exc:
            ok, reply, error = False, b"", f"{type(exc).__name__}: {exc}"
            conn.close()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        done = time.perf_counter()
        sample = Sample(kind, sent - last, sent, done, ok, error=error, **extra)
        samples.append(sample)
        last = done
        return sample, reply

    try:
        while time.perf_counter() < deadline:
            event = next(events)
            if event.kind == "detect":
                detect = event.detect
                sample, reply = send("detect", "POST", "/v1/detect", detect.body,
                                     points=len(detect.series), detect=detect)
                if sample.ok:
                    sample.rows = payload_rows(json.loads(reply)["anomalies"])
                continue
            body = json.dumps({"values": event.chunk}).encode("utf-8")
            send("append", "POST", f"/v1/sessions/{event.session}/append", body,
                 points=len(event.chunk), session=event.session, chunk=event.chunk)
            poll, reply = send("poll", "GET", f"/v1/sessions/{event.session}/anomalies?k={K}",
                               None, session=event.session)
            if poll.ok:
                document = json.loads(reply)
                poll.rows = [document["horizon_start"], document["length"],
                             payload_rows(document["anomalies"])]
    finally:
        conn.close()


def drive(cluster: Cluster, seed: int, seconds: float, probe: SpeedProbe) -> list[Sample]:
    """Run both clients for ``seconds``; every sample, in no particular order."""
    per_client: list[list[Sample]] = [[] for _ in range(CLIENTS)]
    deadline = time.perf_counter() + seconds
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        futures = [
            pool.submit(_client, cluster.port, client_events(seed, client), deadline,
                        per_client[client], probe)
            for client in range(CLIENTS)
        ]
        for future in futures:
            future.result()
    return [sample for group in per_client for sample in group]


# ----------------------------------------------------------------------
# Checks and figures.
# ----------------------------------------------------------------------


def expected_rows(path: str) -> None:
    """Checking worker: replace the ``[series, window, seed]`` jobs in the JSON
    file at ``path`` with the in-process top-k rows of each."""
    from repro import EnsembleGrammarDetector

    with open(path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    rows = []
    for series, window, seed in jobs:
        detector = EnsembleGrammarDetector(window=window, ensemble_size=DETECT_ENSEMBLE, seed=seed)
        rows.append(anomaly_rows(detector.detect(np.asarray(series), k=K)))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle)


def check(result: RunResult, seed: int, samples: list[Sample]) -> dict[str, bool]:
    """Compare every distinct detect with in-process detection, and every poll
    with an in-process replay of its session; return the detect hits.

    The detections are recomputed by ``CHECKERS`` checking processes (this
    file run as a script) while this process replays the sessions, which
    keeps the check shorter than the timed phase. Plain child processes,
    not a ``multiprocessing`` pool: its resource tracker would outlive the
    benchmark.
    """
    inputs: dict[str, DetectInput] = {}
    for sample in samples:
        if sample.kind == "detect" and sample.ok:
            inputs.setdefault(sample.detect.key, sample.detect)
    keys = list(inputs)
    scratch = tempfile.mkdtemp(prefix="check-", dir=Path.cwd() / ".perfbench")
    workers = []
    expected = {}
    try:
        for shard in range(CHECKERS):
            mine = keys[shard::CHECKERS]
            path = os.path.join(scratch, f"shard{shard}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump([[inputs[k].series.tolist(), inputs[k].gt_length, inputs[k].seed]
                           for k in mine], handle)
            worker = subprocess.Popen([sys.executable, __file__, path], env=child_env())
            workers.append((mine, path, worker))
        check_sessions(result, seed, samples)
        for mine, path, worker in workers:
            if worker.wait() != 0:
                raise RuntimeError(f"checking worker exited with {worker.returncode}")
            with open(path, encoding="utf-8") as handle:
                expected.update(zip(mine, json.load(handle)))
    finally:
        for _, _, worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    hits = {}
    for key, rows in expected.items():
        detect = inputs[key]
        hits[key] = overlaps(rows[0][1], rows[0][2], detect.gt_location, detect.gt_length)
    for sample in samples:
        if sample.kind == "detect" and sample.ok and sample.rows != expected[sample.detect.key]:
            result.mismatch(f"detect {sample.detect.key}: served {sample.rows} != in-process "
                            f"{expected[sample.detect.key]}")
    return hits


def check_sessions(result: RunResult, seed: int, samples: list[Sample]) -> None:
    """Replay every session in process; each poll must match bit for bit."""
    from repro import StreamingEnsembleDetector

    detectors = {
        session_name(index): StreamingEnsembleDetector(
            seed=session_seed(seed, index), **SESSION_CONFIG
        )
        for index in range(SESSIONS)
    }
    by_session: dict[str, list[Sample]] = {}
    for sample in samples:
        if sample.kind in ("append", "poll"):
            by_session.setdefault(sample.session, []).append(sample)
    for name, ops in by_session.items():
        detector = detectors[name]
        for sample in sorted(ops, key=lambda s: s.sent):
            if not sample.ok:
                break  # a failed append desynchronizes the replay; counted already
            if sample.kind == "append":
                detector.extend(sample.chunk)
                continue
            want = [detector.horizon_start, len(detector), anomaly_rows(detector.detect(K))]
            if sample.rows != want:
                result.mismatch(f"{name} poll at length {want[1]}: served {sample.rows} "
                                f"!= in-process {want}")
                break


def service_figures(before: dict, after: dict, role: str) -> tuple[float, int]:
    """Seconds and requests one role spent on the timed paths between two scrapes."""
    seconds, requests = 0.0, 0
    for key, value in after.items():
        stat, seen_role, _, path = key
        if seen_role != role or path not in TIMED_PATHS:
            continue
        delta = value - before.get(key, 0.0)
        if stat == "sum":
            seconds += delta
        else:
            requests += int(round(delta))
    return seconds, requests


def count(result: RunResult, samples: list[Sample]) -> None:
    result.attempted += len(samples)
    for sample in samples:
        if not sample.ok:
            result.fail(f"{sample.kind} {sample.session}: {sample.error}")


def measure(result: RunResult, cluster: Cluster, seed: int, seconds: float, probe: SpeedProbe):
    """Run one timed phase with outside-in layer readings around it."""
    begin = time.perf_counter()
    stats_before = get_json(cluster.node_port, "/v1/stats")
    node_before, router_before = scrape(cluster.node_port), scrape(cluster.port)
    started = time.perf_counter()
    samples = drive(cluster, seed, seconds, probe)
    ended = time.perf_counter()
    node_after, router_after = scrape(cluster.node_port), scrape(cluster.port)
    stats_after = get_json(cluster.node_port, "/v1/stats")
    readings = (started - begin) + (time.perf_counter() - ended)
    count(result, samples)

    # Server-side sums come without timestamps: they get the phase's median scale.
    scale = float(np.median([probe.scale(s.sent, s.done) for s in samples]))
    node_s, node_n = service_figures(node_before, node_after, "serve")
    router_s, router_n = service_figures(router_before, router_after, "router")
    node_ms = ms(node_s * scale / max(1, node_n))
    router_ms = ms(router_s * scale / max(1, router_n))
    client_ms = ms(np.mean([probe.normalize(s.sent, s.done) for s in samples]))
    batcher = (stats_before["batcher"], stats_after["batcher"])
    cache = (stats_before["cache"], stats_after["cache"])
    batches = batcher[1]["batches"] - batcher[0]["batches"]
    hits = cache[1]["hits"] - cache[0]["hits"]
    misses = cache[1]["misses"] - cache[0]["misses"]
    appends, polls = latencies(samples, probe, "append"), latencies(samples, probe, "poll")

    layers = {
        "service.http.node_ms": node_ms,
        "service.router.forward_ms": router_ms - node_ms,
        "service.client.overhead_ms": client_ms - router_ms,
        "service.batching.mean_batch_size": (
            (batcher[1]["dispatched"] - batcher[0]["dispatched"]) / max(1, batches)
        ),
        "service.cache.hit_ratio": hits / max(1, hits + misses),
        "service.snapshot.checkpoints": float(
            stats_after["sessions"]["snapshots_written"]
            - stats_before["sessions"]["snapshots_written"]
        ),
        "loadgen.lag_p95_ms": ms(percentile([s.idle for s in samples], 95)),
        "session.append_p50_ms": ms(percentile(appends, 50)),
        "session.append_p95_ms": ms(percentile(appends, 95)),
        "session.poll_p50_ms": ms(percentile(polls, 50)),
        "session.poll_p95_ms": ms(percentile(polls, 95)),
        "session.bytes": float(stats_after["sessions"]["memory_used"]),
        # The only tracing work is reading the counters before and after.
        "trace.overhead_ratio": (ended - started + readings) / (ended - started),
    }
    result.note("node_requests", node_n, "count")
    result.note("router_requests", router_n, "count")
    return samples, layers


def latencies(samples: list[Sample], probe: SpeedProbe, kind: str) -> list[float]:
    """Speed-normalized latency of every sample of one kind.

    A failed request counts as missing every limit: it enters as infinity.
    """
    return [
        probe.normalize(s.sent, s.done) if s.ok else float("inf")
        for s in samples
        if s.kind == kind
    ]


def warm_input(seed: int) -> DetectInput:
    from repro.datasets.planting import make_test_case
    from repro.datasets.ucr_like import DATASETS

    case = make_test_case(DATASETS[DETECT_DATASET], np.random.default_rng([seed, 7]))
    return DetectInput("warm-up", DETECT_DATASET, case.series, case.gt_location,
                       case.gt_length, 2**31 + 1)


def _finish(result: RunResult, cluster: Cluster) -> None:
    for problem in cluster.release():
        result.mismatch(problem)


def run(seed: int, seconds: float) -> RunResult:
    result = RunResult("served_mix")
    probe = SpeedProbe(every_core=True)
    warm = warm_input(seed)
    problems: list[str] = []
    setup_s, cluster = timed_setup(
        probe, lambda: Cluster(seed, warm), release=lambda old: problems.extend(old.release())
    )
    for problem in problems:
        result.mismatch(problem)
    try:
        samples, layers = measure(result, cluster, seed, seconds, probe)
        rss = cluster.peak_rss_mb()
    finally:
        _finish(result, cluster)
    hits = check(result, seed, samples)

    detects = latencies(samples, probe, "detect")
    good = [s for s in samples if s.ok]
    busy = sum(probe.normalize(s.sent, s.done) for s in good)
    result.metric("setup_s", setup_s, "s")
    result.metric("success_ratio", result.success_ratio(), "ratio")
    result.metric("points_per_s", sum(s.points for s in good) / busy, "1/s")
    result.metric("hit_rate", sum(hits.values()) / max(1, len(hits)), "ratio")
    result.metric("detect_p50_ms", ms(percentile(detects, 50)), "ms")
    result.metric("detect_p90_ms", ms(percentile(detects, 90)), "ms")
    result.metric("peak_rss_mb", rss, "MB")
    result.note("detect_p95_ms", ms(percentile(detects, 95)), "ms")
    raw = [s.done - s.sent for s in good if s.kind == "detect"]
    result.note("raw.detect_p50_ms", ms(percentile(raw, 50)), "ms")
    for name, value in layers.items():
        result.note(name, value, PER_LAYER_UNITS[name])
    for name in ("detect", "append", "poll"):
        result.note(f"{name}_requests", sum(s.kind == name for s in samples), "count")
    result.note("distinct_detects", len(hits), "count")
    return result


def run_traced(seed: int, seconds: float, tracer) -> tuple[RunResult, dict]:
    """Read the service layers from outside around one timed phase.

    Nothing is wrapped in the node or router: the per-layer figures are
    ``/v1/metrics`` and ``/v1/stats`` deltas, and the outputs are checked
    against in-process detection exactly as in the untraced run.
    """
    result = RunResult("served_mix")
    probe = SpeedProbe(every_core=True)
    cluster = Cluster(seed, warm_input(seed))
    try:
        samples, layers = measure(result, cluster, seed, seconds, probe)
    finally:
        _finish(result, cluster)
    check(result, seed, samples)
    return result, layers


if __name__ == "__main__":
    expected_rows(sys.argv[1])
