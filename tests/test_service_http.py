"""End-to-end tests of ``python -m repro serve`` (the HTTP front end).

The server runs as a real subprocess (exactly as deployed); clients drive
it over HTTP with stdlib ``urllib``. Three contracts:

- **Parity** — served ``/detect``, ``/detect_batch``, and streaming-session
  responses are bitwise identical to the equivalent direct calls (floats
  survive the JSON round trip via shortest-repr serialization).
- **Concurrency** — many simultaneous clients all get correct answers, and
  the micro-batcher actually coalesces them.
- **Shutdown hygiene** — SIGTERM mid-batch exits cleanly with no leaked
  ``/dev/shm`` segments and no orphaned executor worker processes
  (extending the PR 2/3 leak checks to the serving layer).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.streaming import StreamingEnsembleDetector

SRC_DIR = str(Path(__file__).parent.parent / "src")

CONFIG = dict(window=50, ensemble_size=5, max_paa_size=5, max_alphabet_size=5)


def make_series(seed: int, n: int = 700) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 14.0 * np.pi, n)
    series = np.sin(t) + 0.05 * rng.standard_normal(n)
    series[n // 2 : n // 2 + 60] *= 0.2
    return series


def expected_payload(anomalies) -> list[dict]:
    return [
        {"rank": a.rank, "position": a.position, "length": a.length, "score": a.score}
        for a in anomalies
    ]


def start_server(*extra_args: str) -> tuple[subprocess.Popen, int]:
    """Launch ``python -m repro serve --port 0 ...``; returns (process, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30
    while True:
        line = process.stdout.readline()
        match = re.search(r"serving on http://127\.0\.0\.1:(\d+)", line or "")
        if match:
            return process, int(match.group(1))
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            raise RuntimeError(f"server failed to start: {line!r}")


def stop_server(process: subprocess.Popen) -> int:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=30)
    finally:
        if process.poll() is None:  # pragma: no cover — hung server
            process.kill()


def request(port: int, method: str, path: str, body=None, timeout: float = 60.0):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def server():
    """One shared server (inline executor) for the module."""
    process, port = start_server("--max-batch", "16")
    yield port
    assert stop_server(process) == 0


class TestHttpBasics:
    def test_healthz(self, server):
        assert request(server, "GET", "/healthz") == (200, {"status": "ok"})

    def test_unknown_route_404(self, server):
        status, body = request(server, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_wrong_method_405(self, server):
        status, body = request(server, "DELETE", "/sessions")
        assert status == 405

    def test_malformed_json_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server}/detect", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=30)
        assert info.value.code == 400

    def test_missing_window_400(self, server):
        status, body = request(server, "POST", "/detect", {"series": [1.0, 2.0, 3.0]})
        assert status == 400
        assert "window" in body["error"]["message"]

    def test_unknown_field_400(self, server):
        status, body = request(
            server, "POST", "/detect", {"series": [1.0] * 100, "window": 10, "bogus": 1}
        )
        assert status == 400
        assert "bogus" in body["error"]["message"]

    def test_unknown_numerosity_400(self, server):
        status, body = request(
            server,
            "POST",
            "/detect",
            {"series": [1.0] * 100, "window": 10, "numerosity": "bogus"},
        )
        assert status == 400
        assert "invalid detector configuration" in body["error"]["message"]

    def test_oversized_request_line_431(self, server):
        """A >64KiB request line gets a status, not a dropped connection."""
        req = urllib.request.Request(
            f"http://127.0.0.1:{server}/detect?pad=" + "x" * 70_000, method="GET"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=30)
        assert info.value.code == 431

    def test_invalid_series_is_batch_item_error(self, server):
        status, body = request(
            server,
            "POST",
            "/detect",
            {"series": [0.1, 0.2, 0.3], "window": 50, **{k: v for k, v in CONFIG.items() if k != "window"}},
        )
        assert status == 422
        assert body["error"]["code"] == "detection-failed"


class TestHttpParity:
    def test_detect_parity(self, server):
        series = make_series(1)
        status, body = request(
            server,
            "POST",
            "/detect",
            {"series": [float(v) for v in series], "k": 3, "seed": 11, **CONFIG},
        )
        assert status == 200
        direct = EnsembleGrammarDetector(seed=11, **CONFIG).detect(series, 3)
        assert body["anomalies"] == expected_payload(direct)
        assert body["cached"] is False

    def test_detect_cache_round_trip(self, server):
        series = make_series(2)
        payload = {"series": [float(v) for v in series], "k": 3, "seed": 12, **CONFIG}
        _, first = request(server, "POST", "/detect", payload)
        _, second = request(server, "POST", "/detect", payload)
        assert second["cached"] is True
        assert first["anomalies"] == second["anomalies"]

    def test_detect_batch_parity_with_partial_failure(self, server):
        series = [make_series(3), np.arange(8.0), make_series(4)]
        status, body = request(
            server,
            "POST",
            "/detect_batch",
            {"series": [[float(v) for v in s] for s in series], "k": 3, "seed": 9, **CONFIG},
        )
        assert status == 200
        assert body["failed"] == 1
        direct = EnsembleGrammarDetector(seed=9, **CONFIG).detect_batch(
            series, 3, return_exceptions=True
        )
        assert body["results"][0]["anomalies"] == expected_payload(direct[0])
        assert body["results"][2]["anomalies"] == expected_payload(direct[2])
        assert "error" in body["results"][1]

    def test_streaming_session_parity(self, server):
        series = make_series(42, 1600)
        chunks = [series[offset : offset + 400] for offset in range(0, 1600, 400)]
        status, body = request(
            server, "POST", "/sessions", {"name": "parity", "seed": 3, **CONFIG}
        )
        assert status == 200
        reference = StreamingEnsembleDetector(seed=3, **CONFIG)
        try:
            for chunk in chunks:
                status, info = request(
                    server,
                    "POST",
                    "/sessions/parity/append",
                    {"values": [float(v) for v in chunk]},
                )
                assert status == 200
                reference.extend(chunk)
                assert info["length"] == len(reference)
                status, poll = request(server, "GET", "/sessions/parity/poll?k=3")
                assert status == 200
                assert poll["anomalies"] == expected_payload(reference.detect(3))
        finally:
            status, closed = request(server, "DELETE", "/sessions/parity")
            assert status == 200
        status, listing = request(server, "GET", "/sessions")
        assert all(s["name"] != "parity" for s in listing["sessions"])

    def test_concurrent_clients_all_correct(self, server):
        """32 simultaneous clients; every response must match its direct run."""
        clients = 32
        series = [make_series(100 + i, 400) for i in range(clients)]

        def one(i):
            return request(
                server,
                "POST",
                "/detect",
                {"series": [float(v) for v in series[i]], "k": 2, "seed": 100 + i, **CONFIG},
            )

        with ThreadPoolExecutor(max_workers=clients) as pool:
            responses = list(pool.map(one, range(clients)))
        for i, (status, body) in enumerate(responses):
            assert status == 200
            direct = EnsembleGrammarDetector(seed=100 + i, **CONFIG).detect(series[i], 2)
            assert body["anomalies"] == expected_payload(direct)
        status, stats = request(server, "GET", "/stats")
        assert stats["batcher"]["submitted"] >= clients
        # Coalescing happened: strictly fewer batches than requests.
        assert stats["batcher"]["batches"] < stats["batcher"]["dispatched"]


class TestShutdownHygiene:
    """Killing the server mid-batch must leak nothing (satellite contract)."""

    def test_sigterm_mid_batch_leaves_no_shm_or_workers(self, shm_segments):
        before = shm_segments()
        process, port = start_server("--executor", "process", "--n-jobs", "2")
        try:
            # A request heavy enough to still be in flight when SIGTERM lands.
            # Executors carry whole series, so it is a batch: one series
            # would run in the node and never start the pool.
            series = [[float(v) for v in make_series(seed, 30_000)] for seed in (7, 8, 9)]
            payload = {
                "series": series,
                "k": 3,
                "seed": 5,
                "window": 200,
                "ensemble_size": 10,
            }
            with ThreadPoolExecutor(max_workers=1) as pool:
                in_flight = pool.submit(
                    request, port, "POST", "/v1/detect_batch", payload, 120.0
                )
                # Wait until the pool has spawned workers (the batch is live).
                worker_pids: list[int] = []
                deadline = time.monotonic() + 30
                while not worker_pids and time.monotonic() < deadline:
                    _, stats = request(port, "GET", "/stats")
                    worker_pids = stats["executor"]["worker_pids"]
                    time.sleep(0.05)
                assert worker_pids, "process pool never spawned"
                assert stop_server(process) == 0
                # The in-flight client sees either a completed result (the
                # graceful drain finished it) or a dropped connection.
                try:
                    in_flight.result(timeout=60)
                except Exception:
                    pass
        finally:
            stop_server(process)
        # No orphaned executor workers...
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [pid for pid in worker_pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.1)
        assert not alive, f"orphaned executor workers: {alive}"
        # ...and no leaked shared-memory segments.
        assert shm_segments() == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_sigkill_takes_the_pool_workers_with_the_node(self, shm_segments):
        """A SIGKILLed node cannot shut its pool down: each worker notices
        it was orphaned and exits by itself within a few seconds."""
        before = shm_segments()
        process, port = start_server("--executor", "process", "--n-jobs", "2")
        try:
            # Two series, so the batch reaches the process pool.
            series = [[float(v) for v in make_series(seed, 2_000)] for seed in (7, 8)]
            payload = {"series": series, "k": 3, "seed": 5, "window": 50, "ensemble_size": 5}
            status, _ = request(port, "POST", "/v1/detect_batch", payload)
            assert status == 200
            _, stats = request(port, "GET", "/stats")
            worker_pids = stats["executor"]["worker_pids"]
            assert worker_pids, "process pool never spawned"
            assert all(_pid_running(pid) for pid in worker_pids)
        finally:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()
        deadline = time.monotonic() + 5
        alive = worker_pids
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in worker_pids if _pid_running(pid)]
        assert not alive, f"workers outlived their SIGKILLed node: {alive}"
        assert shm_segments() == before

    def test_sigterm_with_live_session_exits_clean(self, shm_segments):
        before = shm_segments()
        process, port = start_server("--executor", "process", "--n-jobs", "2")
        try:
            request(port, "POST", "/sessions", {"name": "live", "seed": 1, **CONFIG})
            request(
                port,
                "POST",
                "/sessions/live/append",
                {"values": [float(v) for v in make_series(1)]},
            )
            status, poll = request(port, "GET", "/sessions/live/poll")
            assert status == 200
        finally:
            assert stop_server(process) == 0
        assert shm_segments() == before


def _pid_running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (an exited orphan stays a
    zombie until whatever adopted it reaps it)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover — pid reused by another user
        return True
    return True
