"""End-to-end telemetry smoke: JSON logs + metrics scrape on a real server.

Starts ``python -m repro serve --log-format json`` as a subprocess, sends
one traced detect request, and asserts the two operational contracts CI
relies on:

- every emitted log line parses as JSON, and the lines belonging to the
  traced request share its ``X-Request-Id``;
- ``GET /v1/metrics`` serves the Prometheus text format with the core
  series (request counts, latency histogram, stage histogram, stats
  gauges).

When ``$REPRO_SMOKE_ARTIFACT`` is set, the scrape is written there so the
CI job can upload it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.service import ServiceClient

BANNER = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")
CONFIG = dict(window=50, ensemble_size=5, max_paa_size=5, max_alphabet_size=5)


def make_series(seed: int = 0, n: int = 700) -> list[float]:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 14.0 * np.pi, n)
    series = np.sin(t) + 0.05 * rng.standard_normal(n)
    series[n // 2 : n // 2 + 60] *= 0.2
    return [float(v) for v in series]


def start_server(*extra_args: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise RuntimeError("server exited before binding")
        match = BANNER.search(line or "")
        if match:
            return process, int(match.group(1))
    process.kill()
    raise RuntimeError("server did not start within 60s")


def drain_output(process: subprocess.Popen) -> list[str]:
    """SIGTERM the server and return every remaining output line."""
    process.send_signal(signal.SIGTERM)
    output, _ = process.communicate(timeout=30)
    assert process.returncode == 0
    return [line for line in output.splitlines() if line.strip()]


def test_json_logs_share_request_id_and_metrics_scrape():
    process, port = start_server("--log-format", "json")
    trace_id = "smoke-trace-0001"
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", request_id=trace_id)
        response = client.detect(make_series(1), seed=1, k=2, **CONFIG)
        assert response["anomalies"]

        raw = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/metrics", timeout=30
        )
        scrape = raw.read().decode("utf-8")
        assert raw.headers["Content-Type"].startswith("text/plain; version=0.0.4")
    finally:
        lines = drain_output(process)

    # Core series in the scrape.
    assert "# TYPE repro_http_requests_total counter" in scrape
    assert (
        'repro_http_requests_total{role="serve",method="POST",path="/detect",status="200"} 1'
        in scrape
    )
    assert 'repro_http_request_seconds_bucket{role="serve",method="POST",path="/detect",le="+Inf"} 1' in scrape
    assert 'repro_stage_seconds_count{stage="grammar"}' in scrape
    assert "repro_service_batcher_dispatched 1" in scrape
    assert "repro_service_cache_misses 1" in scrape

    artifact = os.environ.get("REPRO_SMOKE_ARTIFACT")
    if artifact:
        Path(artifact).write_text(scrape)

    # Every non-banner line is JSON; the traced request's lines share its id.
    documents = []
    for line in lines:
        if line.startswith("serving on") or line.startswith("endpoints:") or line.startswith("serve:"):
            continue
        documents.append(json.loads(line))
    assert documents, "expected JSON log lines from the server"
    traced = [doc for doc in documents if doc["request_id"] == trace_id]
    access = [doc for doc in traced if doc.get("path") == "/v1/detect"]
    assert access and access[0]["status"] == 200
    assert all({"ts", "level", "logger", "message", "request_id"} <= set(doc) for doc in documents)


def test_text_logs_by_default_include_request_id():
    process, port = start_server()
    trace_id = "text-trace-0002"
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", request_id=trace_id)
        client.detect(make_series(2), seed=2, k=2, **CONFIG)
    finally:
        lines = drain_output(process)
    assert any(f"[{trace_id}]" in line for line in lines)
