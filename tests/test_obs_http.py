"""HTTP-layer telemetry, in process: ``/v1/metrics``, ids, error envelope.

Drives real :class:`~repro.service.http.ServiceHTTPServer` and
:class:`~repro.service.router.RouterHTTPServer` instances bound to
ephemeral ports inside one event loop (urllib calls hop through
``asyncio.to_thread`` so the loop keeps serving). Covers:

- the Prometheus exposition on both roles (core series present, stats
  gauges re-exported, the right ``Content-Type``);
- ``X-Request-Id`` honoring/minting/echoing, including the response to
  an unusable client-supplied id;
- the regression guard: an unexpected handler exception must come back
  as the uniform ``{"error": {code, message}}`` envelope with a
  structured traceback log carrying the request id.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.expfmt import EXPOSITION_CONTENT_TYPE
from repro.obs.logging import setup_logging
from repro.service import DetectService
from repro.service.http import ServiceHTTPServer
from repro.service.router import RouterHTTPServer, SessionRouter

CONFIG = dict(window=50, ensemble_size=4, max_paa_size=5, max_alphabet_size=5)


@pytest.fixture()
def json_log_stream():
    """Route ``repro.*`` records through the real JSON handler into a buffer."""
    stream = io.StringIO()
    setup_logging(log_format="json", level="info", stream=stream)
    yield stream
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    logger.propagate = True
    logger.setLevel(logging.NOTSET)


def make_series(seed: int = 0, n: int = 600) -> list[float]:
    rng = np.random.default_rng(seed)
    series = np.sin(np.linspace(0.0, 12.0 * np.pi, n)) + 0.05 * rng.standard_normal(n)
    return [float(v) for v in series]


def _fetch(port: int, path: str, body: dict | None = None, headers: dict | None = None):
    """Blocking urllib call returning ``(status, headers, raw-bytes)``."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method="POST" if data else "GET",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


async def _get(port: int, path: str, body=None, headers=None):
    return await asyncio.to_thread(_fetch, port, path, body, headers)


# ----------------------------------------------------------------------
# Serve node.
# ----------------------------------------------------------------------


def test_service_metrics_exposition():
    async def main():
        async with DetectService() as service:
            server = ServiceHTTPServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                status, _, _ = await _get(
                    port := server.port, "/v1/detect",
                    {"series": make_series(), "k": 2, "seed": 1, **CONFIG},
                )
                assert status == 200
                status, headers, raw = await _get(port, "/v1/metrics")
            finally:
                await server.aclose()
        return status, headers, raw.decode()

    status, headers, text = asyncio.run(main())
    assert status == 200
    assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE
    # Core request series with role/path labels and the latency histogram.
    assert '# TYPE repro_http_requests_total counter' in text
    assert 'repro_http_requests_total{role="serve",method="POST",path="/detect",status="200"}' in text
    assert '# TYPE repro_http_request_seconds histogram' in text
    assert 'repro_http_request_seconds_bucket{role="serve",method="POST",path="/detect",le="+Inf"}' in text
    # Stage histogram fed by the detect above.
    assert '# TYPE repro_stage_seconds histogram' in text
    assert 'repro_stage_seconds_count{stage="grammar"}' in text
    # stats() re-exported as gauges at scrape time.
    assert "repro_service_batcher_dispatched" in text
    assert "repro_service_cache_misses" in text


def test_request_id_honored_minted_and_echoed():
    async def main():
        async with DetectService() as service:
            server = ServiceHTTPServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                port = server.port
                _, echoed, _ = await _get(
                    port, "/v1/healthz", headers={"X-Request-Id": "my-trace-1"}
                )
                _, minted, _ = await _get(port, "/v1/healthz")
                _, replaced, _ = await _get(
                    port, "/v1/healthz", headers={"X-Request-Id": "bad id with spaces!"}
                )
            finally:
                await server.aclose()
        return echoed, minted, replaced

    echoed, minted, replaced = asyncio.run(main())
    assert echoed["X-Request-Id"] == "my-trace-1"
    assert minted["X-Request-Id"]  # freshly minted
    assert replaced["X-Request-Id"] != "bad id with spaces!"


def test_unexpected_handler_crash_returns_envelope_and_logs_traceback(json_log_stream):
    class CrashingServer(ServiceHTTPServer):
        def _route(self, method, path):
            if path == "/v1/healthz":
                async def boom(payload, query):
                    raise RuntimeError("instrumented crash")
                return boom, (), False
            return super()._route(method, path)

    async def main():
        async with DetectService() as service:
            server = CrashingServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                return await _get(
                    server.port, "/v1/healthz", headers={"X-Request-Id": "crash-trace"}
                )
            finally:
                await server.aclose()

    status, headers, raw = asyncio.run(main())
    assert status == 500
    envelope = json.loads(raw)["error"]
    assert envelope["code"] == "internal"
    assert "RuntimeError: instrumented crash" in envelope["message"]
    assert headers["X-Request-Id"] == "crash-trace"
    lines = [json.loads(line) for line in json_log_stream.getvalue().splitlines()]
    (crash,) = [line for line in lines if "unhandled error" in line["message"]]
    assert crash["level"] == "error"
    assert crash["request_id"] == "crash-trace"
    assert "RuntimeError: instrumented crash" in crash["traceback"]


def test_detect_opt_in_timings_block():
    async def main():
        async with DetectService() as service:
            server = ServiceHTTPServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                body = {"series": make_series(), "k": 2, "seed": 1, **CONFIG}
                _, _, plain = await _get(server.port, "/v1/detect", body)
                _, _, timed = await _get(
                    server.port, "/v1/detect", {**body, "seed": 2, "timings": True}
                )
                _, _, cached = await _get(
                    server.port, "/v1/detect", {**body, "seed": 2, "timings": True}
                )
            finally:
                await server.aclose()
        return json.loads(plain), json.loads(timed), json.loads(cached)

    plain, timed, cached = asyncio.run(main())
    assert "timings" not in plain
    assert {"grammar", "density", "combine"} <= set(timed["timings"])
    assert all(value >= 0.0 for value in timed["timings"].values())
    # Cache hits report an empty block (nothing ran).
    assert cached["cached"] is True and cached["timings"] == {}


def test_detect_timings_cover_members_under_every_executor(executor_kind):
    """A one-series detect runs its members in the node, never in executor
    workers, so its timings block carries every member stage."""

    async def main():
        async with DetectService(executor=executor_kind) as service:
            server = ServiceHTTPServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                body = {"series": make_series(), "k": 2, "seed": 3, "timings": True, **CONFIG}
                _, _, timed = await _get(server.port, "/v1/detect", body)
            finally:
                await server.aclose()
        return json.loads(timed)

    timings = asyncio.run(main())["timings"]
    assert all(timings[stage] > 0.0 for stage in ("discretize", "grammar", "density"))


# ----------------------------------------------------------------------
# Router.
# ----------------------------------------------------------------------


def test_router_metrics_exposition():
    async def main():
        router = SessionRouter(["127.0.0.1:9"])  # never contacted
        server = RouterHTTPServer(router, "127.0.0.1", 0)
        await server.start()
        try:
            await _get(server.port, "/v1/healthz")
            status, headers, raw = await _get(server.port, "/v1/metrics")
        finally:
            await server.aclose()
        return status, headers, raw.decode()

    status, headers, text = asyncio.run(main())
    assert status == 200
    assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE
    assert 'repro_http_requests_total{role="router",method="GET",path="/healthz",status="200"}' in text
    # Router stats() re-exported, including the host:port-keyed nodes map.
    assert "repro_router_sessions" in text
    assert 'repro_router_nodes{key="127.0.0.1:9"}' in text


def test_slow_request_threshold_logs_warning(caplog):
    async def main():
        async with DetectService() as service:
            server = ServiceHTTPServer(service, "127.0.0.1", 0, slow_request_ms=0.0)
            await server.start()
            try:
                await _get(server.port, "/v1/healthz")
            finally:
                await server.aclose()

    with caplog.at_level(logging.INFO, logger="repro.service.http"):
        asyncio.run(main())
    slow = [r for r in caplog.records if "(slow)" in r.getMessage()]
    assert slow and slow[0].levelno == logging.WARNING


def test_router_access_line_names_the_node_and_its_time(caplog):
    """``duration_ms - upstream_ms`` is the router's own cost of a request."""

    async def main():
        async with DetectService(cache_entries=0) as service:
            node = ServiceHTTPServer(service, "127.0.0.1", 0)
            await node.start()
            router = SessionRouter([f"127.0.0.1:{node.port}"])
            server = RouterHTTPServer(router, "127.0.0.1", 0, slow_request_ms=0.0)
            await server.start()
            try:
                status, _, _ = await _get(
                    server.port, "/v1/detect", {"series": make_series(), "seed": 1, **CONFIG}
                )
                await _get(server.port, "/v1/healthz")
            finally:
                await server.aclose()
                await router.aclose()
                await node.aclose()
        return status, f"127.0.0.1:{node.port}"

    with caplog.at_level(logging.INFO, logger="repro.service.http"):
        status, addr = asyncio.run(main())
    assert status == 200
    lines = [r for r in caplog.records if getattr(r, "role", None) == "router"]
    detect = next(r for r in lines if r.path == "/v1/detect")
    # The slow line (threshold 0) carries the hop in its text and extras.
    assert detect.levelno == logging.WARNING
    assert detect.node == addr
    assert 0.0 < detect.upstream_ms <= detect.duration_ms
    assert f"node {addr} " in detect.getMessage()
    # A request the router answers itself names no node.
    healthz = next(r for r in lines if r.path == "/v1/healthz")
    assert not hasattr(healthz, "node") and not hasattr(healthz, "upstream_ms")


def test_split_batch_access_line_names_every_node_and_the_fan_out_time(caplog):
    """Chunks run at once: ``upstream_ms`` is their wall time, not their sum."""
    from test_router_relay import FakeNode, response

    def answer(path, body):
        count = len(json.loads(body)["series"])
        reply = {"results": [{"anomalies": []}] * count, "failed": 0}
        return 0.3, response(200, json.dumps(reply).encode())

    async def main():
        nodes = [FakeNode(answer), FakeNode(answer)]
        addrs = [await node.start(host=f"127.0.0.{i + 1}") for i, node in enumerate(nodes)]
        router = SessionRouter(addrs)
        server = RouterHTTPServer(router, "127.0.0.1", 0)
        await server.start()
        try:
            body = {"series": [make_series(i, 100) for i in range(4)], "seed": 1, **CONFIG}
            status, _, _ = await _get(server.port, "/v1/detect_batch", body)
        finally:
            await server.aclose()
            await router.aclose()
            for node in nodes:
                await node.aclose()
        return status, addrs

    with caplog.at_level(logging.INFO, logger="repro.service.http"):
        status, addrs = asyncio.run(main())
    assert status == 200
    line = next(
        r for r in caplog.records
        if getattr(r, "role", None) == "router" and r.path == "/v1/detect_batch"
    )
    assert line.node == ",".join(addrs)
    # Each chunk takes 300 ms: the sum over the two would be 600.
    assert 300.0 <= line.upstream_ms < 600.0
    assert line.upstream_ms <= line.duration_ms
    assert f"node {line.node} " in line.getMessage()
