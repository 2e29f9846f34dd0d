"""The router as a byte-level relay over pooled keep-alive connections.

In process, one event loop: a :class:`FakeNode` (a small asyncio server
that records the raw bytes of every request it receives and answers with
fixed bytes) or a real :class:`~repro.service.http.ServiceHTTPServer`
stands behind a :class:`~repro.service.router.RouterHTTPServer` bound to
an ephemeral port. Blocking ``http.client`` calls hop through
``asyncio.to_thread`` so the loop keeps serving. Covers:

- request bodies reach the node byte for byte and replies reach the client
  byte for byte (no JSON re-encoding in either direction), and bodies the
  router cannot parse still get the node's own 400 envelope;
- a request that timed out closes its connection, so the next request
  reads its own reply and never the late one;
- a node restarted on the same port is reached on a fresh connection and
  stays ``alive``; one that was marked dead meanwhile is probed back to
  life by the next detect, with no ``/v1/nodes`` call in between;
- router shutdown closes every pooled connection (the node sees each one
  go, and nothing is left for the garbage collector to warn about);
- a failure mid-append is a ``_NodeDown`` and the append reached the node
  exactly once (no silent resend).
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import warnings

import numpy as np
import pytest

from repro.service import DetectService
from repro.service.http import ServiceHTTPServer
from repro.service.router import (
    RouterHTTPServer,
    SessionRouter,
    _ConnectionPool,
    _http_request,
    _NodeDown,
    serve_router,
)

CONFIG = dict(window=40, ensemble_size=4, max_paa_size=5, max_alphabet_size=5)


def make_series(seed: int = 0, n: int = 400) -> list[float]:
    rng = np.random.default_rng(seed)
    series = np.sin(np.linspace(0.0, 10.0 * np.pi, n)) + 0.05 * rng.standard_normal(n)
    return [float(v) for v in series]


def response(status: int, body: bytes, *extra: str) -> bytes:
    head = [f"HTTP/1.1 {status} X", "Content-Type: application/json", f"Content-Length: {len(body)}"]
    return ("\r\n".join([*head, *extra]) + "\r\n\r\n").encode("latin-1") + body


class FakeNode:
    """A stand-in serve node that records raw requests and answers fixed bytes.

    ``answer(path, body)`` returns ``(delay_s, reply_bytes)``; a ``None``
    reply closes the connection without answering.
    """

    def __init__(self, answer) -> None:
        self.answer = answer
        self.requests: list[tuple[bytes, bytes]] = []  # (head, body) as received
        self.connections = 0

    async def start(self, port: int = 0, host: str = "127.0.0.1") -> str:
        """Listen on ``host`` (any 127.x.y.z stands in for another host)."""
        self._server = await asyncio.start_server(self._serve, host, port)
        return f"{host}:{self._server.sockets[0].getsockname()[1]}"

    async def aclose(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    def bodies(self, path: str) -> list[bytes]:
        return [body for head, body in self.requests if head.split()[1] == path.encode()]

    async def _serve(self, reader, writer) -> None:
        self.connections += 1
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                body = await reader.readexactly(length)
                self.requests.append((head, body))
                delay, reply = self.answer(head.split()[1].decode(), body)
                await asyncio.sleep(delay)
                if reply is None:
                    return
                writer.write(reply)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        finally:
            writer.close()


def _post(port: int, path: str, body: bytes) -> tuple[int, dict, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, dict(reply.getheaders()), reply.read()
    finally:
        conn.close()


async def post(port: int, path: str, body: bytes):
    return await asyncio.to_thread(_post, port, path, body)


async def start_router(nodes: list[str], **kwargs) -> tuple[SessionRouter, RouterHTTPServer]:
    router = SessionRouter(nodes, **kwargs)
    server = RouterHTTPServer(router, "127.0.0.1", 0)
    await server.start()
    return router, server


async def stop_router(router: SessionRouter, server: RouterHTTPServer) -> None:
    await server.aclose()
    await router.aclose()


# ----------------------------------------------------------------------
# (a) Bytes in, bytes out.
# ----------------------------------------------------------------------

#: Valid JSON that no encoder would write back: a re-encode would change it.
ODD_DETECT = b'{"series" : [1.50, 1e0,   2.0E-1 ],\n "window":  3 ,"k":1}'
ODD_REPLY = b'{"anomalies": [ {"rank": 1, "position": 0, "length": 3, "score": 1.50} ],  "n": 1e0}'


def test_detect_bodies_are_relayed_byte_for_byte():
    async def main():
        node = FakeNode(lambda path, body: (0.0, response(200, ODD_REPLY)))
        addr = await node.start()
        router, server = await start_router([addr])
        try:
            results = [
                await post(server.port, path, ODD_DETECT)
                for path in ("/v1/detect", "/v1/detect_batch", "/v1/detect")
            ]
        finally:
            await stop_router(router, server)
            await node.aclose()
        return node, results

    node, results = asyncio.run(main())
    assert [status for status, _, _ in results] == [200, 200, 200]
    assert all(body == ODD_REPLY for _, _, body in results)
    assert node.bodies("/v1/detect") == [ODD_DETECT, ODD_DETECT]
    assert node.bodies("/v1/detect_batch") == [ODD_DETECT]
    # Three requests, one keep-alive connection.
    assert node.connections == 1


def test_unparseable_bodies_get_the_nodes_own_400():
    async def main():
        async with DetectService() as service:
            node = ServiceHTTPServer(service, "127.0.0.1", 0)
            await node.start()
            router, server = await start_router([f"127.0.0.1:{node.port}"])
            try:
                out = []
                for body in (b"{not json", b"[1.0, 2.0]", b'"series"'):
                    routed = await post(server.port, "/v1/detect", body)
                    direct = await post(node.port, "/v1/detect", body)
                    out.append((routed, direct))
                alive = router.alive[f"127.0.0.1:{node.port}"]
            finally:
                await stop_router(router, server)
                await node.aclose()
        return out, alive

    out, alive = asyncio.run(main())
    for (status, headers, body), (direct_status, _, direct_body) in out:
        assert status == direct_status == 400
        assert body == direct_body
        assert headers["Content-Type"] == "application/json"
        assert "error" in json.loads(body)
    assert json.loads(out[0][0][2])["error"]["message"].startswith("request body is not valid JSON")
    assert json.loads(out[1][0][2])["error"]["code"] == "bad-request"
    assert alive  # a 400 is the node answering, not the node failing


# ----------------------------------------------------------------------
# (b) A timed-out request never leaves its late reply for the next one.
# ----------------------------------------------------------------------


def test_a_stalled_reply_is_never_read_by_the_next_request():
    def answer(path, body):
        delay = 0.5 if path == "/slow" else 0.0
        return delay, response(200, json.dumps({"path": path}).encode())

    async def main():
        node = FakeNode(answer)
        addr = await node.start()
        pool = _ConnectionPool()
        try:
            await _http_request(pool, addr, "GET", "/warm", timeout=5.0)  # pooled now
            with pytest.raises(_NodeDown):
                await _http_request(pool, addr, "GET", "/slow", timeout=0.1)
            replies = [
                await _http_request(pool, addr, "GET", f"/next{i}", timeout=5.0)
                for i in range(2)
            ]
            await asyncio.sleep(0.6)  # the late reply has been written by now
            replies.append(await _http_request(pool, addr, "GET", "/last", timeout=5.0))
        finally:
            await pool.aclose()
            await node.aclose()
        return [reply.json()["path"] for reply in replies]

    assert asyncio.run(main()) == ["/next0", "/next1", "/last"]


# ----------------------------------------------------------------------
# (c) A node restarted on the same port.
# ----------------------------------------------------------------------


def test_a_restarted_node_is_reached_on_a_fresh_connection():
    async def main():
        async with DetectService(cache_entries=0) as service:
            node = ServiceHTTPServer(service, "127.0.0.1", 0)
            await node.start()
            addr = f"127.0.0.1:{node.port}"
            router, server = await start_router([addr])
            body = json.dumps({"series": make_series(1), "seed": 1, **CONFIG}).encode()
            try:
                before = await post(server.port, "/v1/detect", body)
                await node.aclose()
                node = ServiceHTTPServer(service, "127.0.0.1", node.port)
                await node.start()
                after = await post(server.port, "/v1/detect", body)
                alive = router.alive[addr]
            finally:
                await stop_router(router, server)
                await node.aclose()
        return before, after, alive

    before, after, alive = asyncio.run(main())
    assert before[0] == after[0] == 200
    assert after[2] == before[2]
    assert alive


def test_a_node_marked_dead_is_probed_back_by_the_next_detect():
    def answer(path, body):
        return 0.0, response(200, b'{"status": "ok"}' if path == "/v1/healthz" else ODD_REPLY)

    async def main():
        node = FakeNode(answer)
        addr = await node.start()
        port = int(addr.rpartition(":")[2])
        router, server = await start_router([addr])
        try:
            await node.aclose()
            down = await post(server.port, "/v1/detect", ODD_DETECT)
            marked = router.alive[addr]
            node = FakeNode(answer)
            await node.start(port)
            back = await post(server.port, "/v1/detect", ODD_DETECT)
            alive = router.alive[addr]
        finally:
            await stop_router(router, server)
            await node.aclose()
        return down, marked, back, alive, node

    down, marked, back, alive, node = asyncio.run(main())
    assert down[0] == 504 and json.loads(down[2])["error"]["code"] == "node-unavailable"
    assert marked is False
    assert (back[0], back[2]) == (200, ODD_REPLY)
    assert alive
    assert [head.split()[1] for head, _body in node.requests] == [b"/v1/healthz", b"/v1/detect"]


# ----------------------------------------------------------------------
# (d) Shutdown closes every pooled connection.
# ----------------------------------------------------------------------


def test_router_shutdown_closes_every_pooled_connection():
    async def main():
        async with DetectService(cache_entries=0) as service:
            node = ServiceHTTPServer(service, "127.0.0.1", 0)
            await node.start()
            router = SessionRouter([f"127.0.0.1:{node.port}"])
            bound = asyncio.Event()
            ports = []

            def ready(server) -> None:
                ports.append(server.port)
                bound.set()

            task = asyncio.create_task(serve_router(router, "127.0.0.1", 0, ready=ready))
            try:
                await bound.wait()
                body = json.dumps({"series": make_series(2), "seed": 2, **CONFIG}).encode()
                # Concurrent clients leave more than one connection pooled.
                results = await asyncio.gather(
                    *(post(ports[0], "/v1/detect", body) for _ in range(3))
                )
                pooled = sum(len(idle) for idle in router._pool._idle.values())
                open_before = len(node._connections)
                task.cancel()  # the shutdown path serve_router runs on SIGTERM
                with pytest.raises(asyncio.CancelledError):
                    await task
                for _ in range(200):
                    if not node._connections:
                        break
                    await asyncio.sleep(0.01)
                open_after = len(node._connections)
            finally:
                await node.aclose()
        return results, pooled, open_before, open_after

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results, pooled, open_before, open_after = asyncio.run(main())
        gc.collect()
    assert all(status == 200 for status, _, _ in results)
    assert pooled >= 1 and open_before == pooled
    assert open_after == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# ----------------------------------------------------------------------
# (e) A failure mid-append: no resend.
# ----------------------------------------------------------------------


def test_a_failure_mid_append_reaches_the_node_once():
    def answer(path, body):
        if path.endswith("/append"):
            return 0.0, None  # read the append, then hang up without a reply
        return 0.0, response(200, b'{"name": "t.feed"}')

    async def main():
        node = FakeNode(answer)
        addr = await node.start()
        router, server = await start_router([addr])
        pool = _ConnectionPool()
        try:
            create = await post(
                server.port, "/v1/sessions", json.dumps({"name": "t.feed", **CONFIG}).encode()
            )
            chunk = b'{"values": [1.0, 2.0, 3.0]}'
            append = await post(server.port, "/v1/sessions/t.feed/append", chunk)
            # The same at the transport: a pooled connection, then the drop.
            await _http_request(pool, addr, "GET", "/v1/healthz", timeout=5.0)
            with pytest.raises(_NodeDown):
                await _http_request(pool, addr, "POST", "/direct/append", chunk, timeout=5.0)
        finally:
            await pool.aclose()
            await stop_router(router, server)
            await node.aclose()
        return node, create, append, chunk

    node, create, append, chunk = asyncio.run(main())
    assert create[0] == 200
    # No node left to recover on: the router answers 504, retryable.
    assert append[0] == 504
    assert json.loads(append[2])["error"]["code"] == "node-unavailable"
    assert append[1]["Retry-After"] == "1"
    assert node.bodies("/v1/sessions/t.feed/append") == [chunk]
    assert node.bodies("/direct/append") == [chunk]
