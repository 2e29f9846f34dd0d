"""Thin asyncio HTTP/1.1 front end over :class:`~repro.service.core.DetectService`.

Pure stdlib (``asyncio.start_server`` + ``json``) — the library adds no
server dependency; the front end is deliberately minimal (JSON in/out,
keep-alive, content-length bodies) and every behaviour that matters lives
in the transport-agnostic core where it is unit-tested directly. Request
bodies are read as bytes and decoded as JSON only for the handlers that
need an object; a handler marked :func:`raw_body` gets the bytes, and a
bytes response goes out as written (the router relays both this way).

Endpoints (v1)
--------------
The canonical surface lives under ``/v1``; every route is also reachable
without the prefix as a **deprecated alias** (answered with a
``Deprecation: true`` header) so pre-v1 clients keep working.

==========  ==================================  ===================================
Method      Path                                Meaning
==========  ==================================  ===================================
GET         ``/v1/healthz``                     liveness probe
GET         ``/v1/stats``                       batcher/cache/session/executor counters
GET         ``/v1/metrics``                     Prometheus text exposition (registry +
                                                ``stats()`` re-exported as gauges)
GET         ``/v1/nodes``                       this node's identity (router: all nodes)
POST        ``/v1/detect``                      one series; micro-batched + cached
POST        ``/v1/detect_batch``                many series; partial results on failure
GET         ``/v1/sessions``                    list live streaming sessions
POST        ``/v1/sessions``                    create a named streaming session
GET         ``/v1/sessions/{name}``             one session's info document
POST        ``/v1/sessions/{name}/append``      feed a chunk into a session
GET/POST    ``/v1/sessions/{name}/anomalies``   ranked anomalies (``?k=3`` / body ``k``;
                                                alias ``/poll``)
POST        ``/v1/sessions/{name}/snapshot``    checkpoint the session now
POST        ``/v1/sessions/{name}/restore``     bring it back from the latest snapshot
DELETE      ``/v1/sessions/{name}``             close (``?keep_snapshots=1`` for
                                                migration semantics)
==========  ==================================  ===================================

Errors use one uniform envelope —
``{"error": {"code", "message"[, "retry_after"]}}`` — and retryable
failures (429/503/507) also carry a ``Retry-After`` header. A name that
*was* a session answers 410 (``session-gone``), distinct from the 404 a
never-created name gets.

Request/response floats survive bitwise: ``json`` serializes via
``float.__repr__`` (shortest round-tripping form), so a served score
compares equal to the directly computed one.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import json
import math
import os
import signal
import time
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.core.executors import BatchItemError
from repro.obs.context import bind_request_id, ensure_request_id
from repro.obs.expfmt import EXPOSITION_CONTENT_TYPE, render_registry
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY, stats_families
from repro.service.core import DetectService
from repro.service.errors import BadRequest, ServiceError, error_payload

__all__ = ["BaseHTTPServer", "ServiceHTTPServer", "access_fields", "raw_body", "serve"]

_log = get_logger("service.http")

#: Extra fields of the current request's access-log line (the router adds
#: ``node`` and ``upstream_ms``); each request binds a fresh dict.
_ACCESS_FIELDS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "repro_access_fields", default=None
)


def access_fields() -> dict:
    """The current request's extra access-log fields, to fill in place.

    Outside a request this is a throwaway dict, so callers need not check.
    """
    fields = _ACCESS_FIELDS.get()
    return {} if fields is None else fields


def raw_body(handler: Callable) -> Callable:
    """Mark a handler that takes the request body as bytes, not parsed JSON."""
    handler.raw_body = True
    return handler


#: Requests slower than this (seconds) get a WARNING log line; the CLI
#: ``--slow-request-ms`` flag and ``REPRO_SLOW_REQUEST_MS`` override it.
DEFAULT_SLOW_REQUEST_SECONDS = 1.0

_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by role/method/normalized path/status",
    labelnames=("role", "method", "path", "status"),
)
_LATENCY = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request latency in seconds, by role/method/normalized path",
    labelnames=("role", "method", "path"),
)

#: First path segments with bounded cardinality; anything else (scanner
#: noise, typos) is folded into ``other`` so the label set stays small.
_KNOWN_SEGMENTS = frozenset(
    ("healthz", "stats", "nodes", "metrics", "detect", "detect_batch", "sessions")
)


def _metric_path(path: str) -> str:
    """Normalize a request path for metric labels (bounded cardinality)."""
    sub = path[len("/v1") :] or "/" if path == "/v1" or path.startswith("/v1/") else path
    segments = [segment for segment in sub.split("/") if segment]
    if not segments or segments[0] not in _KNOWN_SEGMENTS:
        return "other"
    if segments[0] == "sessions" and len(segments) >= 2:
        segments[1] = "{name}"
    return "/" + "/".join(segments[:3])

#: Largest accepted request body (a 64 MiB JSON series is ~4M points).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Header lines accepted per request (past this the request is rejected).
MAX_HEADER_COUNT = 256

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    507: "Insufficient Storage",
}

#: Detector-configuration keys a detect request may carry (everything else
#: in the body is rejected, catching typos early).
CONFIG_KEYS = (
    "window",
    "max_paa_size",
    "max_alphabet_size",
    "ensemble_size",
    "selectivity",
    "combiner",
    "numerosity",
    "znorm_threshold",
)

#: Session-configuration keys accepted by ``POST /sessions``.
SESSION_CONFIG_KEYS = CONFIG_KEYS + ("capacity", "policy", "segments", "seed")


class _HttpError(Exception):
    """Protocol-level failure mapped straight to a status/body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _split_config(payload: dict, allowed: tuple[str, ...], reserved: tuple[str, ...]) -> dict:
    """Extract detector config keys from a request body; reject strays."""
    config = {key: payload[key] for key in allowed if key in payload}
    strays = set(payload) - set(allowed) - set(reserved)
    if strays:
        raise BadRequest(f"unknown request field(s): {sorted(strays)}")
    return config


class BaseHTTPServer:
    """Connection handling + request parsing shared by every front end.

    Subclasses implement :meth:`_route` (and their handlers); the base owns
    the asyncio server lifecycle, HTTP/1.1 parsing with bounded headers and
    bodies, the uniform error envelope, keep-alive, and response writing.
    The router front end (:mod:`repro.service.router`) reuses all of it.
    """

    #: Metric label distinguishing the front ends sharing one registry.
    metrics_role = "serve"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        slow_request_ms: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        if slow_request_ms is None:
            slow_request_ms = float(
                os.environ.get("REPRO_SLOW_REQUEST_MS", DEFAULT_SLOW_REQUEST_SECONDS * 1000.0)
            )
        self.slow_request_seconds = slow_request_ms / 1000.0
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind and start accepting; ``port=0`` resolves to the bound port."""
        self._server = await asyncio.start_server(self._client_connected, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop accepting, then drop connections parked between requests."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    def _client_connected(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.get_running_loop().create_task(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    await self._respond(
                        writer,
                        error.status,
                        {"error": {"code": "http", "message": str(error)}},
                        keep_alive=False,
                    )
                    return
                except (ValueError, asyncio.LimitOverrunError):
                    # A request or header line over the StreamReader limit
                    # (64 KiB) surfaces as ValueError from readline();
                    # answer with a status instead of dropping the socket.
                    await self._respond(
                        writer,
                        431,
                        {
                            "error": {
                                "code": "http",
                                "message": "request line or header section too large",
                            }
                        },
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return
                method, path, query, raw, keep_alive, req_headers = request
                request_id = ensure_request_id(req_headers.get("x-request-id"))
                started = time.perf_counter()
                fields: dict = {}
                fields_token = _ACCESS_FIELDS.set(fields)
                try:
                    with bind_request_id(request_id):
                        status, body, headers = await self._dispatch(method, path, query, raw)
                        elapsed = time.perf_counter() - started
                        headers.setdefault("X-Request-Id", request_id)
                        self._log_access(method, path, status, elapsed, fields)
                finally:
                    _ACCESS_FIELDS.reset(fields_token)
                await self._respond(writer, status, body, keep_alive=keep_alive, headers=headers)
                if not keep_alive:
                    return
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):  # client went away mid-request/response
            return
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _log_access(
        self, method: str, path: str, status: int, elapsed: float, fields: dict
    ) -> None:
        """Count, time and log one answered request (WARNING when slow)."""
        label_path = _metric_path(path)
        _REQUESTS.labels(self.metrics_role, method, label_path, status).inc()
        _LATENCY.labels(self.metrics_role, method, label_path).observe(elapsed)
        slow = elapsed >= self.slow_request_seconds
        upstream = ""
        if "upstream_ms" in fields:
            fields["upstream_ms"] = round(fields["upstream_ms"], 3)
            upstream = f", node {fields['node']} {fields['upstream_ms']:.1f} ms"
        (_log.warning if slow else _log.info)(
            "%s %s -> %d in %.1f ms%s%s",
            method,
            path,
            status,
            elapsed * 1000.0,
            upstream,
            " (slow)" if slow else "",
            extra={
                "role": self.metrics_role,
                "method": method,
                "path": path,
                "status": status,
                "duration_ms": round(elapsed * 1000.0, 3),
                **fields,
            },
        )

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on a cleanly closed connection.

        The body comes back as raw bytes: :meth:`_dispatch` decodes it as
        JSON only for handlers not marked :func:`raw_body`.
        """
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADER_COUNT:
                raise _HttpError(431, f"more than {MAX_HEADER_COUNT} header lines")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        return method.upper(), parts.path, query, body, keep_alive, headers

    @staticmethod
    def _decode(body: bytes) -> Any:
        """A request body as JSON (``None`` when empty)."""
        if not body:
            return None
        try:
            return json.loads(body)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}") from None

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, query: dict, raw: bytes
    ) -> tuple[int, dict | str | bytes, dict]:
        """Route and run one request; never raises for a handler failure.

        A handler gets the body decoded as JSON, or as bytes when marked
        :func:`raw_body`. It returns ``(status, body)`` or ``(status, body,
        headers)``; the headers (a relayed ``Retry-After``, the
        ``Content-Type`` of a bytes body) go out with the response.
        """
        headers: dict[str, str] = {}
        try:
            handler, args, deprecated = self._route(method, path)
            if deprecated:
                # Legacy (pre-/v1) alias: still served, but flagged so
                # clients can find the canonical path before it goes away.
                headers["Deprecation"] = "true"
            payload = raw if getattr(handler, "raw_body", False) else self._decode(raw)
            status, body, *extra = await handler(payload, query, *args)
            if extra:
                headers.update(extra[0])
            return status, body, headers
        except _HttpError as error:
            return error.status, {"error": {"code": "http", "message": str(error)}}, headers
        except ServiceError as error:
            if error.retry_after is not None:
                headers["Retry-After"] = str(max(1, math.ceil(error.retry_after)))
            return error.status, error_payload(error), headers
        except BatchItemError as error:
            return 422, error_payload(error), headers
        except (ValueError, TypeError, KeyError) as error:
            return 400, error_payload(BadRequest(str(error))), headers
        except asyncio.CancelledError:
            raise
        except Exception as error:
            # Last-resort guard: even a handler bug answers with the
            # uniform envelope, and the traceback lands in the log with
            # the request id so it can be correlated with the response.
            _log.exception(
                "unhandled error in %s %s handler: %s",
                method,
                path,
                error,
                extra={"method": method, "path": path},
            )
            body = {
                "error": {
                    "code": "internal",
                    "message": f"{type(error).__name__}: {error}",
                }
            }
            return 500, body, headers

    def _route(self, method: str, path: str) -> tuple[Callable, tuple, bool]:
        raise NotImplementedError  # pragma: no cover — subclasses route

    @staticmethod
    def _split_version(path: str) -> tuple[str, bool]:
        """Strip the ``/v1`` prefix; returns ``(sub_path, deprecated)``."""
        if path == "/v1" or path.startswith("/v1/"):
            return path[len("/v1") :] or "/", False
        return path, True

    @staticmethod
    def _require_object(payload) -> dict:
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    @staticmethod
    def _query_flag(query: dict, key: str) -> bool:
        return query.get(key, "").lower() in ("1", "true", "yes")

    # ------------------------------------------------------------------
    # Response writing.
    # ------------------------------------------------------------------

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        body: dict | str | bytes,
        *,
        keep_alive: bool,
        headers: dict[str, str] | None = None,
    ) -> None:
        """Write one response; a bytes body goes out as is (JSON by default)."""
        headers = dict(headers or {})
        if isinstance(body, bytes):
            # Pre-encoded (a node's reply relayed by the router).
            data = body
            content_type = headers.pop("Content-Type", "application/json")
        elif isinstance(body, str):
            # Non-JSON payload: only the /metrics exposition text today.
            data = body.encode("utf-8")
            content_type = headers.pop("Content-Type", EXPOSITION_CONTENT_TYPE)
        else:
            data = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()


class ServiceHTTPServer(BaseHTTPServer):
    """One bound HTTP server over a :class:`DetectService`."""

    def __init__(
        self,
        service: DetectService,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        slow_request_ms: float | None = None,
    ) -> None:
        super().__init__(host, port, slow_request_ms=slow_request_ms)
        self.service = service

    def _route(self, method: str, path: str) -> tuple[Callable, tuple, bool]:
        """Resolve ``(handler, args, deprecated)`` for a request path.

        ``/v1/...`` is the canonical surface; the same routes without the
        prefix are deprecated aliases kept for pre-v1 clients.
        """
        path, deprecated = self._split_version(path)
        segments = [segment for segment in path.split("/") if segment]
        if path == "/healthz" and method == "GET":
            return self._handle_healthz, (), deprecated
        if path == "/stats" and method == "GET":
            return self._handle_stats, (), deprecated
        if path == "/metrics" and method == "GET":
            return self._handle_metrics, (), deprecated
        if path == "/nodes" and method == "GET":
            return self._handle_nodes, (), deprecated
        if path == "/detect" and method == "POST":
            return self._handle_detect, (), deprecated
        if path == "/detect_batch" and method == "POST":
            return self._handle_detect_batch, (), deprecated
        if path == "/sessions":
            if method == "GET":
                return self._handle_sessions_list, (), deprecated
            if method == "POST":
                return self._handle_session_create, (), deprecated
            raise _MethodNotAllowed()
        if len(segments) == 2 and segments[0] == "sessions":
            if method == "DELETE":
                return self._handle_session_close, (segments[1],), deprecated
            if method == "GET":
                return self._handle_session_get, (segments[1],), deprecated
            raise _MethodNotAllowed()
        if len(segments) == 3 and segments[0] == "sessions":
            name, action = segments[1], segments[2]
            if action == "append" and method == "POST":
                return self._handle_session_append, (name,), deprecated
            if action in ("anomalies", "poll") and method in ("GET", "POST"):
                return self._handle_session_poll, (name,), deprecated
            if action == "snapshot" and method == "POST":
                return self._handle_session_snapshot, (name,), deprecated
            if action == "restore" and method == "POST":
                return self._handle_session_restore, (name,), deprecated
        raise _NotFound(method, path)

    # ------------------------------------------------------------------
    # Handlers.
    # ------------------------------------------------------------------

    async def _handle_healthz(self, payload, query) -> tuple[int, dict]:
        return 200, {"status": "ok"}

    async def _handle_stats(self, payload, query) -> tuple[int, dict]:
        return 200, self.service.stats()

    async def _handle_metrics(self, payload, query) -> tuple[int, str]:
        """Prometheus text exposition: registry + stats() gauges."""
        extra = stats_families("repro_service", self.service.stats())
        return 200, render_registry(REGISTRY, extra)

    async def _handle_nodes(self, payload, query) -> tuple[int, dict]:

        """This node's identity document (a router answers with its fleet)."""
        return 200, {
            "nodes": [
                {
                    "node": self.service.node_id,
                    "role": "serve",
                    "alive": True,
                    "sessions": len(self.service.sessions),
                }
            ]
        }

    async def _handle_detect(self, payload, query) -> tuple[int, dict]:
        payload = self._require_object(payload)
        if "series" not in payload:
            raise BadRequest("missing required field 'series'")
        config = _split_config(
            payload, CONFIG_KEYS, ("series", "k", "seed", "timeout", "timings")
        )
        if "window" not in config:
            raise BadRequest("missing required field 'window'")
        kwargs: dict = {}
        if "timeout" in payload and payload["timeout"] is not None:
            kwargs["timeout"] = float(payload["timeout"])
        result = await self.service.detect(
            payload["series"],
            k=payload.get("k", 3),
            seed=payload.get("seed", 0),
            timings=bool(payload.get("timings", False)),
            **kwargs,
            **config,
        )
        return 200, result.payload()

    async def _handle_detect_batch(self, payload, query) -> tuple[int, dict]:
        payload = self._require_object(payload)
        series_list = payload.get("series")
        if not isinstance(series_list, list) or not series_list:
            raise BadRequest("'series' must be a non-empty list of series arrays")
        config = _split_config(
            payload, CONFIG_KEYS, ("series", "k", "seed", "offset", "timeout")
        )
        if "window" not in config:
            raise BadRequest("missing required field 'window'")
        kwargs = {}
        if "timeout" in payload and payload["timeout"] is not None:
            kwargs["timeout"] = float(payload["timeout"])
        results = await self.service.detect_many(
            series_list,
            k=payload.get("k", 3),
            seed=payload.get("seed", 0),
            offset=payload.get("offset", 0),
            **kwargs,
            **config,
        )
        documents = []
        failed = 0
        for result in results:
            if isinstance(result, BatchItemError):
                failed += 1
                documents.append(error_payload(result))
            else:
                documents.append(result.payload())
        return 200, {"results": documents, "failed": failed}

    async def _handle_sessions_list(self, payload, query) -> tuple[int, dict]:
        return 200, {"sessions": self.service.list_sessions()}

    async def _handle_session_create(self, payload, query) -> tuple[int, dict]:
        payload = self._require_object(payload)
        name = payload.get("name")
        if not isinstance(name, str):
            raise BadRequest("missing required string field 'name'")
        config = _split_config(payload, SESSION_CONFIG_KEYS, ("name",))
        if "window" not in config:
            raise BadRequest("missing required field 'window'")
        return 200, await self.service.create_session(name, **config)

    async def _handle_session_append(self, payload, query, name: str) -> tuple[int, dict]:
        payload = self._require_object(payload)
        values = payload.get("values")
        if not isinstance(values, list) or not values:
            raise BadRequest("'values' must be a non-empty list of numbers")
        return 200, await self.service.append(name, values)

    async def _handle_session_poll(self, payload, query, name: str) -> tuple[int, dict]:
        k = 3
        if isinstance(payload, dict) and "k" in payload:
            k = payload["k"]
        elif "k" in query:
            k = query["k"]
        return 200, await self.service.poll(name, int(k))

    async def _handle_session_get(self, payload, query, name: str) -> tuple[int, dict]:
        return 200, self.service.session_info(name)

    async def _handle_session_snapshot(self, payload, query, name: str) -> tuple[int, dict]:
        return 200, await self.service.snapshot_session(name)

    async def _handle_session_restore(self, payload, query, name: str) -> tuple[int, dict]:
        return 200, await self.service.restore_session(name)

    async def _handle_session_close(self, payload, query, name: str) -> tuple[int, dict]:
        keep = self._query_flag(query, "keep_snapshots")
        reason = query.get("reason", "migrated" if keep else "closed")
        if reason not in ("closed", "migrated", "evicted"):
            raise BadRequest(f"invalid close reason {reason!r}")
        info = await self.service.close_session(name, drop_snapshots=not keep, reason=reason)
        return 200, {"closed": info}


class _NotFound(ServiceError):
    status = 404
    code = "not-found"

    def __init__(self, method: str, path: str) -> None:
        super().__init__(f"no route for {method} {path}")


class _MethodNotAllowed(ServiceError):
    status = 405
    code = "method-not-allowed"

    def __init__(self) -> None:
        super().__init__("method not allowed on this path")


async def serve(
    service: DetectService,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    ready: Callable[["ServiceHTTPServer"], None] | None = None,
    slow_request_ms: float | None = None,
) -> None:
    """Run the HTTP front end until SIGTERM/SIGINT, then shut down gracefully.

    Graceful means leak-free: stop accepting, drain in-flight micro-batches
    (their worker threads release every shared-memory segment), close all
    streaming sessions, shut the executor pool down (reaping its worker
    processes), and only then return. ``ready`` is called once the socket
    is bound — the CLI uses it to print the resolved address.
    """
    server = ServiceHTTPServer(service, host, port, slow_request_ms=slow_request_ms)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered: list[signal.Signals] = []
    for signame in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signame, stop.set)
            registered.append(signame)
        except (NotImplementedError, RuntimeError):  # pragma: no cover — non-Unix
            pass
    try:
        if ready is not None:
            ready(server)
        await stop.wait()
    finally:
        for signame in registered:
            loop.remove_signal_handler(signame)
        await server.aclose()
        await service.aclose()
