"""Session router: consistent-hash placement, crash recovery, migration.

The sharded deployment shape: N independent serve nodes (``python -m repro
serve``), each hosting a disjoint set of streaming sessions, behind one
thin router (``python -m repro router``) that clients talk to instead of
any node directly. The router

- **places** every session on a node by consistent hashing over the static
  node list (:class:`HashRing` — blake2b points, virtual nodes), so
  placement is deterministic, balanced, and survives router restarts
  without a placement database;
- **proxies** the full ``/v1`` session surface plus one-shot detects
  (round-robin) to the owning node as a byte-level relay: request bodies
  go to the node as the client sent them and the node's status, body and
  ``Retry-After`` come back unchanged, so scores stay bitwise identical
  because the router never re-encodes results. It decodes JSON only where
  it reads a field: a create's name, an append's values, a migrate's
  target, and the replies to append and restore. Requests reuse pooled
  keep-alive connections, one idle set per node (:func:`_http_request`);
- **splits** a ``/v1/detect_batch`` of several series over the hosts of
  its live nodes, one contiguous chunk each (decoded and re-encoded;
  floats round-trip exactly), and joins the results in order — the
  document one node answers for the whole batch;
- **recovers**: when a node stops answering, the session is re-placed on
  the next surviving node of its preference walk, restored there from its
  latest snapshot (shared :class:`~repro.service.snapshot.SnapshotStore`
  directory), and the router replays its buffered *tail* — the appends
  past the last checkpoint — so the resumed session is bitwise identical
  to one that never crashed;
- **migrates** on demand (``POST /v1/sessions/{name}/migrate``): snapshot
  on the source, close keeping snapshots, restore on the target, replay
  the tail;
- enforces **per-tenant quotas**: the tenant is the session-name prefix
  before the first ``.`` and may hold at most ``--tenant-quota`` live
  sessions (429 ``tenant-quota-exceeded`` past that).

The tail buffer is the client-side half of the durability story: chunks
are kept until the owning node reports (in every append response) that a
checkpoint covers them. Nodes running without ``--snapshot-dir`` never
checkpoint, so the router keeps the whole stream and recovery falls back
to recreate-and-replay-everything — still bitwise identical, just slower
and memory-heavier.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import signal
import time
from typing import Callable, NamedTuple

from repro.obs.context import get_request_id
from repro.obs.expfmt import render_registry
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY, stats_families
from repro.service.errors import (
    BadRequest,
    NodeUnavailable,
    SessionNotFound,
    TenantQuotaExceeded,
)
from repro.service.http import (
    BaseHTTPServer,
    _MethodNotAllowed,
    _NotFound,
    access_fields,
    raw_body,
)

_log = get_logger("service.router")

__all__ = ["HashRing", "RouterHTTPServer", "SessionRouter", "serve_router", "tenant_of"]

#: Virtual points per node on the ring: enough that removing one node of a
#: small fleet spreads its keys ~evenly over the survivors.
DEFAULT_REPLICAS = 64

#: Seconds allowed for a liveness probe (kept well under request timeouts).
PROBE_TIMEOUT = 2.0


def tenant_of(name: str) -> str:
    """Tenant a session belongs to: the name prefix before the first ``.``."""
    return name.split(".", 1)[0]


class HashRing:
    """Consistent hashing with virtual nodes (blake2b points).

    ``preference(key)`` returns *all* nodes in deterministic walk order
    from the key's ring position: index 0 is the home node, the rest are
    the fallbacks recovery walks when earlier choices are dead. Placement
    depends only on (key, node list), so any router instance — including a
    restarted one — computes the same homes.
    """

    def __init__(self, nodes: list[str], *, replicas: int = DEFAULT_REPLICAS) -> None:
        nodes = list(dict.fromkeys(str(node) for node in nodes))
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        replicas = int(replicas)
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.nodes = nodes
        self.replicas = replicas
        self._points: list[tuple[int, str]] = sorted(
            (self._hash(f"{node}#{index}"), node)
            for node in nodes
            for index in range(replicas)
        )

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")

    def preference(self, key: str) -> list[str]:
        """Every node, in this key's deterministic failover order."""
        start = bisect.bisect_left(self._points, (self._hash(key), ""))
        seen: set[str] = set()
        order: list[str] = []
        count = len(self._points)
        for step in range(count):
            _point, node = self._points[(start + step) % count]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == len(self.nodes):
                    break
        return order

    def place(self, key: str) -> str:
        """The key's home node (first of its preference walk)."""
        return self.preference(key)[0]


class _NodeDown(Exception):
    """Transport-level failure talking to one node (connection/timeout)."""

    def __init__(self, addr: str, cause: BaseException) -> None:
        super().__init__(f"node {addr} unreachable: {cause}")
        self.addr = addr


class _Reply(NamedTuple):
    """One node response as the router relays it: status, raw body, headers."""

    status: int
    body: bytes
    #: The response headers a relay passes on (``Content-Type``, ``Retry-After``).
    headers: dict[str, str]

    def json(self):
        """The body decoded, for the few replies the router reads a field of."""
        return json.loads(self.body) if self.body else None


#: Node response headers the router passes on to its client.
_RELAYED_HEADERS = {"content-type": "Content-Type", "retry-after": "Retry-After"}

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]


class _ConnectionPool:
    """Idle keep-alive connections to the serve nodes, one stack per node.

    A connection sits here only between requests: :func:`_http_request`
    takes it out for one exchange and puts it back only after a complete
    response that did not close it.
    """

    def __init__(self) -> None:
        self._idle: dict[str, list[_Connection]] = {}

    def take(self, addr: str) -> _Connection | None:
        """The most recently used live idle connection to ``addr``, if any."""
        idle = self._idle.get(addr)
        while idle:
            reader, writer = idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                return reader, writer
            writer.close()  # the node hung up while it sat idle
        return None

    def put(self, addr: str, connection: _Connection) -> None:
        """Park a connection whose last response was complete."""
        self._idle.setdefault(addr, []).append(connection)

    async def aclose(self) -> None:
        """Close every idle connection and wait until each is closed."""
        writers = [writer for idle in self._idle.values() for _reader, writer in idle]
        self._idle.clear()
        for writer in writers:
            writer.close()
        await asyncio.gather(*(writer.wait_closed() for writer in writers), return_exceptions=True)


async def _read_reply(reader: asyncio.StreamReader) -> tuple[_Reply, bool]:
    """Read one response; returns it and whether the connection can be reused."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("empty response")
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = await reader.readexactly(length) if length else b""
    relayed = {
        title: headers[name] for name, title in _RELAYED_HEADERS.items() if name in headers
    }
    # Without a length the body ran to the close; "close" is the node's last.
    reusable = "content-length" in headers and headers.get("connection", "").lower() != "close"
    return _Reply(status, body, relayed), reusable


async def _http_request(
    pool: _ConnectionPool,
    addr: str,
    method: str,
    path: str,
    body: bytes = b"",
    *,
    timeout: float = 30.0,
    headers: dict[str, str] | None = None,
) -> _Reply:
    """One stdlib-asyncio HTTP/1.1 exchange with ``host:port``; bytes in/out.

    The request reuses an idle keep-alive connection from ``pool`` or opens
    one; the body is sent as given and the reply comes back undecoded. The
    connection returns to the pool only after a complete response that did
    not close it; a timeout, a cancellation or any failure closes it, so a
    late reply can never be read by the next request. Any transport failure
    raises :class:`_NodeDown` so callers can treat "cannot talk to the node"
    as one condition, distinct from an HTTP error the node itself produced.
    Nothing is ever resent: a request that failed may have reached the node,
    and an append must not arrive twice.

    The time from writing to the node until its reply was read is added to
    the request's access-log fields (``node``, ``upstream_ms``).
    """
    connection = pool.take(addr)
    if connection is None:
        host, _, port = addr.rpartition(":")
        try:
            connection = await asyncio.wait_for(
                asyncio.open_connection(host or "127.0.0.1", int(port)), timeout
            )
        except (OSError, asyncio.TimeoutError, ValueError) as error:
            raise _NodeDown(addr, error) from error
    reader, writer = connection
    extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {addr}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "\r\n"
    )

    async def _exchange() -> tuple[_Reply, bool]:
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        return await _read_reply(reader)

    reusable = False
    started = time.perf_counter()
    try:
        reply, reusable = await asyncio.wait_for(_exchange(), timeout)
        return reply
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as error:
        raise _NodeDown(addr, error) from error
    finally:
        fields = access_fields()
        fields["node"] = addr
        fields["upstream_ms"] = (
            fields.get("upstream_ms", 0.0) + (time.perf_counter() - started) * 1000.0
        )
        if reusable:
            pool.put(addr, connection)
        else:
            writer.close()


def _encode(payload: dict) -> bytes:
    """A body the router builds itself (recovery, replay and batch splits)."""
    return json.dumps(payload).encode("utf-8")


def _splittable(body: bytes) -> dict | None:
    """A ``/v1/detect_batch`` body decoded, if the router can split it.

    That is one JSON object with a ``series`` list of two or more items and
    a valid ``offset``; anything else is ``None`` and goes to one node
    unparsed, which answers it itself.
    """
    try:
        request = json.loads(body)
    except (ValueError, RecursionError):
        return None
    if not isinstance(request, dict):
        return None
    series, offset = request.get("series"), request.get("offset", 0)
    if not isinstance(series, list) or len(series) < 2:
        return None
    if type(offset) is not int or offset < 0:
        return None
    return request


class SessionRouter:
    """Place, proxy, recover, and migrate sessions across serve nodes."""

    def __init__(
        self,
        nodes: list[str],
        *,
        tenant_quota: int | None = None,
        replicas: int = DEFAULT_REPLICAS,
        request_timeout: float = 30.0,
    ) -> None:
        self.ring = HashRing(nodes, replicas=replicas)
        self.nodes = self.ring.nodes
        if tenant_quota is not None:
            tenant_quota = int(tenant_quota)
            if tenant_quota < 1:
                raise ValueError(f"tenant_quota must be positive, got {tenant_quota}")
        self.tenant_quota = tenant_quota
        self.request_timeout = float(request_timeout)
        self.alive: dict[str, bool] = {node: True for node in self.nodes}
        #: session -> node currently hosting it.
        self._placements: dict[str, str] = {}
        #: session -> original create config (recreate-without-snapshot path).
        self._configs: dict[str, dict] = {}
        #: session -> [(absolute start offset, values, request_id)] past
        #: the last checkpoint the owning node reported; the id names the
        #: append that delivered the chunk, so a recovery replay is
        #: traceable back to the original client request.
        self._tails: dict[str, list[tuple[int, list, str]]] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        self._rr = itertools.count()
        self._pool = _ConnectionPool()
        self.proxied = 0
        self.recoveries = 0
        self.migrations = 0

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------

    def _lock(self, name: str) -> asyncio.Lock:
        lock = self._locks.get(name)
        if lock is None:
            lock = self._locks[name] = asyncio.Lock()
        return lock

    async def aclose(self) -> None:
        """Close every pooled node connection (the router's shutdown)."""
        await self._pool.aclose()

    async def _call(
        self,
        addr: str,
        method: str,
        path: str,
        body: bytes = b"",
        *,
        timeout=None,
        request_id: str | None = None,
    ) -> _Reply:
        """Proxy one request to a node, forwarding the correlation id.

        The forwarded ``X-Request-Id`` defaults to the id bound in this
        context (the client's request); recovery passes ``request_id=``
        explicitly so a replayed append carries the id of the request
        that *originally* delivered those points.
        """
        self.proxied += 1
        request_id = request_id or get_request_id()
        headers = {"X-Request-Id": request_id} if request_id else None
        return await _http_request(
            self._pool,
            addr,
            method,
            path,
            body,
            timeout=timeout or self.request_timeout,
            headers=headers,
        )

    def _forget(self, name: str) -> None:
        self._placements.pop(name, None)
        self._configs.pop(name, None)
        self._tails.pop(name, None)
        self._locks.pop(name, None)

    def _prune_tail(self, name: str, snapshotted_length) -> None:
        """Drop tail chunks a node-side checkpoint now fully covers."""
        if not snapshotted_length:
            return
        tail = self._tails.get(name)
        if tail:
            self._tails[name] = [
                chunk for chunk in tail if chunk[0] + len(chunk[1]) > snapshotted_length
            ]

    def tail_points(self, name: str) -> int:
        """Buffered points awaiting a covering checkpoint (tests/stats)."""
        return sum(len(values) for _start, values, _rid in self._tails.get(name, []))

    # ------------------------------------------------------------------
    # Session control plane.
    # ------------------------------------------------------------------

    async def create(self, payload: dict, body: bytes):
        """Place a new session on its ring home; ``body`` is sent unchanged."""
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise BadRequest("missing required string field 'name'")
        if self.tenant_quota is not None:
            tenant = tenant_of(name)
            held = sum(1 for other in self._placements if tenant_of(other) == tenant)
            if held >= self.tenant_quota and name not in self._placements:
                raise TenantQuotaExceeded(
                    f"tenant {tenant!r} already holds {held} of "
                    f"{self.tenant_quota} allowed sessions"
                )
        async with self._lock(name):
            for addr in self.ring.preference(name):
                if not self.alive.get(addr, False):
                    continue
                try:
                    reply = await self._call(addr, "POST", "/v1/sessions", body)
                except _NodeDown:
                    self.alive[addr] = False
                    continue
                if reply.status == 200:
                    self._placements[name] = addr
                    self._configs[name] = {
                        key: value for key, value in payload.items() if key != "name"
                    }
                    self._tails[name] = []
                return reply
        raise NodeUnavailable(f"no serve node reachable to create session {name!r}")

    async def close(self, name: str, query: dict):
        async with self._lock(name):
            addr = self._require_placed(name)
            suffix = ""
            if query:
                suffix = "?" + "&".join(f"{key}={value}" for key, value in query.items())
            try:
                reply = await self._call(addr, "DELETE", f"/v1/sessions/{name}{suffix}")
            except _NodeDown:
                # The node is gone and so is the session; drop our records.
                self.alive[addr] = False
                reply = (200, {"closed": {"name": name, "node_lost": True}})
        if reply[0] in (200, 404, 410):
            # Closed — or the node already dropped it (evicted); either
            # way the router must not keep routing the name.
            self._forget(name)
        return reply

    async def forward(self, name: str, method: str, path: str, body: bytes = b"") -> _Reply:
        """Proxy one session-scoped request, recovering placement on failure."""
        async with self._lock(name):
            return await self._forward_locked(name, method, path, body)

    async def _forward_locked(
        self, name: str, method: str, path: str, body: bytes = b""
    ) -> _Reply:
        addr = self._require_placed(name)
        try:
            reply = await self._call(addr, method, path, body)
        except _NodeDown:
            self.alive[addr] = False
            await self._recover_locked(name)
            replacement = self._placements[name]
            try:
                reply = await self._call(replacement, method, path, body)
            except _NodeDown as error:
                self.alive[replacement] = False
                raise NodeUnavailable(
                    f"replacement node {replacement} for session {name!r} "
                    "died before answering"
                ) from error
        return reply

    async def append(self, name: str, payload: dict, body: bytes) -> _Reply:
        """Forward ``body`` (whose decoded form is ``payload``); buffer its values."""
        values = payload.get("values")
        if not isinstance(values, list) or not values:
            raise BadRequest("'values' must be a non-empty list of numbers")
        async with self._lock(name):
            reply = await self._forward_locked(
                name, "POST", f"/v1/sessions/{name}/append", body
            )
            if reply.status == 200:
                # Buffer the chunk at its absolute offset until a node
                # checkpoint covers it; these are the points recovery
                # replays on a surviving node.
                info = reply.json()
                start = int(info["length"]) - int(info["appended"])
                self._tails.setdefault(name, []).append(
                    (start, list(values), get_request_id() or "")
                )
                self._prune_tail(name, info.get("snapshotted_length"))
            return reply

    def _require_placed(self, name: str) -> str:
        addr = self._placements.get(name)
        if addr is None:
            raise SessionNotFound(f"no routed session named {name!r}")
        return addr

    # ------------------------------------------------------------------
    # Recovery and migration.
    # ------------------------------------------------------------------

    async def recover(self, name: str):
        """Re-place a session after its node died; returns the new info."""
        async with self._lock(name):
            if name not in self._placements:
                raise SessionNotFound(f"no routed session named {name!r}")
            await self._recover_locked(name)
            return 200, {
                "name": name,
                "node": self._placements[name],
                "recoveries": self.recoveries,
            }

    async def _recover_locked(self, name: str) -> None:
        """Restore ``name`` on the best surviving node and replay its tail."""
        self.recoveries += 1
        dead_home = self._placements.get(name)
        _log.warning(
            "recovering session %s: node %s unreachable (recovery #%d)",
            name,
            dead_home,
            self.recoveries,
            extra={"session": name, "dead_node": dead_home},
        )
        for addr in self.ring.preference(name):
            if addr == dead_home or not self.alive.get(addr, False):
                continue
            try:
                restored = await self._restore_on(name, addr)
            except _NodeDown:
                self.alive[addr] = False
                continue
            if restored is None:
                continue
            self._placements[name] = addr
            await self._replay_tail(name, addr, restored)
            _log.info(
                "session %s recovered on %s (restored length %d)",
                name,
                addr,
                restored,
                extra={"session": name, "node": addr, "restored_length": restored},
            )
            return
        raise NodeUnavailable(f"no surviving node can host session {name!r}")

    async def _restore_on(self, name: str, addr: str) -> int | None:
        """Restore (or recreate) ``name`` on ``addr``; returns its length.

        ``None`` means this node cannot host the session (unexpected
        refusal) — the caller tries the next preference. A node without a
        matching snapshot falls back to recreating from the recorded
        create config and replaying the full tail.
        """
        reply = await self._call(addr, "POST", f"/v1/sessions/{name}/restore")
        if reply.status == 200:
            return int(reply.json()["length"])
        if reply.status in (400, 404) and name in self._configs:
            # No snapshot (or no store on that node): recreate from the
            # original config; the tail holds the full stream in this mode.
            reply = await self._call(
                addr, "POST", "/v1/sessions", _encode({"name": name, **self._configs[name]})
            )
            if reply.status == 200:
                return 0
        return None

    async def _replay_tail(self, name: str, addr: str, restored_length: int) -> None:
        """Re-append every buffered point past the restored length.

        Each replayed append is sent (and logged) under the request id of
        the append that originally delivered the chunk, so the recovery
        trail in the node's logs correlates back to the client requests.
        """
        for start, values, origin_id in sorted(
            self._tails.get(name, []), key=lambda chunk: chunk[0]
        ):
            if start + len(values) <= restored_length:
                continue
            chunk = values[max(0, restored_length - start) :]
            _log.info(
                "replaying session %s chunk on %s: %d point(s) from offset %d "
                "(originating request %s)",
                name,
                addr,
                len(chunk),
                max(start, restored_length),
                origin_id or "-",
                extra={
                    "session": name,
                    "node": addr,
                    "points": len(chunk),
                    "origin_request_id": origin_id or "-",
                },
            )
            reply = await self._call(
                addr,
                "POST",
                f"/v1/sessions/{name}/append",
                _encode({"values": chunk}),
                request_id=origin_id or None,
            )
            if reply.status != 200:
                raise NodeUnavailable(
                    f"replaying session {name!r} on {addr} failed with {reply.status}: "
                    f"{reply.body.decode('utf-8', 'replace')}"
                )
            self._prune_tail(name, reply.json().get("snapshotted_length"))

    async def migrate(self, name: str, payload) -> tuple[int, dict]:
        """Move a live session to an explicit target node."""
        payload = payload if isinstance(payload, dict) else {}
        target = payload.get("target")
        if not isinstance(target, str) or target not in self.alive:
            raise BadRequest(
                f"'target' must name a configured node, one of {self.nodes}"
            )
        async with self._lock(name):
            source = self._require_placed(name)
            if source == target:
                return 200, {"name": name, "node": target, "migrated": False}
            # Checkpoint on the source when it can, then close keeping the
            # snapshots — the restore on the target picks them up.
            snapshotted = False
            try:
                reply = await self._call(source, "POST", f"/v1/sessions/{name}/snapshot")
                snapshotted = reply.status == 200
                await self._call(
                    source, "DELETE", f"/v1/sessions/{name}?keep_snapshots=1&reason=migrated"
                )
            except _NodeDown:
                # Source died mid-migration: recovery semantics take over.
                self.alive[source] = False
            restored = await self._restore_on(name, target)
            if restored is None:
                raise NodeUnavailable(
                    f"target node {target} refused session {name!r} "
                    f"(snapshotted={snapshotted})"
                )
            self._placements[name] = target
            await self._replay_tail(name, target, restored)
            self.migrations += 1
            _log.info(
                "session %s migrated %s -> %s",
                name,
                source,
                target,
                extra={"session": name, "source": source, "target": target},
            )
            return 200, {"name": name, "node": target, "migrated": True}

    # ------------------------------------------------------------------
    # Stateless proxying (one-shot detects).
    # ------------------------------------------------------------------

    async def proxy_detect(self, path: str, body: bytes) -> _Reply:
        """Round-robin a one-shot request over the surviving nodes, unparsed.

        The one exception is a ``/v1/detect_batch`` of two or more series
        while live nodes sit on two or more hosts: it is split, one chunk
        per host (:meth:`_split_batch`). Nodes on one host share its CPUs,
        which one node already uses all of, so a split between them would
        only add the router's JSON work.
        """
        start = next(self._rr)
        if path == "/v1/detect_batch":
            # The first live node of each host, in round-robin order.
            heads: dict[str, str] = {}
            for step in range(len(self.nodes)):
                addr = self.nodes[(start + step) % len(self.nodes)]
                if self.alive[addr]:
                    heads.setdefault(addr.rpartition(":")[0], addr)
            request = _splittable(body) if len(heads) >= 2 else None
            if request is not None:
                return await self._split_batch(path, request, list(heads.values()))
        return (await self._detect_from(start, path, body))[1]

    async def _detect_from(self, start: int, path: str, body: bytes) -> tuple[str, _Reply]:
        """Send a one-shot request to the first live node from ``nodes[start]`` on.

        A node that fails is marked dead and the next one is tried. When
        none is left, the nodes marked dead are probed once (a blip may have
        passed) and the walk runs again before the request gives up.
        Returns the answering node and its reply.
        """
        answer = await self._walk(start, path, body)
        if answer is None and await self._revive():
            answer = await self._walk(start, path, body)
        if answer is None:
            raise NodeUnavailable("no serve node reachable for detection")
        return answer

    async def _walk(self, start: int, path: str, body: bytes) -> tuple[str, _Reply] | None:
        for step in range(len(self.nodes)):
            addr = self.nodes[(start + step) % len(self.nodes)]
            if not self.alive[addr]:
                continue
            try:
                return addr, await self._call(addr, "POST", path, body)
            except _NodeDown:
                self.alive[addr] = False
        return None

    async def _split_batch(self, path: str, request: dict, heads: list[str]) -> _Reply:
        """Cut a batch into one contiguous chunk per head node, sent at once.

        Each chunk carries ``offset``, its first index in the client's
        batch, so the node seeds and names its series as the whole batch
        would; chunk ``i`` starts its walk on ``heads[i]``, and ``heads``
        comes rotated by the round-robin so successive batches start on
        different nodes. The replies are joined in order when all are 200;
        otherwise the first other reply is relayed unchanged. The access
        line names every answering node and the wall time of the fan-out.
        """
        series = request["series"]
        count = min(len(heads), len(series))
        bounds = [len(series) * index // count for index in range(count + 1)]
        base = request.get("offset", 0)
        bodies = [
            _encode({**request, "series": series[low:high], "offset": base + low})
            for low, high in zip(bounds, bounds[1:])
        ]
        started = time.perf_counter()
        answers = await asyncio.gather(
            *(
                self._detect_from(self.nodes.index(addr), path, body)
                for addr, body in zip(heads, bodies)
            ),
            return_exceptions=True,
        )
        access = access_fields()
        access["upstream_ms"] = (time.perf_counter() - started) * 1000.0
        answered = [answer[0] for answer in answers if isinstance(answer, tuple)]
        if answered:
            access["node"] = ",".join(dict.fromkeys(answered))
        for answer in answers:
            if isinstance(answer, BaseException):
                raise answer
        replies = [reply for _addr, reply in answers]
        refused = next((reply for reply in replies if reply.status != 200), None)
        if refused is not None:
            return refused
        results, failed = [], 0
        for reply in replies:
            document = reply.json()
            results.extend(document["results"])
            failed += document["failed"]
        return _Reply(
            200,
            _encode({"results": results, "failed": failed}),
            {"Content-Type": "application/json"},
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    async def _probe(self, addr: str) -> bool:
        """Ask ``addr`` for ``/v1/healthz``; record and return whether it is alive."""
        try:
            reply = await self._call(addr, "GET", "/v1/healthz", timeout=PROBE_TIMEOUT)
            self.alive[addr] = reply.status == 200
        except _NodeDown:
            self.alive[addr] = False
        return self.alive[addr]

    async def _revive(self) -> bool:
        """Probe every node marked dead once; whether any came back."""
        dead = [addr for addr in self.nodes if not self.alive[addr]]
        return any(await asyncio.gather(*(self._probe(addr) for addr in dead)))

    async def nodes_info(self) -> dict:
        """Probe every node (reviving recovered ones) and describe the fleet."""
        documents = []
        for addr in self.nodes:
            documents.append(
                {
                    "node": addr,
                    "role": "serve",
                    "alive": await self._probe(addr),
                    "sessions": sum(
                        1 for node in self._placements.values() if node == addr
                    ),
                }
            )
        return {"nodes": documents}

    def stats(self) -> dict:
        return {
            "role": "router",
            "nodes": dict(self.alive),
            "sessions": len(self._placements),
            "placements": dict(self._placements),
            "tenant_quota": self.tenant_quota,
            "proxied": self.proxied,
            "recoveries": self.recoveries,
            "migrations": self.migrations,
            "tail_points": sum(self.tail_points(name) for name in self._tails),
        }


class RouterHTTPServer(BaseHTTPServer):
    """HTTP front end exposing the ``/v1`` surface backed by a router."""

    metrics_role = "router"

    def __init__(
        self,
        router: SessionRouter,
        host: str = "127.0.0.1",
        port: int = 8766,
        *,
        slow_request_ms: float | None = None,
    ) -> None:
        super().__init__(host, port, slow_request_ms=slow_request_ms)
        self.router = router

    def _route(self, method: str, path: str) -> tuple[Callable, tuple, bool]:
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
        if path in ("/detect", "/detect_batch") and method == "POST":
            return self._handle_detect, (f"/v1{path}",), deprecated
        if path == "/sessions":
            if method == "POST":
                return self._handle_session_create, (), deprecated
            raise _MethodNotAllowed()
        if len(segments) == 2 and segments[0] == "sessions":
            name = segments[1]
            if method == "DELETE":
                return self._handle_session_close, (name,), deprecated
            if method == "GET":
                return self._handle_forward, (name, "GET", f"/v1/sessions/{name}"), deprecated
            raise _MethodNotAllowed()
        if len(segments) == 3 and segments[0] == "sessions":
            name, action = segments[1], segments[2]
            if action == "append" and method == "POST":
                return self._handle_append, (name,), deprecated
            if action in ("anomalies", "poll") and method in ("GET", "POST"):
                return self._handle_poll, (name, action), deprecated
            if action == "snapshot" and method == "POST":
                return (
                    self._handle_forward,
                    (name, "POST", f"/v1/sessions/{name}/snapshot"),
                    deprecated,
                )
            if action == "restore" and method == "POST":
                return self._handle_restore, (name,), deprecated
            if action == "migrate" and method == "POST":
                return self._handle_migrate, (name,), deprecated
        raise _NotFound(method, path)

    # ------------------------------------------------------------------
    # Handlers (thin shims over the router). A node's reply goes back as
    # the _Reply itself: its status, raw body and relayed headers.
    # ------------------------------------------------------------------

    async def _handle_healthz(self, payload, query) -> tuple[int, dict]:
        return 200, {"status": "ok", "role": "router"}

    async def _handle_stats(self, payload, query) -> tuple[int, dict]:
        return 200, self.router.stats()

    async def _handle_metrics(self, payload, query) -> tuple[int, str]:
        """Prometheus text exposition: registry + router stats() gauges."""
        extra = stats_families("repro_router", self.router.stats())
        return 200, render_registry(REGISTRY, extra)

    async def _handle_nodes(self, payload, query) -> tuple[int, dict]:
        return 200, await self.router.nodes_info()

    @raw_body
    async def _handle_detect(self, body: bytes, query, path: str) -> _Reply:
        # Unparsed: the node validates it and answers bad JSON with its 400.
        return await self.router.proxy_detect(path, body)

    @raw_body
    async def _handle_session_create(self, body: bytes, query):
        return await self.router.create(self._require_object(self._decode(body)), body)

    async def _handle_session_close(self, payload, query, name: str):
        return await self.router.close(name, query)

    @raw_body
    async def _handle_forward(
        self, body: bytes, query, name: str, method: str, path: str
    ) -> _Reply:
        return await self.router.forward(name, method, path, body)

    @raw_body
    async def _handle_append(self, body: bytes, query, name: str) -> _Reply:
        # Parsed for the replay tail, but the node gets the client's bytes.
        payload = self._require_object(self._decode(body))
        return await self.router.append(name, payload, body)

    async def _handle_poll(self, payload, query, name: str, action: str) -> _Reply:
        k = None
        if isinstance(payload, dict) and "k" in payload:
            k = payload["k"]
        elif "k" in query:
            k = query["k"]
        suffix = f"?k={int(k)}" if k is not None else ""
        return await self.router.forward(
            name, "GET", f"/v1/sessions/{name}/anomalies{suffix}"
        )

    async def _handle_restore(self, payload, query, name: str) -> tuple[int, dict]:
        return await self.router.recover(name)

    async def _handle_migrate(self, payload, query, name: str) -> tuple[int, dict]:
        return await self.router.migrate(name, payload)


async def serve_router(
    router: SessionRouter,
    host: str = "127.0.0.1",
    port: int = 8766,
    *,
    ready: Callable[[RouterHTTPServer], None] | None = None,
    slow_request_ms: float | None = None,
) -> None:
    """Run the router front end until SIGTERM/SIGINT, then shut down.

    Shutdown stops accepting, drops client connections parked between
    requests, and then closes every pooled node connection.
    """
    server = RouterHTTPServer(router, host, port, slow_request_ms=slow_request_ms)
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
        await router.aclose()
