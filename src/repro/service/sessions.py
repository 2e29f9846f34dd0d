"""Multi-tenant streaming sessions: many named detectors, one process.

A *session* is one live
:class:`~repro.core.streaming.StreamingEnsembleDetector` hosted under a
caller-chosen name, fed incrementally through ``append`` and queried
through ``poll``. The manager hosts many such sessions at once — the
deployment shape where one serving process watches thousands of independent
feeds — and enforces the global resource policies a long-lived multi-tenant
process needs:

- **Capacity** — at most ``max_sessions`` live sessions; creating more
  fails with 409/429-style errors rather than growing unboundedly.
- **Idle eviction** — sessions untouched for ``idle_timeout`` seconds are
  closed by a background reaper, so abandoned tenants release their memory.
- **Memory budget** — the summed
  :meth:`~repro.core.streaming.StreamingEnsembleDetector.memory_bytes`
  estimate across live sessions is kept under ``memory_budget`` bytes:
  session creation and appends that would blow the budget are rejected
  with :class:`~repro.service.errors.MemoryBudgetExceeded`. Bounded
  sessions (``capacity=``) keep their stream and live tokens inside the
  horizon, but not their vocabulary: each member's interner holds every
  distinct word it has ever seen, so a long-lived bounded session still
  grows with the stream, and can hit the budget, until ids are retired as
  the horizon advances (the "bounded sessions with bounded memory" item of
  ``ROADMAP.md``).
- **Durability** — with a :class:`~repro.service.snapshot.SnapshotStore`
  attached, sessions are checkpointed every ``snapshot_interval`` appended
  points (plus on demand, on idle eviction, and on graceful shutdown), and
  :meth:`restore` brings a session back from its latest snapshot with
  bitwise-identical future detections — on this node or, with a shared
  store, on any other node (crash recovery and migration).

Closed, evicted, and migrated names leave *tombstones*: touching one
answers :class:`~repro.service.errors.SessionGone` (410 — "this existed
and is gone, recreate or restore it") instead of the 404 a never-created
name gets.

Per-session operations are serialized by an ``asyncio.Lock`` (appends and
polls on *different* sessions overlap freely; the heavy work runs on worker
threads), and results are bitwise identical to driving the same
``StreamingEnsembleDetector`` directly — the session *is* that detector.
"""

from __future__ import annotations

import asyncio
import itertools
import re
from typing import Any

import numpy as np

from repro.core.streaming import SnapshotVersionError, StreamingEnsembleDetector
from repro.obs.logging import get_logger
from repro.service.cache import LRUCache
from repro.service.config import DetectorConfig
from repro.service.errors import (
    BadRequest,
    MemoryBudgetExceeded,
    ServiceClosed,
    ServiceOverloaded,
    SessionExists,
    SessionGone,
    SessionNotFound,
)
from repro.service.snapshot import SnapshotStore, decode_snapshot, encode_snapshot

__all__ = ["StreamSessionManager"]

#: Session names must be URL-path-safe (they appear in endpoint paths).
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

_log = get_logger("service.sessions")

#: How many departed names keep a tombstone (FIFO-capped so a churny
#: tenant cannot grow the map without bound; the oldest fall back to 404).
_TOMBSTONE_CAP = 256

_session_epochs = itertools.count()


def _anomalies_payload(anomalies) -> list[dict]:
    """JSON-shaped ranked candidates (scores round-trip bitwise via repr)."""
    return [
        {"rank": a.rank, "position": a.position, "length": a.length, "score": a.score}
        for a in anomalies
    ]


class _Session:
    """One live streaming session (a detector plus bookkeeping)."""

    __slots__ = (
        "name",
        "detector",
        "config",
        "lock",
        "epoch",
        "created_at",
        "last_used",
        "appended",
        "polls",
        "snapshot_seq",
        "snapshotted_length",
        "snapshots",
    )

    def __init__(
        self, name: str, detector: StreamingEnsembleDetector, config: DetectorConfig
    ) -> None:
        self.name = name
        self.detector = detector
        self.config = config
        self.lock = asyncio.Lock()
        #: Distinguishes reincarnations of one name in cache keys.
        self.epoch = next(_session_epochs)
        loop = asyncio.get_running_loop()
        self.created_at = loop.time()
        self.last_used = self.created_at
        self.appended = 0
        self.polls = 0
        #: Last checkpoint number written (0 = none yet) and the stream
        #: length it covered — clients replay only the tail past this.
        self.snapshot_seq = 0
        self.snapshotted_length = 0
        self.snapshots = 0

    def info(self) -> dict:
        detector = self.detector
        return {
            "name": self.name,
            "config": self.config.to_json(),
            "length": len(detector),
            "appended": self.appended,
            "polls": self.polls,
            "horizon_start": detector.horizon_start,
            "live_length": detector.state.live_length,
            "bounded": detector.bounded,
            "version": detector.state.version,
            "memory_bytes": detector.memory_bytes(),
            "snapshot_seq": self.snapshot_seq,
            "snapshotted_length": self.snapshotted_length,
        }


class StreamSessionManager:
    """Host and police many named streaming sessions.

    Parameters
    ----------
    max_sessions:
        Live-session cap.
    idle_timeout:
        Seconds of inactivity before the reaper evicts a session
        (``None`` disables idle eviction).
    memory_budget:
        Global byte budget across all live sessions (``None`` = unlimited),
        accounted with the detectors' O(1) ``memory_bytes()`` estimates.
    cache:
        Optional :class:`~repro.service.cache.LRUCache` for poll responses,
        keyed by ``(session epoch, stream version, k)`` — a poll with no
        new data since the last one is answered without touching the
        detector at all.
    snapshot_store:
        Optional :class:`~repro.service.snapshot.SnapshotStore` holding
        session checkpoints. Without one, :meth:`snapshot`/:meth:`restore`
        answer 400 and nothing is persisted.
    snapshot_interval:
        Checkpoint automatically once a session grows this many points past
        its last checkpoint (``None`` = only on demand / evict / shutdown).
    """

    def __init__(
        self,
        *,
        max_sessions: int = 64,
        idle_timeout: float | None = None,
        memory_budget: int | None = None,
        cache: LRUCache | None = None,
        snapshot_store: SnapshotStore | None = None,
        snapshot_interval: int | None = None,
    ) -> None:
        max_sessions = int(max_sessions)
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be positive, got {max_sessions}")
        if idle_timeout is not None:
            idle_timeout = float(idle_timeout)
            if idle_timeout <= 0:
                raise ValueError(f"idle_timeout must be positive, got {idle_timeout}")
        if memory_budget is not None:
            memory_budget = int(memory_budget)
            if memory_budget < 1:
                raise ValueError(f"memory_budget must be positive, got {memory_budget}")
        if snapshot_interval is not None:
            snapshot_interval = int(snapshot_interval)
            if snapshot_interval < 1:
                raise ValueError(f"snapshot_interval must be positive, got {snapshot_interval}")
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.memory_budget = memory_budget
        self.snapshot_interval = snapshot_interval
        self._cache = cache
        self._snapshot_store = snapshot_store
        self._sessions: dict[str, _Session] = {}
        self._tombstones: dict[str, str] = {}
        self._reaper: asyncio.Task | None = None
        self._closed = False
        self.evicted_idle = 0
        self.snapshots_written = 0

    # ------------------------------------------------------------------
    # Lookup / accounting.
    # ------------------------------------------------------------------

    def _get(self, name: str) -> _Session:
        try:
            return self._sessions[name]
        except KeyError:
            reason = self._tombstones.get(name)
            if reason is not None:
                raise SessionGone(f"streaming session {name!r} was {reason}") from None
            raise SessionNotFound(f"no streaming session named {name!r}") from None

    def _check_still_registered(self, name: str, session: _Session) -> None:
        """Re-validate after acquiring a session lock.

        A close/evict racing this request may have won the lock first and
        removed the session; operating on the orphaned detector would
        silently discard the caller's data behind a 200. The identity check
        also refuses a same-named session created in between.
        """
        if self._sessions.get(name) is not session:
            reason = self._tombstones.get(name)
            if name not in self._sessions and reason is not None:
                raise SessionGone(f"streaming session {name!r} was {reason}")
            raise SessionNotFound(f"streaming session {name!r} was closed")

    def _tombstone(self, name: str, reason: str) -> None:
        self._tombstones.pop(name, None)
        self._tombstones[name] = reason
        while len(self._tombstones) > _TOMBSTONE_CAP:
            self._tombstones.pop(next(iter(self._tombstones)))

    def memory_used(self) -> int:
        """Summed memory estimate of every live session (bytes)."""
        return sum(session.detector.memory_bytes() for session in self._sessions.values())

    def _check_admission(self, verb: str) -> None:
        """Shared create/restore admission control (capacity and budget)."""
        if self._closed:
            raise ServiceClosed("service is shutting down")
        if len(self._sessions) >= self.max_sessions:
            raise ServiceOverloaded(
                f"{len(self._sessions)} live sessions (limit {self.max_sessions}); "
                f"cannot {verb} another"
            )
        if self.memory_budget is not None and self.memory_used() >= self.memory_budget:
            raise MemoryBudgetExceeded(
                f"session memory budget exhausted ({self.memory_used()} of "
                f"{self.memory_budget} bytes in use)"
            )

    def __len__(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # Session lifecycle.
    # ------------------------------------------------------------------

    async def create(self, name: str, **config: Any) -> dict:
        """Create a named session; returns its info document.

        ``config`` is canonicalized through
        :class:`~repro.service.config.DetectorConfig` (window, ensemble
        parameters, ``capacity``/``policy``/``segments`` for bounded
        retention, ``seed``); unknown or invalid parameters surface as
        :class:`~repro.service.errors.BadRequest`. Stale snapshots left by
        an earlier same-named session are dropped — a create means a fresh
        stream, not a resumption (that is :meth:`restore`).
        """
        if not isinstance(name, str) or not _NAME_PATTERN.match(name):
            raise BadRequest(
                "session names must be 1-64 characters from [A-Za-z0-9._-], "
                f"got {name!r}"
            )
        if name in self._sessions:
            raise SessionExists(f"streaming session {name!r} already exists")
        self._check_admission("create")
        try:
            parsed = DetectorConfig.from_mapping(dict(config))
            detector = StreamingEnsembleDetector(**parsed.session_kwargs())
        except (ValueError, TypeError) as error:
            raise BadRequest(f"invalid session configuration: {error}") from error
        if self._snapshot_store is not None:
            await asyncio.to_thread(self._snapshot_store.delete, name)
        session = _Session(name, detector, parsed)
        self._sessions[name] = session
        self._tombstones.pop(name, None)
        self._ensure_reaper()
        _log.info("session %s created", name, extra={"session": name})
        return session.info()

    def _drop_locked(
        self, name: str, session: _Session, *, reason: str, drop_snapshots: bool
    ) -> dict:
        """Unregister a session (its lock held) and leave a tombstone."""
        self._sessions.pop(name, None)
        info = session.info()
        self._tombstone(name, reason)
        if drop_snapshots and self._snapshot_store is not None:
            self._snapshot_store.delete(name)
        info["closed"] = reason
        _log.info(
            "session %s dropped (%s) at length %d",
            name,
            reason,
            info.get("length", 0),
            extra={"session": name, "reason": reason},
        )
        return info

    async def close(self, name: str, *, drop_snapshots: bool = True, reason: str = "closed") -> dict:
        """Close and drop one session; returns its final info document.

        ``drop_snapshots=False`` keeps stored checkpoints so the session can
        be :meth:`restore`-d later (here or on another node sharing the
        store) — the migration half of a move is exactly ``snapshot`` +
        ``close(drop_snapshots=False, reason="migrated")``.
        """
        session = self._get(name)
        async with session.lock:
            self._check_still_registered(name, session)
            return self._drop_locked(name, session, reason=reason, drop_snapshots=drop_snapshots)

    async def aclose(self) -> None:
        """Checkpoint and close every session, stop the reaper (idempotent).

        Snapshots are *kept*: a graceful shutdown leaves every session
        restorable, which is what lets a restarted (or replacement) node
        pick the streams back up.
        """
        self._closed = True
        reaper, self._reaper = self._reaper, None
        if reaper is not None:
            reaper.cancel()
            try:
                await reaper
            except asyncio.CancelledError:
                pass
        for name in list(self._sessions):
            session = self._sessions.get(name)
            if session is None:  # pragma: no cover — concurrent close
                continue
            async with session.lock:
                if self._sessions.get(name) is not session:  # pragma: no cover
                    continue
                if (
                    self._snapshot_store is not None
                    and len(session.detector) > session.snapshotted_length
                ):
                    try:
                        await self._checkpoint_locked(session)
                    except Exception:  # pragma: no cover — best effort
                        pass
                self._drop_locked(name, session, reason="closed", drop_snapshots=False)

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------

    def _require_store(self) -> SnapshotStore:
        if self._snapshot_store is None:
            raise BadRequest(
                "this node has no snapshot store configured (start it with "
                "--snapshot-dir to enable checkpoints)"
            )
        return self._snapshot_store

    async def _checkpoint_locked(self, session: _Session) -> dict:
        """Persist the session's current state (its lock must be held)."""
        store = self._snapshot_store
        seq = session.snapshot_seq + 1

        def _persist() -> int:
            data = encode_snapshot(session.detector.snapshot())
            store.save(session.name, seq, data)
            return len(data)

        size = await asyncio.to_thread(_persist)
        session.snapshot_seq = seq
        session.snapshotted_length = len(session.detector)
        session.snapshots += 1
        self.snapshots_written += 1
        _log.info(
            "session %s checkpointed: seq %d, %d bytes at length %d",
            session.name,
            seq,
            size,
            session.snapshotted_length,
            extra={"session": session.name, "snapshot_seq": seq, "snapshot_bytes": size},
        )
        return {
            "name": session.name,
            "snapshot_seq": seq,
            "snapshot_bytes": size,
            "snapshotted_length": session.snapshotted_length,
        }

    async def snapshot(self, name: str) -> dict:
        """Checkpoint one session on demand; returns the checkpoint record."""
        self._require_store()
        session = self._get(name)
        async with session.lock:
            self._check_still_registered(name, session)
            session.last_used = asyncio.get_running_loop().time()
            return await self._checkpoint_locked(session)

    async def restore(self, name: str) -> dict:
        """Bring a session back from its latest stored checkpoint.

        The restored detector's future appends and polls are bitwise
        identical to the original's — this is the recovery path after a
        node crash (shared store) and the landing half of a migration. The
        caller replays any points appended after ``snapshotted_length``.
        """
        store = self._require_store()
        if not isinstance(name, str) or not _NAME_PATTERN.match(name):
            raise BadRequest(
                "session names must be 1-64 characters from [A-Za-z0-9._-], "
                f"got {name!r}"
            )
        if name in self._sessions:
            raise SessionExists(f"streaming session {name!r} is already live on this node")
        self._check_admission("restore")
        found = await asyncio.to_thread(store.latest, name)
        if found is None:
            raise SessionNotFound(f"no stored snapshot of session {name!r}")
        seq, data = found

        def _rebuild() -> tuple[dict, StreamingEnsembleDetector]:
            state = decode_snapshot(data)
            return state["config"], StreamingEnsembleDetector.restore(state)

        try:
            snapshot_config, detector = await asyncio.to_thread(_rebuild)
        except SnapshotVersionError as error:
            raise BadRequest(f"cannot restore session {name!r}: {error}") from error
        config = DetectorConfig.from_mapping(
            {
                **{k: v for k, v in snapshot_config.items() if v is not None},
                "ensemble_size": detector.ensemble_size,
            }
        )
        session = _Session(name, detector, config)
        session.snapshot_seq = seq
        session.snapshotted_length = len(detector)
        self._sessions[name] = session
        self._tombstones.pop(name, None)
        self._ensure_reaper()
        info = session.info()
        info["restored_from"] = seq
        _log.info(
            "session %s restored from snapshot seq %d at length %d",
            name,
            seq,
            len(detector),
            extra={"session": name, "snapshot_seq": seq},
        )
        return info

    # ------------------------------------------------------------------
    # Data plane.
    # ------------------------------------------------------------------

    async def append(self, name: str, values) -> dict:
        """Feed a chunk into a session (vectorized ingest on a worker thread)."""
        session = self._get(name)
        chunk = np.ascontiguousarray(values, dtype=np.float64)
        if chunk.ndim != 1:
            raise BadRequest(f"chunks must be 1-dimensional, got shape {chunk.shape}")
        async with session.lock:
            self._check_still_registered(name, session)
            if self.memory_budget is not None:
                # Bounded sessions retain a flat window, so only the
                # transient chunk counts; unbounded sessions grow by the
                # chunk plus its prefix sums and tokens (upper estimate).
                growth = chunk.nbytes if session.detector.bounded else 4 * chunk.nbytes
                projected = self.memory_used() + growth
                if projected > self.memory_budget:
                    raise MemoryBudgetExceeded(
                        f"append of {len(chunk)} points would use ~{projected} bytes "
                        f"(budget {self.memory_budget}); close sessions or use "
                        "bounded retention (capacity=)"
                    )
            try:
                await asyncio.to_thread(session.detector.extend, chunk)
            except ValueError as error:
                raise BadRequest(str(error)) from error
            session.appended += len(chunk)
            session.last_used = asyncio.get_running_loop().time()
            if (
                self._snapshot_store is not None
                and self.snapshot_interval is not None
                and len(session.detector) - session.snapshotted_length
                >= self.snapshot_interval
            ):
                await self._checkpoint_locked(session)
            return {
                "name": name,
                "appended": int(len(chunk)),
                "length": len(session.detector),
                "horizon_start": session.detector.horizon_start,
                "live_length": session.detector.state.live_length,
                "version": session.detector.state.version,
                "snapshotted_length": session.snapshotted_length,
            }

    async def poll(self, name: str, k: int = 3) -> dict:
        """Snapshot-detect on a session; absolute stream positions.

        Responses are cached keyed by the session's stream version — a
        repeated poll with no appends in between is answered from the LRU
        (and even on a miss, the detector-level snapshot memoization makes
        the recompute O(1) when nothing changed).
        """
        session = self._get(name)
        k = int(k)
        if k < 1:
            raise BadRequest(f"k must be positive, got {k}")
        async with session.lock:
            self._check_still_registered(name, session)
            session.polls += 1
            session.last_used = asyncio.get_running_loop().time()
            cache_key = None
            if self._cache is not None:
                cache_key = ("poll", session.epoch, session.detector.state.version, k)
                hit, value = self._cache.get(cache_key)
                if hit:
                    return dict(value, cached=True)
            try:
                anomalies = await asyncio.to_thread(session.detector.detect, k)
            except ValueError as error:
                raise BadRequest(str(error)) from error
            payload = {
                "name": name,
                "anomalies": _anomalies_payload(anomalies),
                "length": len(session.detector),
                "horizon_start": session.detector.horizon_start,
                "live_length": session.detector.state.live_length,
                "version": session.detector.state.version,
            }
            if cache_key is not None:
                self._cache.put(cache_key, payload)
            return dict(payload, cached=False)

    # ------------------------------------------------------------------
    # Idle eviction.
    # ------------------------------------------------------------------

    def _ensure_reaper(self) -> None:
        if self.idle_timeout is None or self._closed:
            return
        if self._reaper is None or self._reaper.done():
            self._reaper = asyncio.get_running_loop().create_task(self._reap_idle())

    async def _reap_idle(self) -> None:
        interval = max(self.idle_timeout / 4.0, 0.05)
        while self._sessions and not self._closed:
            await asyncio.sleep(interval)
            await self.evict_idle()

    async def evict_idle(self) -> list[str]:
        """Evict sessions idle past the timeout; returns the evicted names.

        Eviction takes each candidate's lock and *re-checks idleness under
        it*: a request that slipped in between the unlocked scan and the
        lock acquisition refreshed ``last_used``, and evicting on the stale
        reading would tear a session down mid-conversation. Evicted
        sessions are checkpointed first (when a store is attached), so an
        accidental eviction is recoverable via :meth:`restore`.
        """
        if self.idle_timeout is None:
            return []
        now = asyncio.get_running_loop().time()
        evicted = []
        for name, session in list(self._sessions.items()):
            if session.lock.locked():  # in use right now — not idle
                continue
            if now - session.last_used <= self.idle_timeout:
                continue
            async with session.lock:
                # Re-validate under the lock: an in-flight append/poll may
                # have won the lock first and refreshed last_used, or a
                # close may have removed the session entirely.
                if self._sessions.get(name) is not session:
                    continue
                if (
                    asyncio.get_running_loop().time() - session.last_used
                    <= self.idle_timeout
                ):
                    continue
                if (
                    self._snapshot_store is not None
                    and len(session.detector) > session.snapshotted_length
                ):
                    try:
                        await self._checkpoint_locked(session)
                    except Exception:  # pragma: no cover — evict regardless
                        pass
                self._drop_locked(name, session, reason="evicted", drop_snapshots=False)
            evicted.append(name)
            self.evicted_idle += 1
        return evicted

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def info(self, name: str) -> dict:
        """Info document of one live session (:class:`SessionGone` when gone)."""
        return self._get(name).info()

    def list(self) -> list[dict]:
        """Summaries of every live session (name, length, memory)."""
        return [session.info() for session in self._sessions.values()]

    def stats(self) -> dict:
        """Session counts and memory accounting for the ``/stats`` endpoint."""
        return {
            "sessions": len(self._sessions),
            "max_sessions": self.max_sessions,
            "memory_used": self.memory_used(),
            "memory_budget": self.memory_budget,
            "idle_timeout": self.idle_timeout,
            "evicted_idle": self.evicted_idle,
            "snapshots_written": self.snapshots_written,
            "snapshot_interval": self.snapshot_interval,
            "tombstones": len(self._tombstones),
        }
