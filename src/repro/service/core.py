"""The transport-agnostic serving core: batching + sessions + caching.

:class:`DetectService` is the object a front end (the stdlib HTTP server in
:mod:`repro.service.http`, or any other transport) drives. It owns:

- one **executor** (any :class:`~repro.core.executors.MemberExecutor`
  backend, or the inline ``n_jobs`` semantics) shared by *every* request —
  the consolidation a long-lived service exists for: one pool, spawned
  once, amortized across all callers;
- a :class:`~repro.service.batching.MicroBatcher` that coalesces concurrent
  ``detect`` requests with equal detector configurations into single
  ``detect_batch`` calls with per-request seeds, bounded queueing
  (429-style rejection) and per-request deadlines;
- a :class:`~repro.service.sessions.StreamSessionManager` hosting named
  streaming sessions with idle eviction and a global memory budget;
- an :class:`~repro.service.cache.LRUCache` keyed by series digest +
  config fingerprint (one-shot detects) and stream version (polls).

Parity contract
---------------
A served request is **bitwise identical** to the equivalent direct call:

- ``await service.detect(series, window=w, seed=s, k=k)`` equals
  ``EnsembleGrammarDetector(window=w, seed=s, ...).detect(series, k)`` —
  the batch runner passes each request's seed verbatim through
  ``detect_batch(..., seeds=...)``, so coalescing never changes results;
- ``await service.detect_many(series_list, seed=s)`` equals
  ``EnsembleGrammarDetector(seed=s, ...).detect_batch(series_list)`` — the
  same ``SeedSequence.spawn`` derivation, submitted per item;
- session ``append``/``poll`` equals driving one
  :class:`~repro.core.streaming.StreamingEnsembleDetector` with the same
  chunks — the session *is* that detector.

The parity suite (``tests/test_service.py``/``tests/test_service_http.py``)
enforces all three across the serial/thread/process backends.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.anomaly import Anomaly
from repro.core.engine import detect_batch
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import (
    BatchItemError,
    MemberExecutor,
    as_executor,
    validate_executor_spec,
)
from repro.obs import stages
from repro.obs.context import bind_request_id, get_request_id
from repro.obs.logging import get_logger
from repro.service.batching import MicroBatcher
from repro.service.cache import LRUCache, series_digest
from repro.service.config import DETECT_FIELDS, DetectorConfig
from repro.service.errors import BadRequest
from repro.service.sessions import StreamSessionManager
from repro.service.snapshot import SnapshotStore
from repro.utils.rng import spawn_rngs

__all__ = ["DetectResult", "DetectService"]

_UNSET = object()

_log = get_logger("service.core")


@dataclass(frozen=True)
class DetectResult:
    """One served detection: the ranked candidates plus cache provenance.

    ``timings`` (present only when the request asked for it) holds the
    per-stage durations of the micro-batch this request ran in — batch
    level, not per item, because coalesced items share the stages.
    """

    anomalies: tuple[Anomaly, ...]
    cached: bool
    timings: dict | None = None

    def payload(self) -> dict:
        """JSON-shaped response body."""
        document = {
            "anomalies": [
                {"rank": a.rank, "position": a.position, "length": a.length, "score": a.score}
                for a in self.anomalies
            ],
            "cached": self.cached,
        }
        if self.timings is not None:
            document["timings"] = self.timings
        return document


class _DetectItem:
    """One request inside a coalesced batch: series, exact seed, and spec.

    The detector kwargs/k ride on the item (one shared dict per config —
    cheap references) rather than in a service-level registry, so serving
    a long tail of distinct configurations leaves no permanent per-config
    state behind.

    ``request_id`` is captured at submit time because the batcher's drain
    task runs in its own ``contextvars`` context — the id must ride on the
    item to reach the batch runner (and, through it, cluster envelopes).
    """

    __slots__ = ("series", "seed", "kwargs", "k", "request_id")

    def __init__(
        self, series: np.ndarray, seed, kwargs: dict, k: int, request_id: str | None = None
    ) -> None:
        self.series = series
        self.seed = seed
        self.kwargs = kwargs
        self.k = k
        self.request_id = request_id


class DetectService:
    """Async, multi-tenant serving core over the detection engine.

    Parameters
    ----------
    executor:
        Execution backend shared by every request: a spec string from
        :data:`~repro.core.executors.EXECUTOR_SPECS` — including
        ``"cluster:HOST:PORT"``, which puts a worker fleet behind the
        service with no other change — (the service creates and owns it),
        a live :class:`~repro.core.executors.MemberExecutor` (borrowed;
        the caller closes it), or ``None`` for the inline ``n_jobs``
        semantics.
    n_jobs:
        Pool size for a spec-built executor; when ``executor`` is ``None``,
        the member threads of each detection (the batch engine's
        ``n_jobs``; no process is spawned).
    batch_window, max_batch_size, max_pending:
        Micro-batching knobs — see
        :class:`~repro.service.batching.MicroBatcher`.
    cache_entries:
        LRU result-cache capacity (0 disables caching).
    max_sessions, idle_timeout, memory_budget:
        Streaming-session policies — see
        :class:`~repro.service.sessions.StreamSessionManager`.
    snapshot_store, snapshot_interval:
        Session checkpointing — see
        :class:`~repro.service.sessions.StreamSessionManager`. With a
        store attached, sessions survive crashes and can migrate between
        nodes sharing the store.
    node_id:
        Stable identity this node reports under ``GET /v1/nodes`` (the
        router uses it to tell nodes apart); defaults to ``host:pid``-less
        ``"node"``.
    default_timeout:
        Deadline (seconds) applied to requests that do not carry their own;
        ``None`` waits indefinitely.
    """

    def __init__(
        self,
        *,
        executor: MemberExecutor | str | None = None,
        n_jobs: int | None = 1,
        batch_window: float = 0.002,
        max_batch_size: int = 16,
        max_pending: int = 128,
        cache_entries: int = 256,
        max_sessions: int = 64,
        idle_timeout: float | None = None,
        memory_budget: int | None = None,
        snapshot_store: SnapshotStore | None = None,
        snapshot_interval: int | None = None,
        node_id: str | None = None,
        default_timeout: float | None = 30.0,
    ) -> None:
        validate_executor_spec(executor)
        self.n_jobs = n_jobs
        self._owns_executor = isinstance(executor, str)
        if isinstance(executor, str):
            self._executor: MemberExecutor | None = as_executor(
                executor, None if n_jobs in (None, 1) else n_jobs
            )
        else:
            self._executor = executor
        self.default_timeout = default_timeout
        self.cache = LRUCache(cache_entries)
        self.batcher = MicroBatcher(
            self._run_batch,
            batch_window=batch_window,
            max_batch_size=max_batch_size,
            max_pending=max_pending,
        )
        self.sessions = StreamSessionManager(
            max_sessions=max_sessions,
            idle_timeout=idle_timeout,
            memory_budget=memory_budget,
            executor=self._executor,
            cache=self.cache if self.cache.enabled else None,
            snapshot_store=snapshot_store,
            snapshot_interval=snapshot_interval,
        )
        self.node_id = str(node_id) if node_id is not None else "node"
        self._closed = False

    # ------------------------------------------------------------------
    # Request normalization.
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_config(config: dict) -> tuple[dict, tuple]:
        """Validate a request's detector configuration; return (kwargs, fingerprint).

        The request mapping is parsed into the canonical
        :class:`~repro.service.config.DetectorConfig` (unknown fields
        rejected loudly) and resolved through the engine, so two requests
        spelling the same configuration differently share one fingerprint —
        and one micro-batch group and cache line.
        """
        try:
            parsed = DetectorConfig.from_mapping(dict(config), allowed=DETECT_FIELDS)
            return parsed.resolve()
        except (ValueError, TypeError) as error:
            raise BadRequest(f"invalid detector configuration: {error}") from error

    @staticmethod
    def _normalize_series(series) -> np.ndarray:
        series = np.ascontiguousarray(series, dtype=np.float64)
        if series.ndim != 1:
            raise BadRequest(f"series must be 1-dimensional, got shape {series.shape}")
        if series.size < 2:
            raise BadRequest(f"series must hold at least 2 observations, got {series.size}")
        return series

    # ------------------------------------------------------------------
    # One-shot detection.
    # ------------------------------------------------------------------

    async def detect(
        self,
        series,
        *,
        k: int = 3,
        seed=0,
        timeout=_UNSET,
        use_cache: bool = True,
        timings: bool = False,
        **config: Any,
    ) -> DetectResult:
        """Detect anomalies in one series (micro-batched, cached, deadlined).

        ``config`` holds the :class:`~repro.core.ensemble.EnsembleGrammarDetector`
        parameters (``window`` is required). Bitwise identical to
        ``EnsembleGrammarDetector(**config, seed=seed).detect(series, k)``.
        ``timings=True`` attaches the micro-batch's per-stage durations to
        the result (empty for cache hits or stages run in worker
        processes); it never changes the detection itself.
        """
        kwargs, fingerprint = self._normalize_config(config)
        return await self._submit_detect(
            series,
            kwargs,
            fingerprint,
            k=k,
            seed=seed,
            timeout=timeout,
            use_cache=use_cache,
            want_timings=timings,
        )

    async def _submit_detect(
        self,
        series,
        kwargs: dict,
        fingerprint: tuple,
        *,
        k,
        seed,
        timeout,
        use_cache,
        want_timings: bool = False,
    ) -> DetectResult:
        """The post-config-normalization half of :meth:`detect`.

        Split out so :meth:`detect_many` can validate one shared
        configuration once and submit every series through it.
        """
        series = self._normalize_series(series)
        k = int(k)
        if k < 1:
            raise BadRequest(f"k must be positive, got {k}")
        if timeout is _UNSET:
            timeout = self.default_timeout
        # Generator seeds are neither hashable-stable nor reusable; only
        # int/None-seeded requests are cacheable.
        cache_key = None
        if use_cache and self.cache.enabled and (seed is None or isinstance(seed, int)):
            cache_key = ("detect", series_digest(series), fingerprint, k, seed)
            hit, value = self.cache.get(cache_key)
            if hit:
                return DetectResult(
                    anomalies=value, cached=True, timings={} if want_timings else None
                )
        group = (fingerprint, k)
        anomalies, batch_timings = await self.batcher.submit(
            group, _DetectItem(series, seed, kwargs, k, get_request_id()), timeout=timeout
        )
        anomalies = tuple(anomalies)
        if cache_key is not None:
            self.cache.put(cache_key, anomalies)
        return DetectResult(
            anomalies=anomalies, cached=False, timings=batch_timings if want_timings else None
        )

    async def detect_many(
        self,
        series_list: Sequence,
        *,
        k: int = 3,
        seed=0,
        timeout=_UNSET,
        **config: Any,
    ) -> list[DetectResult | BatchItemError]:
        """Detect over many series as one request (partial results on failure).

        Per-item seeds derive from ``seed`` exactly like
        :func:`repro.core.engine.detect_batch` derives them, so the result
        list is bitwise identical to a direct
        ``EnsembleGrammarDetector(seed=seed, **config).detect_batch(series_list, k)``
        — except that a failing series yields a
        :class:`~repro.core.executors.BatchItemError` in its slot instead
        of failing the whole request.
        """
        series_list = list(series_list)
        seeds = spawn_rngs(seed, len(series_list))
        # One shared configuration: validate and fingerprint it once, not
        # once per series.
        kwargs, fingerprint = self._normalize_config(config)
        results = await asyncio.gather(
            *(
                self._submit_detect(
                    series,
                    kwargs,
                    fingerprint,
                    k=k,
                    seed=child,
                    timeout=timeout,
                    use_cache=False,
                )
                for series, child in zip(series_list, seeds)
            ),
            return_exceptions=True,
        )
        out: list[DetectResult | BatchItemError] = []
        for index, result in enumerate(results):
            if isinstance(result, BaseException):
                if not isinstance(result, Exception):
                    raise result
                if isinstance(result, BatchItemError):
                    # Re-attribute: the wrapped index points into whatever
                    # micro-batch the item landed in, not this request.
                    result = BatchItemError(index, None, result.cause_message)
                else:
                    result = BatchItemError(index, None, result)
                out.append(result)
            else:
                out.append(result)
        return out

    def _batch_chunksize(self, count: int) -> int:
        """Task granularity for one coalesced batch.

        Aim for ~2 chunks per worker so the pool stays balanced while the
        per-task dispatch overhead is amortized across the chunk — the
        knob that makes micro-batching of *small* requests pay (see
        ``chunksize`` in :func:`repro.core.engine.iter_detect_batch`).
        """
        if self._executor is None or self._executor.kind == "serial":
            return 1
        workers = max(1, self._executor.max_workers)
        return max(1, -(-count // (2 * workers)))

    def _run_batch(self, group: tuple, items: Sequence[_DetectItem]) -> list[tuple[int, Any]]:
        """Blocking batch runner (worker thread): one coalesced detect batch.

        Every item runs with *its own* seed through the engine's explicit
        ``seeds=`` path on the shared executor; a per-item failure comes
        back as that slot's :class:`~repro.core.executors.BatchItemError`.
        All items share the group's config by construction, so the first
        item's spec speaks for the batch.

        Telemetry rides along without touching results: the coalesced
        items' request ids are re-bound here (the drain task has its own
        context) so engine/cluster log lines and task envelopes name the
        originating requests, and the stage durations of the batch are
        captured and returned with each successful slot.
        """
        kwargs, k = items[0].kwargs, items[0].k
        request_ids = sorted({item.request_id for item in items if item.request_id})
        template = EnsembleGrammarDetector(**kwargs, seed=0)
        with bind_request_id(",".join(request_ids) or None), stages.capture() as timings:
            results = detect_batch(
                template,
                [item.series for item in items],
                k,
                n_jobs=self.n_jobs,
                executor=self._executor,
                seeds=[item.seed for item in items],
                return_exceptions=True,
                chunksize=self._batch_chunksize(len(items)),
            )
            _log.debug(
                "micro-batch of %d item(s) ran",
                len(items),
                extra={"batch_size": len(items), "k": k},
            )
        return [
            (index, result if isinstance(result, BaseException) else (result, dict(timings)))
            for index, result in enumerate(results)
        ]

    # ------------------------------------------------------------------
    # Streaming sessions (delegation).
    # ------------------------------------------------------------------

    async def create_session(self, name: str, **config: Any) -> dict:
        """Create a named streaming session (see :class:`StreamSessionManager`)."""
        return await self.sessions.create(name, **config)

    async def append(self, name: str, values) -> dict:
        """Feed a chunk into a session (507 semantics on budget breach)."""
        return await self.sessions.append(name, values)

    async def poll(self, name: str, k: int = 3) -> dict:
        """Snapshot-detect on a session; cached per stream version."""
        return await self.sessions.poll(name, k)

    async def close_session(
        self, name: str, *, drop_snapshots: bool = True, reason: str = "closed"
    ) -> dict:
        """Close a session and release its stream state.

        ``drop_snapshots=False`` keeps stored checkpoints (migration /
        planned-restart semantics); the ``reason`` lands in the tombstone
        a later request's 410 reports.
        """
        return await self.sessions.close(name, drop_snapshots=drop_snapshots, reason=reason)

    async def snapshot_session(self, name: str) -> dict:
        """Checkpoint one session to the snapshot store on demand."""
        return await self.sessions.snapshot(name)

    async def restore_session(self, name: str) -> dict:
        """Restore a session from its latest stored checkpoint."""
        return await self.sessions.restore(name)

    def session_info(self, name: str) -> dict:
        """Info document of one live session (410/404 when gone/unknown)."""
        return self.sessions.info(name)

    def list_sessions(self) -> list[dict]:
        """Summaries of every live streaming session."""
        return self.sessions.list()

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Operational counters for the ``/stats`` endpoint."""
        if self._executor is None:
            executor_info: dict = {"kind": "inline", "n_jobs": self.n_jobs}
        else:
            executor_info = {
                "kind": self._executor.kind,
                "max_workers": self._executor.max_workers,
                "worker_pids": list(self._executor.worker_pids()),
            }
        return {
            "closed": self._closed,
            "node": self.node_id,
            "executor": executor_info,
            "batcher": self.batcher.stats(),
            "cache": self.cache.stats(),
            "sessions": self.sessions.stats(),
        }

    async def aclose(self) -> None:
        """Graceful shutdown: drain batches, close sessions, release the pool.

        Order matters for the leak guarantees: the batcher is closed first
        (in-flight batches finish on their worker threads, releasing every
        shared-memory segment they published), then sessions, then — only
        once nothing can submit new work — the owned executor pool is shut
        down, reaping its worker processes. Idempotent.
        """
        self._closed = True
        await self.batcher.aclose()
        await self.sessions.aclose()
        if self._executor is not None and self._owns_executor:
            await asyncio.to_thread(self._executor.close)

    async def __aenter__(self) -> "DetectService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
