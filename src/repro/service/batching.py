"""Micro-batching scheduler: coalesce concurrent requests into shared batches.

The serving problem this solves: many concurrent ``detect`` requests arrive
independently, but the engine's :func:`~repro.core.engine.detect_batch` is
far more efficient per request than one call per request — it amortizes the
executor round-trip, series publication, and pool packing across the whole
batch. :class:`MicroBatcher` is the piece in between: requests that share a
*group key* (in the service: the detector-config fingerprint plus ``k``)
are dispatched together as one batch to a blocking runner executed on a
worker thread, and each caller's ``await`` resolves with its own result.

Semantics:

- **Natural batching** — a group's dispatch loop takes whatever is queued
  right now (up to ``max_batch_size``), runs it, and repeats. Nothing
  lingers: a lone request goes to the runner at once, and requests that
  arrive while a batch runs form the next batch, so batches fill exactly
  as fast as load builds up.
- **Grouping** — only requests with equal group keys are batched together;
  each active group has one dispatch loop, so at most one batch per group
  is in flight at a time (batch-level parallelism comes from the executor
  *inside* the runner, not from racing batches).
- **Backpressure** — a bounded pending budget across all groups; when full,
  ``submit`` fails fast with :class:`~repro.service.errors.ServiceOverloaded`
  (the HTTP front end maps it to 429) instead of queueing unboundedly.
- **Deadlines** — ``submit(timeout=...)`` resolves with
  :class:`~repro.service.errors.DeadlineExceeded` if the result is not
  ready in time; a request that times out while still queued is skipped at
  dispatch (its slot is not computed).
- **Partial failure** — the runner returns one result per request; a result
  that is an exception instance fails only that caller's ``await``.

The batcher is transport-agnostic and engine-agnostic: it never imports the
detector stack. The serving core supplies a runner built on
``detect_batch(..., seeds=..., return_exceptions=True)``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Hashable, Sequence

from repro.service.errors import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
)

__all__ = ["MicroBatcher"]

#: ``run_batch`` contract: called on a worker thread with the group key and
#: the payloads of one coalesced batch; returns ``(slot, result)`` pairs
#: where ``slot`` indexes into the given payload list and an exception
#: instance as ``result`` fails that slot's caller only.
BatchRunner = Callable[[Hashable, Sequence[Any]], Sequence[tuple[int, Any]]]


class _Pending:
    """One queued request: its payload and the caller's future."""

    __slots__ = ("payload", "future")

    def __init__(self, payload: Any, future: asyncio.Future) -> None:
        self.payload = payload
        self.future = future


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into batched runner invocations.

    Parameters
    ----------
    run_batch:
        Blocking batch runner (see :data:`BatchRunner`); executed via
        ``asyncio.to_thread`` so the event loop stays responsive.
    max_batch_size:
        Largest number of requests dispatched as one batch. ``1`` turns
        coalescing off — the baseline the throughput bench compares
        against.
    max_pending:
        Backpressure bound: queued-but-undispatched requests across all
        groups. ``submit`` beyond it raises
        :class:`~repro.service.errors.ServiceOverloaded` immediately.
    """

    def __init__(
        self,
        run_batch: BatchRunner,
        *,
        max_batch_size: int = 16,
        max_pending: int = 128,
    ) -> None:
        max_batch_size = int(max_batch_size)
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        max_pending = int(max_pending)
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self._run_batch = run_batch
        self.max_batch_size = max_batch_size
        self.max_pending = max_pending
        self._queues: dict[Hashable, deque[_Pending]] = {}
        self._workers: dict[Hashable, asyncio.Task] = {}
        self._pending = 0
        self._closed = False
        #: Counters surfaced through ``stats()``.
        self.submitted = 0
        self.dispatched = 0
        self.batches = 0
        self.rejected = 0
        self.expired = 0

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests queued but not yet picked up by a dispatch loop."""
        return self._pending

    @property
    def closed(self) -> bool:
        """Whether :meth:`aclose` has begun (new submissions are refused)."""
        return self._closed

    async def submit(self, key: Hashable, payload: Any, *, timeout: float | None = None):
        """Enqueue one request and await its result.

        Raises :class:`~repro.service.errors.ServiceOverloaded` when the
        pending budget is exhausted, :class:`~repro.service.errors.DeadlineExceeded`
        when ``timeout`` elapses first, and whatever exception the runner
        attributed to this request otherwise.
        """
        if self._closed:
            raise ServiceClosed("service is shutting down")
        if self._pending >= self.max_pending:
            self.rejected += 1
            raise ServiceOverloaded(
                f"{self._pending} requests pending (limit {self.max_pending}); retry later"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._queues.setdefault(key, deque()).append(_Pending(payload, future))
        self._pending += 1
        self.submitted += 1
        worker = self._workers.get(key)
        if worker is None or worker.done():
            self._workers[key] = loop.create_task(self._drain_group(key))
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            # wait_for cancelled the future; an undispatched request is
            # skipped at dispatch time, a dispatched one has its (already
            # computed) result dropped by the done() guard.
            self.expired += 1
            raise DeadlineExceeded(
                f"request did not complete within {timeout:.3f}s"
            ) from None

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    async def _drain_group(self, key: Hashable) -> None:
        """Dispatch loop of one group: take what is queued, run, deliver, repeat.

        Never waits for more work: whatever queued while the previous batch
        ran is the next batch.
        """
        queue = self._queues[key]
        try:
            while queue:
                batch: list[_Pending] = []
                while queue and len(batch) < self.max_batch_size:
                    batch.append(queue.popleft())
                self._pending -= len(batch)
                live = [entry for entry in batch if not entry.future.done()]
                if not live:
                    continue
                self.batches += 1
                self.dispatched += len(live)
                payloads = [entry.payload for entry in live]
                try:
                    results = await asyncio.to_thread(self._run_batch, key, payloads)
                except BaseException as error:
                    failure = (
                        error
                        if isinstance(error, Exception)
                        else ServiceClosed("batch dispatch interrupted")
                    )
                    for entry in live:
                        if not entry.future.done():
                            entry.future.set_exception(failure)
                    if not isinstance(error, Exception):
                        raise
                    continue
                delivered = set()
                for slot, result in results:
                    entry = live[slot]
                    delivered.add(slot)
                    if entry.future.done():
                        continue
                    if isinstance(result, BaseException):
                        entry.future.set_exception(result)
                    else:
                        entry.future.set_result(result)
                for slot, entry in enumerate(live):
                    if slot not in delivered and not entry.future.done():
                        entry.future.set_exception(
                            ServiceError("batch runner returned no result for this request")
                        )
        finally:
            # No await between the final emptiness check and this pop, so a
            # concurrent submit can never append to a queue whose worker is
            # gone without noticing (it re-checks worker.done()). Empty
            # queues are reaped with their worker — a long tail of distinct
            # group keys leaves no permanent state behind.
            if self._workers.get(key) is asyncio.current_task():
                self._workers.pop(key, None)
            if not self._queues.get(key):
                self._queues.pop(key, None)

    # ------------------------------------------------------------------
    # Lifecycle / introspection.
    # ------------------------------------------------------------------

    async def aclose(self) -> None:
        """Stop accepting work, fail queued requests, wait out in-flight batches.

        Requests already dispatched to the runner complete normally (their
        callers get real results); requests still queued fail with
        :class:`~repro.service.errors.ServiceClosed`. Idempotent.
        """
        if self._closed:
            workers = [task for task in self._workers.values() if not task.done()]
            if workers:
                await asyncio.gather(*workers, return_exceptions=True)
            return
        self._closed = True
        error = ServiceClosed("service is shutting down")
        for queue in list(self._queues.values()):
            while queue:
                entry = queue.popleft()
                self._pending -= 1
                if not entry.future.done():
                    entry.future.set_exception(error)
        self._queues.clear()
        workers = [task for task in self._workers.values() if not task.done()]
        if workers:
            await asyncio.gather(*workers, return_exceptions=True)

    def stats(self) -> dict:
        """Counters for the ``/stats`` endpoint and the throughput bench."""
        return {
            "submitted": self.submitted,
            "dispatched": self.dispatched,
            "batches": self.batches,
            "pending": self._pending,
            "rejected_overload": self.rejected,
            "expired_deadline": self.expired,
            "mean_batch_size": (self.dispatched / self.batches) if self.batches else 0.0,
            "max_batch_size": self.max_batch_size,
            "max_pending": self.max_pending,
        }
