"""Cross-machine dispatch: the cluster executor backend.

The local backends in :mod:`repro.core.executors` stop at the machine
boundary. This module crosses it: :class:`ClusterExecutor` implements the
same :class:`~repro.core.executors.MemberExecutor` interface but dispatches
tasks to *worker processes connected over TCP* — on the same host, or on
any machine that can reach the scheduler. Because every engine entry point
(``detect``, ``detect_batch``, ``iter_detect_batch``, ``evaluate_methods``,
streaming snapshots, and the serving subsystem) already runs through the
executor interface, they all gain cross-machine execution with zero
call-site changes.

Architecture
------------
The executor *is* the scheduler. It binds a TCP listener
(:class:`multiprocessing.connection.Listener`, stdlib, authenticated with a
shared key) and workers dial in with ``python -m repro worker --connect
HOST:PORT``. Dispatch is pull-based:

- a worker sends ``ready`` and the scheduler leases it the oldest eligible
  task (or replies ``idle`` after a short wait);
- the worker runs the task function and sends back ``result``;
- a heartbeat thread on the worker keeps its lease fresh while it computes.

Task envelopes carry a module-level function (pickled by reference — it
must be importable on the worker), its payload, and any *series blobs* the
payload references. Series are published once per executor call through
:meth:`ClusterExecutor.share_series`, which registers the raw float64 bytes
under a content digest; a worker receives each blob at most once per
connection and caches it by digest (the remote analogue of the process
backend's shared memory — falling back from zero-copy to send-once, since
remote workers cannot attach to local ``/dev/shm``). Blob bytes round-trip
exactly, so results are **bitwise identical** to the serial path — the same
parity contract every other backend honours, enforced for this one by
``tests/test_cluster_executor.py`` and ``pytest --executor cluster
tests/test_executor_parity.py``.

Fault tolerance
---------------
The scheduler tracks a lease per running task. A worker that dies (its
connection drops) or goes silent past ``lease_timeout`` is declared lost:
its connection is closed, and every task it was leased is requeued with the
lost worker excluded, up to ``max_task_attempts`` attempts — so killing a
worker mid-batch loses no series and duplicates none (late results for a
task that already completed elsewhere are ignored; task functions are
deterministic, so either result is the same). A task whose retries are
exhausted — or that waits longer than ``worker_wait`` with no workers
connected at all — fails with :class:`ClusterWorkerLost`, which the batch
layers wrap into the usual :class:`~repro.core.executors.BatchItemError`
naming the failing series.

Deployment shapes
-----------------
- **Self-contained (zero config):** ``ClusterExecutor(max_workers=4)``
  binds an ephemeral localhost port and spawns four local worker
  subprocesses via the CLI ``worker`` subcommand. This is what
  ``as_executor("cluster", n)`` builds, what the parity suite runs, and
  the easiest way to try the backend.
- **Fleet:** ``as_executor("cluster:0.0.0.0:9123")`` binds a fixed address
  and waits for externally started workers (any host). The CLI spells it
  ``--executor cluster --scheduler 0.0.0.0:9123``; see
  ``docs/deployment.md`` for the run-book.
"""

from __future__ import annotations

import itertools
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from hashlib import blake2b
from multiprocessing.connection import Client, Listener
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.executors import (
    MemberExecutor,
    SeriesHandle,
    _as_series_1d,
)
from repro.obs.context import bind_request_id, get_request_id
from repro.obs.logging import get_logger

_log = get_logger("core.cluster")

__all__ = [
    "ClusterError",
    "ClusterExecutor",
    "ClusterSeriesRef",
    "ClusterWorkerLost",
    "parse_address",
    "run_worker",
]

#: Development default for the connection-authentication key. Real
#: deployments should set ``REPRO_CLUSTER_AUTHKEY`` (the worker CLI and the
#: executor both read it) instead of relying on a public constant.
DEFAULT_AUTHKEY = b"repro-cluster"

#: Environment variable carrying the shared authentication key.
AUTHKEY_ENV = "REPRO_CLUSTER_AUTHKEY"

#: How long a scheduler-side handler blocks waiting for work before
#: replying ``idle`` (seconds). Small enough that a worker-loss check runs
#: regularly; large enough that dispatch latency is dominated by the task.
_LEASE_WAIT = 0.25

#: How long a worker sleeps after an ``idle`` reply before polling again.
_IDLE_DELAY = 0.02

#: Interval between scheduler housekeeping passes (lease expiry, stranded
#: tasks) in seconds.
_MONITOR_INTERVAL = 0.25


class ClusterError(RuntimeError):
    """A cluster-level failure (no workers, closed executor, bad spec)."""


class ClusterWorkerLost(ClusterError):
    """A task's worker died and the retry budget is exhausted.

    The batch layers wrap this into
    :class:`~repro.core.executors.BatchItemError`, so a lost series is
    still reported with its index and label.
    """


def _resolve_authkey(authkey: bytes | str | None) -> bytes:
    """Normalize an auth key: explicit value, else env var, else dev default."""
    if authkey is None:
        authkey = os.environ.get(AUTHKEY_ENV)
    if authkey is None:
        return DEFAULT_AUTHKEY
    if isinstance(authkey, str):
        return authkey.encode("utf-8")
    return bytes(authkey)


def _enable_nodelay(conn) -> None:
    """Disable Nagle's algorithm on a connection's TCP socket.

    The dispatch protocol is many small frames (ready/task/result); with
    Nagle on, each round trip stalls on the peer's delayed ACK (~40ms),
    which would dominate per-task dispatch cost. Options live on the
    socket, not the fd, so setting it through a dup is enough. Best-effort:
    non-TCP transports are left alone.
    """
    try:
        sock = socket.socket(fileno=os.dup(conn.fileno()))
    except OSError:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
    finally:
        sock.close()


def parse_address(address: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` string into a ``(host, port)`` pair."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"cluster address must be HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"cluster address must be HOST:PORT, got {address!r}") from None


# ----------------------------------------------------------------------
# Series passing: content-addressed blobs, sent once per worker.
# ----------------------------------------------------------------------

#: Worker-process blob cache, keyed by digest. Installed by the worker loop
#: before a task runs; read by :meth:`ClusterSeriesRef.resolve`.
_WORKER_BLOBS: dict[str, bytes] = {}


@dataclass(frozen=True)
class ClusterSeriesRef:
    """Picklable pointer to a series published to cluster workers.

    ``digest`` is the blake2b content hash of the series' float64 bytes;
    the scheduler transfers the bytes to each worker at most once per
    connection and the worker caches them, so a series scanned by many
    tasks crosses the wire once, not per task.
    """

    digest: str
    length: int

    def resolve(self) -> np.ndarray:
        """Materialize the series from the worker-local blob cache.

        Reconstruction is ``np.frombuffer`` over the exact bytes the client
        published — a bitwise round trip, so results never depend on the
        transport.
        """
        blob = _WORKER_BLOBS.get(self.digest)
        if blob is None:
            raise ClusterError(
                f"series blob {self.digest[:12]}… is not in this worker's cache; "
                "was its handle closed while tasks were still queued?"
            )
        series = np.frombuffer(blob, dtype=np.float64)
        if len(series) != self.length:
            raise ClusterError(
                f"series blob {self.digest[:12]}… holds {len(series)} points, "
                f"expected {self.length}"
            )
        return series.copy()


class _ClusterSeriesHandle(SeriesHandle):
    """Owns one reference to a blob in the scheduler's store."""

    def __init__(self, ref: ClusterSeriesRef, state: "_SchedulerState") -> None:
        super().__init__(ref)
        self._state: _SchedulerState | None = state

    def close(self) -> None:
        """Drop this handle's blob reference (idempotent)."""
        state, self._state = self._state, None
        if state is not None:
            state.release_blob(self.ref.digest)


def _scan_digests(obj: Any, found: set[str]) -> None:
    """Collect every :class:`ClusterSeriesRef` digest reachable in a payload."""
    if isinstance(obj, ClusterSeriesRef):
        found.add(obj.digest)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _scan_digests(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _scan_digests(item, found)


# ----------------------------------------------------------------------
# Scheduler state (shared by the accept loop, handlers, and the executor).
# ----------------------------------------------------------------------


class _Task:
    """One dispatched unit of work and its retry bookkeeping."""

    __slots__ = (
        "task_id",
        "fn",
        "payload",
        "digests",
        "excluded",
        "attempts",
        "cancelled",
        "request_id",
    )

    def __init__(
        self,
        task_id: int,
        fn: Callable,
        payload: Any,
        digests: frozenset[str],
        request_id: str | None = None,
    ) -> None:
        self.task_id = task_id
        self.fn = fn
        self.payload = payload
        self.digests = digests
        #: Correlation id of the serving request that caused this task
        #: (rides the wire envelope so worker-side log lines name it).
        self.request_id = request_id
        #: Worker ids this task must not be leased to again (lost mid-task).
        self.excluded: set[str] = set()
        #: Times this task has been leased (first lease counts as 1).
        self.attempts = 0
        #: Abandoned by the caller: never requeue, drop quietly.
        self.cancelled = False


class _WorkerInfo:
    """Scheduler-side record of one connected worker."""

    __slots__ = (
        "worker_id",
        "name",
        "pid",
        "conn",
        "send_lock",
        "sent_digests",
        "leased",
        "last_seen",
        "lost",
        "completed",
    )

    def __init__(self, worker_id: str, name: str, pid: int, conn) -> None:
        self.worker_id = worker_id
        self.name = name
        self.pid = pid
        self.conn = conn
        self.send_lock = threading.Lock()
        #: Blob digests this worker has already received (reset on reconnect
        #: because a reconnecting worker is a new worker).
        self.sent_digests: set[str] = set()
        #: task_id -> _Task currently leased to this worker.
        self.leased: dict[int, _Task] = {}
        self.last_seen = time.monotonic()
        self.lost = False
        self.completed = 0

    def send(self, message) -> None:
        """Send one message to the worker (serialized against other senders)."""
        with self.send_lock:
            self.conn.send(message)


class _SchedulerState:
    """All mutable scheduler state, guarded by one lock.

    The accept loop registers workers, handler threads lease tasks and
    record results, the monitor reaps silent workers and strands, and the
    executor submits work and waits on results — every one of them through
    the methods here, under :attr:`_lock`.
    """

    def __init__(self, *, lease_timeout: float, max_task_attempts: int, worker_wait: float) -> None:
        self.lease_timeout = float(lease_timeout)
        self.max_task_attempts = int(max_task_attempts)
        self.worker_wait = float(worker_wait)
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._results_available = threading.Condition(self._lock)
        self._workers_changed = threading.Condition(self._lock)
        self._tasks: dict[int, _Task] = {}
        self._pending: deque[_Task] = deque()
        self._results: dict[int, tuple[bool, Any]] = {}
        self._workers: dict[str, _WorkerInfo] = {}
        self._blobs: dict[str, bytes] = {}
        self._blob_refs: dict[str, int] = {}
        self._task_ids = itertools.count()
        self._worker_ids = itertools.count()
        self._closing = False
        #: When the pool last became empty while work was outstanding.
        self._starved_since: float | None = None
        self.tasks_submitted = 0
        self.tasks_retried = 0

    # -- blobs ----------------------------------------------------------

    def add_blob(self, digest: str, data: bytes) -> None:
        """Register (or re-reference) a series blob under its digest."""
        with self._lock:
            if digest not in self._blobs:
                self._blobs[digest] = data
                self._blob_refs[digest] = 0
            self._blob_refs[digest] += 1

    def release_blob(self, digest: str) -> None:
        """Drop one reference to a blob; the bytes go when the last one does."""
        with self._lock:
            refs = self._blob_refs.get(digest)
            if refs is None:
                return
            if refs <= 1:
                del self._blob_refs[digest]
                del self._blobs[digest]
            else:
                self._blob_refs[digest] = refs - 1

    def blob_count(self) -> int:
        """Number of live series blobs (test introspection)."""
        with self._lock:
            return len(self._blobs)

    # -- workers --------------------------------------------------------

    def register_worker(self, name: str, pid: int, conn) -> _WorkerInfo:
        """Admit a freshly connected worker into the pool."""
        with self._lock:
            if self._closing:
                raise ClusterError("scheduler is closing")
            worker_id = f"{name}-{next(self._worker_ids)}"
            worker = _WorkerInfo(worker_id, name, pid, conn)
            self._workers[worker_id] = worker
            self._starved_since = None
            self._workers_changed.notify_all()
            self._work_available.notify_all()
            return worker

    def touch(self, worker: _WorkerInfo) -> None:
        """Record liveness for ``worker`` (heartbeat or any message)."""
        with self._lock:
            worker.last_seen = time.monotonic()

    def worker_lost(self, worker: _WorkerInfo) -> None:
        """Drop a dead worker and requeue its leased tasks (with exclusion).

        Tasks whose retry budget is exhausted fail with
        :class:`ClusterWorkerLost` instead of requeueing; cancelled tasks
        are resolved quietly. Idempotent per worker.
        """
        with self._lock:
            if worker.lost:
                return
            worker.lost = True
            self._workers.pop(worker.worker_id, None)
            for task in worker.leased.values():
                if task.task_id in self._results:
                    continue
                task.excluded.add(worker.worker_id)
                if task.cancelled:
                    self._results[task.task_id] = (
                        False,
                        ClusterError("task cancelled while its worker was lost"),
                    )
                elif task.attempts >= self.max_task_attempts:
                    self._results[task.task_id] = (
                        False,
                        ClusterWorkerLost(
                            f"task lost with worker {worker.worker_id!r} after "
                            f"{task.attempts} attempt(s) on workers "
                            f"{sorted(task.excluded)}"
                        ),
                    )
                else:
                    self.tasks_retried += 1
                    self._pending.appendleft(task)
            worker.leased.clear()
            self._results_available.notify_all()
            self._work_available.notify_all()
            self._workers_changed.notify_all()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover — already torn down
            pass

    def wait_for_workers(self, count: int, timeout: float) -> None:
        """Block until ``count`` workers are connected (or raise)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while len(self._workers) < count:
                if self._closing:
                    raise ClusterError("scheduler is closing")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterError(
                        f"only {len(self._workers)} of {count} cluster worker(s) "
                        f"connected after {timeout:.0f}s; start workers with "
                        "`python -m repro worker --connect HOST:PORT`"
                    )
                self._workers_changed.wait(min(remaining, 0.1))

    def worker_stats(self) -> list[dict]:
        """Per-worker snapshot: id, pid, leased task count, completed count."""
        with self._lock:
            return [
                {
                    "worker_id": worker.worker_id,
                    "name": worker.name,
                    "pid": worker.pid,
                    "leased": len(worker.leased),
                    "completed": worker.completed,
                }
                for worker in self._workers.values()
            ]

    def worker_count(self) -> int:
        """Number of currently connected workers."""
        with self._lock:
            return len(self._workers)

    def connections(self) -> list[_WorkerInfo]:
        """Snapshot of the connected workers (for shutdown broadcasts)."""
        with self._lock:
            return list(self._workers.values())

    # -- tasks ----------------------------------------------------------

    def submit(self, fn: Callable, payload: Any) -> int:
        """Queue one task; returns its id."""
        digests: set[str] = set()
        _scan_digests(payload, digests)
        with self._lock:
            if self._closing:
                raise ClusterError("cluster executor is closed")
            for digest in digests:
                if digest not in self._blobs:
                    raise ClusterError(
                        f"payload references unpublished series blob {digest[:12]}…"
                    )
            task = _Task(
                next(self._task_ids), fn, payload, frozenset(digests), get_request_id()
            )
            self._tasks[task.task_id] = task
            self._pending.append(task)
            self.tasks_submitted += 1
            self._work_available.notify()
            return task.task_id

    def lease(self, worker: _WorkerInfo, timeout: float):
        """Lease the oldest eligible pending task to ``worker``.

        Blocks up to ``timeout`` for work to arrive; returns ``(task,
        blobs, forget)`` — the blobs the worker has not seen yet and the
        digests it should evict — or ``(None, None, ())`` when there is
        nothing to do.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closing or worker.lost:
                    return None, None, ()
                task = self._pop_eligible(worker)
                if task is not None:
                    if any(digest not in self._blobs for digest in task.digests):
                        # A handle this task depends on was closed while it
                        # queued: fail *this task* gracefully and keep
                        # serving the (healthy) worker.
                        if task.task_id not in self._results:
                            self._results[task.task_id] = (
                                False,
                                ClusterError(
                                    "a series blob this task references was "
                                    "released while the task was still queued"
                                ),
                            )
                            self._results_available.notify_all()
                        continue
                    task.attempts += 1
                    worker.leased[task.task_id] = task
                    # Evict digests whose blobs are gone, send unseen ones.
                    forget = tuple(
                        digest for digest in worker.sent_digests if digest not in self._blobs
                    )
                    worker.sent_digests.difference_update(forget)
                    blobs = {
                        digest: self._blobs[digest]
                        for digest in task.digests
                        if digest not in worker.sent_digests
                    }
                    worker.sent_digests.update(task.digests)
                    return task, blobs, forget
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None, None, ()
                self._work_available.wait(remaining)

    def _pop_eligible(self, worker: _WorkerInfo) -> _Task | None:
        for index, task in enumerate(self._pending):
            if worker.worker_id not in task.excluded:
                del self._pending[index]
                return task
        return None

    def unsend_blobs(self, worker: _WorkerInfo, digests) -> None:
        """Forget that ``digests`` were delivered to ``worker``.

        Called when a leased task's body never reached the worker (e.g.
        its function failed to pickle): the blobs packed into that body
        were not delivered, so they must be re-sent with the next task
        that needs them.
        """
        with self._lock:
            worker.sent_digests.difference_update(digests)

    def complete(self, worker: _WorkerInfo, task_id: int, ok: bool, value: Any) -> None:
        """Record one task result (first result wins; duplicates are dropped)."""
        with self._lock:
            worker.leased.pop(task_id, None)
            worker.completed += 1
            if task_id not in self._tasks or task_id in self._results:
                return  # late duplicate from a presumed-lost worker
            self._results[task_id] = (bool(ok), value)
            self._results_available.notify_all()

    def wait_some(self, remaining: set[int]) -> list[tuple[int, bool, Any]]:
        """Block until at least one task in ``remaining`` completes; pop them."""
        with self._lock:
            while True:
                done = [tid for tid in remaining if tid in self._results]
                if done:
                    out = []
                    for tid in done:
                        ok, value = self._results.pop(tid)
                        self._tasks.pop(tid, None)
                        remaining.discard(tid)
                        out.append((tid, ok, value))
                    return out
                if self._closing:
                    raise ClusterError("cluster executor closed while tasks were in flight")
                self._results_available.wait(0.1)

    def cancel(self, task_ids) -> None:
        """Abandon tasks: unstarted ones resolve now, running ones may finish."""
        with self._lock:
            pending_ids = {task.task_id for task in self._pending}
            for tid in list(task_ids):
                task = self._tasks.get(tid)
                if task is None or tid in self._results:
                    continue
                task.cancelled = True
                if tid in pending_ids:
                    self._pending = deque(t for t in self._pending if t.task_id != tid)
                    self._results[tid] = (False, ClusterError("task cancelled"))
            self._results_available.notify_all()

    def forget(self, task_ids) -> None:
        """Purge bookkeeping for tasks the caller has fully consumed."""
        with self._lock:
            for tid in task_ids:
                self._tasks.pop(tid, None)
                self._results.pop(tid, None)

    # -- housekeeping ---------------------------------------------------

    def reap(self) -> list[_WorkerInfo]:
        """One monitor pass: find silent workers, fail starved tasks.

        Returns the workers whose leases expired (the caller closes their
        connections outside the lock via :meth:`worker_lost`).
        """
        now = time.monotonic()
        expired: list[_WorkerInfo] = []
        with self._lock:
            for worker in self._workers.values():
                if now - worker.last_seen > self.lease_timeout:
                    expired.append(worker)
            outstanding = bool(self._pending) or any(
                worker.leased for worker in self._workers.values()
            )
            if self._workers or not outstanding:
                self._starved_since = None
            elif self._starved_since is None:
                self._starved_since = now
            elif now - self._starved_since > self.worker_wait:
                while self._pending:
                    task = self._pending.popleft()
                    if task.task_id in self._results:
                        continue
                    self._results[task.task_id] = (
                        False,
                        ClusterWorkerLost(
                            f"no cluster workers connected for {self.worker_wait:.0f}s "
                            f"with work queued (task attempted {task.attempts} time(s))"
                        ),
                    )
                self._starved_since = None
                self._results_available.notify_all()
        return expired

    def close(self) -> None:
        """Flip the closing flag and wake every waiter."""
        with self._lock:
            self._closing = True
            self._work_available.notify_all()
            self._results_available.notify_all()
            self._workers_changed.notify_all()

    @property
    def closing(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closing


# ----------------------------------------------------------------------
# The executor.
# ----------------------------------------------------------------------


class ClusterExecutor(MemberExecutor):
    """Dispatch member/batch tasks to TCP-connected worker processes.

    Parameters
    ----------
    max_workers:
        Local workers to spawn in self-contained mode, and the default
        reported pool width. ``None`` means one per CPU.
    bind:
        ``HOST:PORT`` to listen on. The default binds an ephemeral
        localhost port (self-contained mode); bind a routable address to
        accept workers from other machines.
    spawn_workers:
        Local worker subprocesses to spawn via ``python -m repro worker``
        once the listener is up. Defaults to ``max_workers`` when ``bind``
        is the loopback default, and to 0 when a ``bind`` address is given
        (fleet mode: workers are started externally).
    authkey:
        Shared connection-authentication secret. Defaults to
        ``$REPRO_CLUSTER_AUTHKEY``, falling back to a development constant.
    min_workers:
        Workers that must be connected before the first dispatch returns
        from :meth:`start` waiting; also the readiness bar for lazy first
        use.
    worker_wait:
        Seconds to wait for ``min_workers`` at startup, and the grace
        period before queued work fails when the pool is empty mid-run.
    lease_timeout:
        Seconds of silence (no message, no heartbeat) after which a worker
        is declared lost and its tasks are retried elsewhere.
    max_task_attempts:
        Times one task may be leased before a worker loss fails it.

    The parity contract of :class:`~repro.core.executors.MemberExecutor`
    holds: results are bitwise identical to :class:`SerialExecutor` for
    every engine entry point (enforced by ``tests/test_cluster_executor.py``
    and the ``--executor cluster`` run of the parity suite).
    """

    kind = "cluster"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        bind: str | None = None,
        authkey: bytes | str | None = None,
        spawn_workers: int | None = None,
        min_workers: int = 1,
        worker_wait: float = 30.0,
        lease_timeout: float = 30.0,
        max_task_attempts: int = 3,
    ) -> None:
        super().__init__(max_workers)
        self._bind = parse_address(bind) if bind is not None else ("127.0.0.1", 0)
        self._authkey = _resolve_authkey(authkey)
        if spawn_workers is None:
            spawn_workers = self._max_workers if bind is None else 0
        self._spawn_workers = int(spawn_workers)
        self._min_workers = max(0, int(min_workers))
        self._worker_wait = float(worker_wait)
        self._state = _SchedulerState(
            lease_timeout=lease_timeout,
            max_task_attempts=max_task_attempts,
            worker_wait=worker_wait,
        )
        self._lifecycle_lock = threading.Lock()
        self._listener: Listener | None = None
        self._accept_thread: threading.Thread | None = None
        self._monitor_thread: threading.Thread | None = None
        self._spawned: list[subprocess.Popen] = []
        self._address: tuple[str, int] | None = None

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | None:
        """The bound ``(host, port)``, or ``None`` before :meth:`start`."""
        return self._address

    @property
    def max_workers(self) -> int:
        """Connected worker count (or the configured width before any join)."""
        connected = self._state.worker_count()
        return connected if connected else self._max_workers

    def start(self, *, wait: bool = False) -> tuple[str, int]:
        """Bind the listener, spawn any local workers; returns the address.

        Idempotent. With ``wait=True`` blocks until ``min_workers`` workers
        have connected (raising :class:`ClusterError` after
        ``worker_wait`` seconds) — what the first dispatch does implicitly.
        """
        with self._lifecycle_lock:
            self._check_open()
            if self._listener is None:
                listener = Listener(self._bind, authkey=self._authkey)
                self._listener = listener
                self._address = listener.address
                self._accept_thread = threading.Thread(
                    target=self._accept_loop, name="repro-cluster-accept", daemon=True
                )
                self._accept_thread.start()
                self._monitor_thread = threading.Thread(
                    target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
                )
                self._monitor_thread.start()
                for _ in range(self._spawn_workers):
                    self._spawned.append(self._spawn_local_worker())
        if wait and self._min_workers:
            self._state.wait_for_workers(self._min_workers, self._worker_wait)
        return self._address

    def _spawn_local_worker(self) -> subprocess.Popen:
        host, port = self._address
        env = dict(os.environ)
        # Local workers mirror the parent's import path (like a process
        # pool's forked children would), so pickled-by-reference task
        # functions resolve on the other side.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        env[AUTHKEY_ENV] = self._authkey.decode("utf-8", "surrogateescape")
        debug = os.environ.get("REPRO_CLUSTER_DEBUG") == "1"
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect", f"{host}:{port}"],
            env=env,
            stdout=None if debug else subprocess.DEVNULL,
            stderr=None if debug else subprocess.DEVNULL,
        )

    def _accept_loop(self) -> None:
        """Admit workers until the listener closes; one handler thread each."""
        while True:
            try:
                conn = self._listener.accept()
            except (OSError, EOFError):
                return  # listener closed (shutdown) or handshake failed
            except Exception:
                if self._state.closing:
                    return
                continue  # failed auth handshake: keep serving others
            if self._state.closing:
                conn.close()
                return
            threading.Thread(
                target=self._serve_worker,
                args=(conn,),
                name="repro-cluster-handler",
                daemon=True,
            ).start()

    def _serve_worker(self, conn) -> None:
        """Drive one worker connection: hello, then lease/result loop."""
        worker: _WorkerInfo | None = None
        _enable_nodelay(conn)
        try:
            hello = conn.recv()
            if not (isinstance(hello, tuple) and hello and hello[0] == "hello"):
                conn.close()
                return
            _, name, pid = hello
            worker = self._state.register_worker(str(name), int(pid), conn)
            worker.send(("welcome", worker.worker_id))
            while not self._state.closing and not worker.lost:
                message = conn.recv()
                self._state.touch(worker)
                kind = message[0]
                if kind == "ready":
                    task, blobs, forget = self._state.lease(worker, _LEASE_WAIT)
                    if task is None:
                        worker.send(("idle", _IDLE_DELAY))
                        continue
                    # The task body is pickled separately from the protocol
                    # frame: a function or payload that fails to (de)serialize
                    # fails *that task* attributably instead of corrupting the
                    # connection or killing the worker.
                    try:
                        body = pickle.dumps(
                            (task.fn, task.payload, blobs, forget, task.request_id),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    except Exception as error:
                        # The body (and the blobs packed into it) never
                        # reached the worker — revert the sent bookkeeping.
                        self._state.unsend_blobs(worker, blobs)
                        self._state.complete(
                            worker,
                            task.task_id,
                            False,
                            ClusterError(f"task could not be serialized: {error}"),
                        )
                        worker.send(("idle", _IDLE_DELAY))
                        continue
                    worker.send(("task", task.task_id, body))
                elif kind == "result":
                    _, task_id, ok, value = message
                    self._state.complete(worker, task_id, ok, value)
                elif kind == "heartbeat":
                    pass
                elif kind == "bye":
                    break
        except (EOFError, OSError, ConnectionError, ClusterError):
            # The worker died, the link dropped, or the scheduler began
            # closing (a hello during shutdown is refused): handled below.
            pass
        finally:
            if worker is not None:
                self._state.worker_lost(worker)
            else:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass

    def _monitor_loop(self) -> None:
        """Reap silent workers and fail starved queues until shutdown."""
        while not self._state.closing:
            for worker in self._state.reap():
                self._state.worker_lost(worker)
            time.sleep(_MONITOR_INTERVAL)

    def _ensure_ready(self) -> None:
        self._check_open()
        self.start(wait=True)

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of every connected worker process (local and remote)."""
        return tuple(sorted(stats["pid"] for stats in self._state.worker_stats()))

    def worker_stats(self) -> list[dict]:
        """Per-worker lease/completion counters (see ``/stats`` and tests)."""
        return self._state.worker_stats()

    def stats(self) -> dict:
        """Scheduler counters: submissions, retries, workers, live blobs."""
        return {
            "tasks_submitted": self._state.tasks_submitted,
            "tasks_retried": self._state.tasks_retried,
            "workers": self._state.worker_stats(),
            "blobs": self._state.blob_count(),
        }

    def close(self) -> None:
        """Stop dispatch, tell workers to exit, reap local ones (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        self._state.close()
        for worker in self._state.connections():
            try:
                worker.send(("stop",))
            except (OSError, ValueError):  # pragma: no cover — already gone
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for process in self._spawned:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover — hung worker
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        self._spawned.clear()

    # -- series passing -------------------------------------------------

    def share_series(self, series: np.ndarray) -> SeriesHandle:
        """Publish a series to the workers as a content-addressed blob.

        The bytes travel to each worker at most once per connection
        (workers cache by digest), the remote counterpart of the process
        backend's shared-memory segments. The handle owns one reference;
        closing it releases the blob once every other handle has too.
        """
        self._check_open()
        series = _as_series_1d(series)
        data = series.tobytes()
        digest = blake2b(data, digest_size=20).hexdigest()
        self._state.add_blob(digest, data)
        return _ClusterSeriesHandle(ClusterSeriesRef(digest, len(series)), self._state)

    # -- execution ------------------------------------------------------

    def map(self, fn: Callable, payloads: Sequence[Any]) -> list:
        """Run ``fn`` over ``payloads`` on the workers; results in order.

        Matches the serial reference bitwise; a failing payload re-raises
        its worker-side exception here (earliest payload first, as the
        serial path would).
        """
        self._ensure_ready()
        task_ids = self._submit_all(fn, payloads)
        index_of = {tid: index for index, tid in enumerate(task_ids)}
        results: list[Any] = [None] * len(task_ids)
        failures: dict[int, BaseException] = {}
        remaining = set(task_ids)
        try:
            while remaining:
                for tid, ok, value in self._state.wait_some(remaining):
                    if ok:
                        results[index_of[tid]] = value
                    else:
                        failures[index_of[tid]] = value
            if failures:
                raise failures[min(failures)]
            return results
        finally:
            self._state.cancel(remaining)
            self._state.forget(task_ids)

    def imap_unordered(
        self,
        fn: Callable,
        payloads: Sequence[Any],
        *,
        return_exceptions: bool = False,
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, result)`` pairs as workers complete tasks.

        Abandoning the iterator cancels unstarted tasks and waits out
        running ones (so published blobs can be withdrawn safely); with
        ``return_exceptions=True`` a task failure is yielded in place and
        the rest of the batch still runs.
        """
        self._ensure_ready()
        return self._drain_unordered(self._submit_all(fn, payloads), return_exceptions)

    def _submit_all(self, fn: Callable, payloads: Sequence[Any]) -> list[int]:
        """Queue every payload; a failed submission unwinds the queued ones."""
        task_ids: list[int] = []
        try:
            for payload in payloads:
                task_ids.append(self._state.submit(fn, payload))
        except BaseException:
            self._state.cancel(task_ids)
            self._state.forget(task_ids)
            raise
        return task_ids

    def _drain_unordered(
        self, task_ids: list[int], return_exceptions: bool
    ) -> Iterator[tuple[int, Any]]:
        index_of = {tid: index for index, tid in enumerate(task_ids)}
        remaining = set(task_ids)
        try:
            while remaining:
                for tid, ok, value in self._state.wait_some(remaining):
                    if ok or return_exceptions:
                        yield index_of[tid], value
                    else:
                        raise value
        finally:
            self._state.cancel(remaining)
            try:
                while remaining:
                    # Wait out tasks still running on live workers, exactly
                    # as the pooled backends' _drain_futures does.
                    for tid, _ok, _value in self._state.wait_some(remaining):
                        pass
            except ClusterError:
                pass  # executor closing: nothing left to wait for
            self._state.forget(task_ids)


# ----------------------------------------------------------------------
# The worker loop (CLI: ``python -m repro worker --connect HOST:PORT``).
# ----------------------------------------------------------------------


def run_worker(
    address: str,
    *,
    authkey: bytes | str | None = None,
    name: str | None = None,
    heartbeat: float = 5.0,
    connect_retry: float = 10.0,
) -> int:
    """Connect to a scheduler and execute tasks until told to stop.

    The worker runs one task at a time (start several workers for
    parallelism); a daemon thread sends heartbeats every ``heartbeat``
    seconds so long tasks keep their lease. Connection attempts retry for
    ``connect_retry`` seconds (workers may legitimately start before the
    scheduler binds). Returns a process exit code: 0 after a clean ``stop``
    or scheduler shutdown.
    """
    host, port = parse_address(address)
    key = _resolve_authkey(authkey)
    deadline = time.monotonic() + float(connect_retry)
    while True:
        try:
            conn = Client((host, port), authkey=key)
            break
        except (ConnectionRefusedError, OSError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)
    _enable_nodelay(conn)
    send_lock = threading.Lock()

    def _send(message) -> None:
        with send_lock:
            conn.send(message)

    _send(("hello", name or f"worker-{os.getpid()}", os.getpid()))
    welcome = conn.recv()
    if not (isinstance(welcome, tuple) and welcome and welcome[0] == "welcome"):
        conn.close()
        raise ClusterError(f"unexpected scheduler greeting: {welcome!r}")
    stop_beating = threading.Event()

    def _beat() -> None:
        while not stop_beating.wait(heartbeat):
            try:
                _send(("heartbeat",))
            except (OSError, ValueError):
                return

    threading.Thread(target=_beat, name="repro-worker-heartbeat", daemon=True).start()
    try:
        while True:
            _send(("ready",))
            message = conn.recv()
            kind = message[0]
            if kind == "idle":
                time.sleep(float(message[1]))
                continue
            if kind == "stop":
                break
            if kind != "task":
                continue
            _, task_id, body = message
            try:
                fn, payload, blobs, forget, request_id = pickle.loads(body)
            except Exception as error:
                # An unimportable task function (e.g. defined in the
                # client's __main__) fails its task, not this worker.
                _send(
                    (
                        "result",
                        task_id,
                        False,
                        ClusterError(
                            "task could not be deserialized on the worker "
                            f"(is the task function importable here?): {error}"
                        ),
                    )
                )
                continue
            for digest in forget:
                _WORKER_BLOBS.pop(digest, None)
            _WORKER_BLOBS.update(blobs)
            started = time.perf_counter()
            with bind_request_id(request_id):
                try:
                    value, ok = fn(payload), True
                except Exception as error:
                    value, ok = error, False
                _log.info(
                    "task %d %s in %.1f ms (request %s)",
                    task_id,
                    "completed" if ok else "failed",
                    (time.perf_counter() - started) * 1000.0,
                    request_id or "-",
                    extra={"task_id": task_id, "ok": ok},
                )
            try:
                _send(("result", task_id, ok, value))
            except (OSError, EOFError):
                raise
            except Exception as error:
                # The computed value would not pickle: report that as the
                # task's failure rather than dying mid-protocol.
                _send(("result", task_id, False, ClusterError(f"result unpicklable: {error}")))
    except (EOFError, OSError):
        pass  # scheduler went away: exit quietly
    finally:
        stop_beating.set()
        _WORKER_BLOBS.clear()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
    return 0

