"""Pluggable member/batch executors: serial, thread, and process backends.

PR 1 made ensemble execution parallel, but every parallel ``detect()`` call
paid process-pool spawn/teardown and pickled the full series once per task.
This module makes the execution strategy a first-class, *reusable* object:

- :class:`SerialExecutor` — runs tasks inline, in submission order. The
  reference backend: every other backend must produce bitwise-identical
  results (the contract of ``tests/test_executor_parity.py``).
- :class:`ThreadExecutor` — a reusable thread pool. Every hot loop of a
  detection (SAX, Sequitur, spans, density, median) is a native call that
  releases the GIL, so threads run series in parallel without process
  spawn or argument pickling. Series are passed by reference (no copies at
  all).
- :class:`ProcessExecutor` — a reusable process pool that passes input
  series through POSIX shared memory (:mod:`multiprocessing.shared_memory`)
  instead of pickling them into every task payload. The pool is created
  lazily on first use and *kept alive* across repeated calls, so a detector
  that holds one pays spawn cost once, not per batch.

All backends implement the same :class:`MemberExecutor` interface. An
executor carries whole series (batches, method comparisons, baseline
batches); the members of one detection never cross one::

    with ProcessExecutor(max_workers=4) as executor:
        detector = EnsembleGrammarDetector(window=100, executor=executor)
        detector.detect_batch([series_a, series_b])  # pool spawns here
        detector.detect_batch([series_c, series_d])  # ...and is reused here
        detector.detect(series_e)  # members on this process's threads

Series passing
--------------
``share_series()`` publishes a float64 series to the executor's workers and
returns a handle whose picklable ``ref`` goes into task payloads; workers
call :func:`resolve_series` to get the array back. The serial and thread
backends hand the array over by reference; the process backend copies it
once into a shared-memory segment that every worker attaches to, so a
series scanned by many tasks crosses the process boundary zero times. On
platforms without usable shared memory the process backend silently falls
back to inline (pickled) payloads — results are identical either way.

Handles own their segment: ``close()`` (or the ``with`` block) unlinks it,
and the engine's callers close handles even when a worker raises, so no
``/dev/shm`` segments outlive a call.

The fan-out pool
----------------
The members of one detection run on the calling thread plus up to
``n_jobs - 1`` threads of one lazily created, process-wide thread pool
(:func:`fan_out`, the detector's member fan-out in
:mod:`repro.core.engine`); :func:`member_jobs` says how many threads that
is when an executor is named. Nothing without an explicit executor ever
spawns a process, and a one-series detection spawns none even with one.
A forked child forgets the pool (it would wait on threads that do not
exist there) and builds its own on first use, and a fan-out called from
one of the pool's own threads runs inline, so the pool never waits on
itself.
"""

from __future__ import annotations

import abc
import itertools
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BatchItemError",
    "EXECUTOR_KINDS",
    "ExecutorOwnerMixin",
    "MemberExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "SeriesHandle",
    "SharedSeriesRef",
    "StatelessBatchMixin",
    "ThreadExecutor",
    "as_executor",
    "available_cpus",
    "detect_many",
    "fan_out",
    "member_jobs",
    "open_executor",
    "resolve_series",
]

#: Every backend name :func:`as_executor` accepts — what the parity suite
#: parametrizes over and the single source of the CLI help and of
#: "unknown executor" error messages.
EXECUTOR_KINDS = ("serial", "thread", "process")

#: Prefix of every shared-memory segment this library creates (leak checks
#: in the test suite key on it).
SHM_PREFIX = "repro"

_shm_counter = itertools.count()


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else ``os.cpu_count()``.

    ``taskset``, cgroup cpusets and container CPU pinning shrink the
    affinity mask but not ``cpu_count``, which would oversubscribe them.
    """
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):  # no affinity API on this platform
        return max(os.cpu_count() or 1, 1)


def _resolve_workers(max_workers: int | None) -> int:
    if max_workers is None:
        return available_cpus()
    max_workers = int(max_workers)
    if max_workers < 1:
        raise ValueError(f"max_workers must be a positive integer or None, got {max_workers}")
    return max_workers


# ----------------------------------------------------------------------
# Series passing.
# ----------------------------------------------------------------------


def _as_series_1d(series) -> np.ndarray:
    """Contiguous float64 1-D view/copy of ``series``; rejects other shapes.

    Every detector consumes 1-D series; refusing other shapes here keeps the
    shared-memory path from silently flattening a 2-D input into a wrong
    series (the ref records only a length).
    """
    series = np.ascontiguousarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError(f"series must be 1-dimensional, got shape {series.shape}")
    return series


@dataclass(frozen=True)
class SharedSeriesRef:
    """Picklable pointer to a series published in a shared-memory segment."""

    name: str
    length: int


def resolve_series(ref) -> np.ndarray:
    """Materialize the series behind a task payload's series reference.

    Inline references (plain arrays) are returned as-is; shared-memory
    references are attached, copied into a process-local array, and detached
    immediately — the copy is a bitwise-exact memcpy, so results never
    depend on how the series travelled.
    """
    if isinstance(ref, SharedSeriesRef):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=ref.name)
        try:
            view = np.ndarray((ref.length,), dtype=np.float64, buffer=segment.buf)
            series = np.array(view)  # owned copy; outlives the segment
            del view
        finally:
            segment.close()
        return series
    return np.asarray(ref, dtype=np.float64)


class SeriesHandle:
    """A series published to an executor's workers.

    ``ref`` is what goes into task payloads (resolved by
    :func:`resolve_series` on the worker side); ``close()`` withdraws the
    series, releasing any shared-memory segment backing it. Handles are
    context managers and close is idempotent.
    """

    def __init__(self, ref) -> None:
        self.ref = ref

    def close(self) -> None:  # noqa: B027 — inline handles own nothing
        """Release whatever backs this handle (idempotent)."""

    def __enter__(self) -> "SeriesHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _SharedMemorySeriesHandle(SeriesHandle):
    """Owns one shared-memory segment holding a float64 series."""

    def __init__(self, series: np.ndarray) -> None:
        from multiprocessing import shared_memory

        series = _as_series_1d(series)
        name = f"{SHM_PREFIX}-{os.getpid()}-{next(_shm_counter)}"
        self._segment = shared_memory.SharedMemory(
            create=True, size=max(series.nbytes, 1), name=name
        )
        buffer = np.ndarray(series.shape, dtype=np.float64, buffer=self._segment.buf)
        buffer[:] = series
        del buffer
        super().__init__(SharedSeriesRef(self._segment.name, len(series)))

    def close(self) -> None:
        segment, self._segment = self._segment, None
        if segment is None:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover — already unlinked
            pass


# ----------------------------------------------------------------------
# The executor interface.
# ----------------------------------------------------------------------


class MemberExecutor(abc.ABC):
    """Strategy object for running independent detection tasks.

    Implementations must satisfy the parity contract: for a deterministic
    task function, ``map`` returns exactly what ``[fn(p) for p in payloads]``
    would, and ``imap_unordered`` yields the same ``(index, result)`` pairs
    in some completion order. Executors are context managers; ``close()``
    releases pooled resources and is idempotent, and a closed executor
    refuses further work.
    """

    #: Registry name of the backend (``"serial"``/``"thread"``/``"process"``).
    kind: str = "abstract"

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = _resolve_workers(max_workers)
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    @property
    def max_workers(self) -> int:
        """Upper bound on concurrently running tasks."""
        return self._max_workers

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (closed executors refuse work)."""
        return self._closed

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of live worker *processes* (empty for in-process backends).

        The serving subsystem exposes these through its ``/stats`` endpoint
        so operators (and the shutdown leak tests) can verify that closing
        the service leaves no orphaned workers behind.
        """
        return ()

    def close(self) -> None:
        """Release pooled resources (idempotent)."""
        self._closed = True

    def __enter__(self) -> "MemberExecutor":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}(max_workers={self._max_workers}, {state})"

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    # -- series passing -------------------------------------------------

    def share_series(self, series: np.ndarray) -> SeriesHandle:
        """Publish ``series`` to this executor's workers.

        The default passes the array by reference (correct for in-process
        backends); the process backend overrides this with a shared-memory
        segment. Only 1-D series are accepted on any backend.
        """
        self._check_open()
        return SeriesHandle(_as_series_1d(series))

    # -- execution ------------------------------------------------------

    @abc.abstractmethod
    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list:
        """Run ``fn`` over ``payloads``; results in payload order."""

    @abc.abstractmethod
    def imap_unordered(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        return_exceptions: bool = False,
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, fn(payloads[index]))`` as tasks complete.

        Abandoning the iterator cancels tasks that have not started and
        waits for running ones, so resources published to the workers (e.g.
        shared-memory series) can be withdrawn safely afterwards.

        With ``return_exceptions=True`` a task failure does not abort the
        iteration: the raised exception is yielded as that task's result
        instead, and every remaining task still runs. This is what lets the
        batch layers report *partial* failures (one corrupt series in a
        batch fails that series, not the batch).
        """


class SerialExecutor(MemberExecutor):
    """Run every task inline, in submission order — the parity reference."""

    kind = "serial"

    def __init__(self, max_workers: int | None = 1) -> None:
        super().__init__(1 if max_workers is None else max_workers)

    def map(self, fn, payloads):
        """Run ``fn`` over ``payloads`` inline; the reference semantics."""
        self._check_open()
        return [fn(payload) for payload in payloads]

    def imap_unordered(self, fn, payloads, *, return_exceptions=False):
        """Yield ``(index, result)`` pairs lazily, in submission order."""
        self._check_open()  # at the call, as the interface promises
        if not return_exceptions:
            return ((index, fn(payload)) for index, payload in enumerate(payloads))

        def _iterate():
            for index, payload in enumerate(payloads):
                try:
                    result = fn(payload)
                except Exception as error:
                    result = error
                yield index, result

        return _iterate()


class _PooledExecutor(MemberExecutor):
    """Shared plumbing of the thread and process backends.

    The underlying pool is created lazily on first use and kept alive until
    ``close()`` — repeated calls through one executor reuse the same
    workers, which is what removes the per-call spawn cost that dominated
    PR 1 on short series.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__(max_workers)
        self._pool = None
        self._lock = threading.Lock()

    @abc.abstractmethod
    def _create_pool(self):
        """Build the backing ``concurrent.futures`` pool."""

    @property
    def pool_started(self) -> bool:
        """Whether the lazy pool has been spawned yet."""
        return self._pool is not None

    def _ensure_pool(self):
        with self._lock:
            # The closed check lives inside the lock (close() flips the flag
            # under the same lock), so a concurrent close() can never let a
            # straggler respawn a pool nobody will shut down.
            self._check_open()
            if self._pool is None:
                self._pool = self._create_pool()
            return self._pool

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def map(self, fn, payloads):
        pool = self._ensure_pool()
        futures = [pool.submit(fn, payload) for payload in payloads]
        try:
            return [future.result() for future in futures]
        finally:
            _drain_futures(futures)

    def imap_unordered(self, fn, payloads, *, return_exceptions=False):
        # Submit eagerly (and run the closed check at the call, as the
        # interface promises); only the draining is deferred to iteration.
        pool = self._ensure_pool()
        futures = {pool.submit(fn, payload): index for index, payload in enumerate(payloads)}
        return self._drain_unordered(futures, return_exceptions)

    @staticmethod
    def _drain_unordered(
        futures: dict, return_exceptions: bool = False
    ) -> Iterator[tuple[int, Any]]:
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    if return_exceptions:
                        error = future.exception()
                        yield futures[future], future.result() if error is None else error
                    else:
                        yield futures[future], future.result()
        finally:
            _drain_futures(list(futures))


def _drain_futures(futures: list[Future]) -> None:
    """Cancel unstarted futures and wait out running ones.

    Called on every exit path (success, worker error, abandoned iterator) so
    that by the time the caller withdraws shared resources, no task is still
    executing or about to start.
    """
    running = [future for future in futures if not future.cancel()]
    wait(running)


class ThreadExecutor(_PooledExecutor):
    """A reusable thread pool.

    Detection work runs in native calls that release the GIL, so tasks run
    in parallel; payloads and series are passed by reference with zero
    serialization, which also makes threads the cheaper choice for many
    small tasks.
    """

    kind = "thread"

    def _create_pool(self):
        return ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="repro-member"
        )


#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL_S = 0.25


def _exit_with_parent() -> None:
    """Pool worker initializer: end the worker once its parent is gone.

    A daemon thread polls :func:`os.getppid` and calls :func:`os._exit`
    as soon as it differs from the parent the worker started with (the
    worker was reparented, so its parent died, SIGKILL included), so a
    crashed node's workers and the shared memory they map do not outlive
    it. The parent is read in the worker, so it is the real one under every
    start method: the node under fork and spawn, the forkserver (which
    exits when the node dies) under forkserver. ``PR_SET_PDEATHSIG`` would
    not do: it fires when the *thread* that spawned the worker exits, and
    pool workers are spawned from whichever thread submits.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


class ProcessExecutor(_PooledExecutor):
    """A reusable process pool with shared-memory series passing.

    The pool is spawned lazily on first use and survives across calls
    (context-manager + lazy-reuse semantics); ``share_series`` publishes the
    input once per call through ``multiprocessing.shared_memory`` instead of
    pickling it into every task payload. Where shared memory is unavailable
    (no ``/dev/shm`` or an over-restrictive sandbox), series fall back to
    inline payloads transparently. Each worker exits on its own once this
    process dies (see :func:`_exit_with_parent`).
    """

    kind = "process"

    def __init__(self, max_workers: int | None = None, *, use_shared_memory: bool = True) -> None:
        super().__init__(max_workers)
        self._use_shared_memory = bool(use_shared_memory)

    def _create_pool(self):
        return ProcessPoolExecutor(
            max_workers=self._max_workers,
            initializer=_exit_with_parent,
        )

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live pool processes (empty before the lazy spawn)."""
        pool = self._pool
        processes = getattr(pool, "_processes", None) if pool is not None else None
        if not processes:
            return ()
        return tuple(sorted(processes))

    def share_series(self, series: np.ndarray) -> SeriesHandle:
        """Publish ``series`` once via shared memory (inline fallback off-POSIX)."""
        self._check_open()
        if self._use_shared_memory:
            series = _as_series_1d(series)  # input errors must raise, not disable shm
            try:
                return _SharedMemorySeriesHandle(series)
            except OSError:  # pragma: no cover — no usable /dev/shm
                self._use_shared_memory = False
        return super().share_series(series)


# ----------------------------------------------------------------------
# The process-wide fan-out pool (n_jobs without an explicit executor).
# ----------------------------------------------------------------------

_fan_out_lock = threading.Lock()
_fan_out_pool: ThreadPoolExecutor | None = None
_fan_out_thread = threading.local()


def _mark_fan_out_thread() -> None:
    _fan_out_thread.active = True


def _forget_fan_out_pool() -> None:
    """After ``fork``: the child has none of the pool's threads; drop it."""
    global _fan_out_pool, _fan_out_lock
    _fan_out_pool = None
    _fan_out_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_fan_out_pool)


def _shared_pool() -> ThreadPoolExecutor:
    """The process-wide fan-out pool, created on first use (one thread per CPU)."""
    global _fan_out_pool
    with _fan_out_lock:
        if _fan_out_pool is None:
            _fan_out_pool = ThreadPoolExecutor(
                max_workers=available_cpus(),
                thread_name_prefix="repro-fan-out",
                initializer=_mark_fan_out_thread,
            )
        return _fan_out_pool


def on_fan_out_thread() -> bool:
    """Whether the calling thread is one of the fan-out pool's."""
    return getattr(_fan_out_thread, "active", False)


def fan_out(task: Callable[[Any], Any], items: Sequence[Any], n_jobs: int) -> list:
    """``[task(item) for item in items]`` on up to ``n_jobs`` threads.

    The calling thread works too, next to up to ``n_jobs - 1`` threads of
    the process-wide pool; each thread claims the next unclaimed item, in
    list order, so put the largest items first. Results come back in item
    order whichever thread ran them. Called from a pool thread, or with
    ``n_jobs`` 1 or one item, everything runs inline. An error stops
    further claims and is raised once every started task has ended; of
    several, the one of the lowest item index, which is the error the
    inline loop would raise. A task runs on whichever thread claims it, so
    what it records in thread-local state (stage captures, tracer spans)
    stays on that thread: tasks that need their time reported return it.
    """
    count = len(items)
    helpers = min(int(n_jobs), count) - 1
    if helpers < 1 or on_fan_out_thread():
        return [task(item) for item in items]
    results: list = [None] * count
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    claimed = 0

    def run() -> None:
        nonlocal claimed
        while True:
            with lock:
                index = claimed
                claimed += 1
            if index >= count:
                return
            try:
                results[index] = task(items[index])
            except BaseException as error:
                with lock:
                    errors[index] = error
                    claimed = count  # nothing new starts after an error

    futures = [_shared_pool().submit(run) for _ in range(helpers)]
    run()
    for future in futures:
        future.result()  # run() keeps task errors; this surfaces anything else
    if errors:
        raise errors[min(errors)]
    return results


# ----------------------------------------------------------------------
# Construction helpers.
# ----------------------------------------------------------------------

_EXECUTOR_CLASSES = {
    SerialExecutor.kind: SerialExecutor,
    ThreadExecutor.kind: ThreadExecutor,
    ProcessExecutor.kind: ProcessExecutor,
}


def _check_spec(spec: str) -> None:
    """Validate an executor spec string without constructing anything."""
    if spec in _EXECUTOR_CLASSES:
        return
    if spec == "cluster" or spec.startswith("cluster:"):
        raise ValueError(
            f"executor {spec!r} is no longer available: to spread a batch over "
            "other hosts, send it as /v1/detect_batch to `repro router`, which "
            f"splits it over its nodes; expected one of {EXECUTOR_KINDS}"
        )
    raise ValueError(f"unknown executor {spec!r}; expected one of {EXECUTOR_KINDS}")


def as_executor(spec: str, max_workers: int | None = None) -> MemberExecutor:
    """Instantiate an executor backend from its name in :data:`EXECUTOR_KINDS`.

    Results are bitwise identical across every backend; the name only
    chooses where the work runs. A non-string ``spec`` raises ``TypeError``.
    """
    if not isinstance(spec, str):
        raise TypeError(f"executor spec must be a string, got {type(spec).__name__}")
    _check_spec(spec)
    return _EXECUTOR_CLASSES[spec](max_workers)


def validate_executor_spec(executor) -> None:
    """Reject anything that is not ``None``, a valid spec string, or an executor."""
    if executor is None or isinstance(executor, MemberExecutor):
        return
    if isinstance(executor, str):
        _check_spec(executor)
        return
    raise TypeError(
        f"executor must be None, one of {EXECUTOR_KINDS}, or a MemberExecutor, "
        f"got {type(executor).__name__}"
    )


def _resolve_n_jobs(n_jobs: int | None) -> int:
    try:
        return _resolve_workers(n_jobs)
    except ValueError:
        raise ValueError(f"n_jobs must be a positive integer or None, got {n_jobs}") from None


def _resolve_executor(
    executor: MemberExecutor | str | None,
    n_jobs: int,
) -> tuple[MemberExecutor | None, bool]:
    """Pick the executor for a call; returns ``(executor, owned)``.

    ``None`` as the first element means "run on the caller": without an
    explicit executor, ``n_jobs`` counts member threads of the process-wide
    fan-out pool (:func:`fan_out`) and never creates a process pool. A
    backend name builds that backend for just this call (``owned`` says the
    caller must close it); naming one is asking for parallelism, so with
    ``n_jobs`` 1 the pool is sized to every available CPU — the same rule
    the ensemble detector applies. Pass a live executor instance to control
    the worker count exactly.
    """
    validate_executor_spec(executor)
    if executor is None:
        return None, False
    if isinstance(executor, str):
        return as_executor(executor, None if n_jobs <= 1 else n_jobs), True
    return executor, False


def member_jobs(executor: MemberExecutor | str | None, n_jobs: int | None) -> int:
    """Member threads of one detection: executors carry whole series only.

    The members of one detection always run in this process, on the caller
    plus threads of the fan-out pool (:func:`fan_out`). Without an executor
    that is ``n_jobs`` (``None``: every available CPU). Naming an executor
    is asking for parallelism: ``n_jobs`` when above 1, else the executor's
    width capped at the available CPUs, which for a spec string is what
    :func:`_resolve_executor` would size it to (nothing is built just to
    read it). A serial executor gives 1.
    """
    validate_executor_spec(executor)
    jobs = _resolve_n_jobs(n_jobs)
    if executor is None or (n_jobs is not None and jobs > 1):
        return jobs
    if isinstance(executor, str):
        kind, width = executor, available_cpus()
    else:
        kind, width = executor.kind, min(executor.max_workers, available_cpus())
    return 1 if kind == "serial" else width


@contextmanager
def open_executor(executor, max_workers: int | None = None):
    """Yield a ready executor; close it on exit only if created here.

    ``executor`` may be a live :class:`MemberExecutor` (caller keeps
    ownership — nothing is closed) or a name from :data:`EXECUTOR_KINDS`
    (a temporary executor is created and closed when the block exits).
    """
    if isinstance(executor, MemberExecutor):
        yield executor
        return
    owned = as_executor(executor, max_workers)
    try:
        yield owned
    finally:
        owned.close()


# ----------------------------------------------------------------------
# Executor ownership (detectors that hold a backend).
# ----------------------------------------------------------------------


class ExecutorOwnerMixin:
    """Lifecycle of a detector-held executor: borrowed, or spec-built lazily.

    A detector may receive a live :class:`MemberExecutor` (borrowed — the
    caller owns and closes it) or a backend name (the detector builds it
    lazily on first use, reuses it across calls, and releases it in
    :meth:`close`). Subclasses call :meth:`_init_executor` from their
    constructor and may override :meth:`_executor_pool_size` to size
    spec-built pools.
    """

    def _init_executor(self, executor: "MemberExecutor | str | None") -> None:
        validate_executor_spec(executor)
        #: Backend name to build the owned executor from (``executor="..."``).
        self._executor_spec = executor if isinstance(executor, str) else None
        #: Live executor: borrowed when passed in, lazily created otherwise.
        self._executor = executor if isinstance(executor, MemberExecutor) else None
        self._owns_executor = False

    def _executor_pool_size(self) -> int | None:
        """Worker count for a spec-built pool (``None`` = every core)."""
        return None

    @property
    def executor(self) -> "MemberExecutor | None":
        """The execution backend, or ``None`` for serial/n_jobs semantics.

        A backend configured by name is created lazily here and then reused
        by every subsequent call, so a process pool pays its spawn cost once
        per detector, not once per call.
        """
        if self._executor is None and self._executor_spec is not None:
            self._executor = as_executor(self._executor_spec, self._executor_pool_size())
            self._owns_executor = True
        return self._executor

    def close(self) -> None:
        """Release the detector-owned executor, if any (idempotent).

        Borrowed executors are left untouched — their owner closes them.
        After ``close`` the detector falls back to its serial/n_jobs
        semantics (the backend spec is dropped, not resurrected lazily).
        """
        executor, self._executor = self._executor, None
        self._executor_spec = None
        if executor is not None and self._owns_executor:
            executor.close()
        self._owns_executor = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # Live pools don't cross process boundaries: a pickled detector
        # (e.g. the evaluation harness shipping it to a worker) falls back
        # to serial/n_jobs semantics on the other side.
        state = self.__dict__.copy()
        state["_executor"] = None
        state["_executor_spec"] = None
        state["_owns_executor"] = False
        return state


# ----------------------------------------------------------------------
# Batch fan-out plumbing shared by the ensemble engine and the baselines.
# ----------------------------------------------------------------------


class BatchItemError(RuntimeError):
    """A batch worker failed; records *which* input series it was handling.

    Attributes
    ----------
    index:
        Position of the failing series in the input batch.
    label:
        Caller-supplied label for the series (e.g. its file path in the
        CLI), or ``None``.
    cause_message:
        ``"ExceptionType: message"`` of the underlying error (kept as a
        string so the exception survives the process boundary).
    """

    def __init__(self, index: int, label: str | None, cause) -> None:
        self.index = int(index)
        self.label = None if label is None else str(label)
        if isinstance(cause, BaseException):
            self.cause_message = f"{type(cause).__name__}: {cause}"
        else:
            self.cause_message = str(cause)
        where = f"series {self.index}" if self.label is None else f"series {self.index} ({self.label})"
        super().__init__(f"batch {where} failed: {self.cause_message}")

    def __reduce__(self):
        # Exceptions cross process pools by pickling; rebuild from the
        # primitive fields rather than BaseException's args-based default.
        return (type(self), (self.index, self.label, self.cause_message))


def _wrap_batch_error(index: int, label: str | None, error: BaseException) -> BatchItemError:
    if isinstance(error, BatchItemError):
        return error
    return BatchItemError(index, label, error)


def _check_labels(labels, count: int) -> list[str] | None:
    if labels is None:
        return None
    labels = [str(label) for label in labels]
    if len(labels) != count:
        raise ValueError(f"got {len(labels)} labels for {count} series")
    return labels


def _detect_many_task(payload) -> list:
    """Worker: run a stateless detector on one series."""
    detector, series_ref, k, index, label = payload
    try:
        return detector.detect(resolve_series(series_ref), k)
    except Exception as error:
        raise _wrap_batch_error(index, label, error) from error


def _detect_many_contained(payload):
    """:func:`_detect_many_task`, returning its :class:`BatchItemError`."""
    try:
        return _detect_many_task(payload)
    except BatchItemError as error:
        return error


def share_series_batch(pool: MemberExecutor, stack, series_list, labels) -> list[SeriesHandle]:
    """Publish every series of a batch, attributing share-time failures.

    Handles are registered on the caller's ``ExitStack``; a series the
    executor refuses (e.g. a 2-D array on the shared-memory path) raises
    :class:`BatchItemError` naming its index/label — the same error shape a
    worker-side validation failure produces, so callers see one contract
    regardless of where in the pipeline the input was rejected.
    """
    handles: list[SeriesHandle] = []
    for index, series in enumerate(series_list):
        try:
            handles.append(stack.enter_context(pool.share_series(series)))
        except (ValueError, TypeError) as error:
            label = None if labels is None else labels[index]
            raise _wrap_batch_error(index, label, error) from error
    return handles


class StatelessBatchMixin:
    """Adds ``detect_batch`` to detectors whose ``detect`` is a pure function.

    Correct exactly when ``detect(series, k)`` depends only on the
    constructor parameters and the series — which holds for the discord,
    HOT SAX, RRA, and fixed-parameter GI detectors. The fan-out runs through
    :func:`detect_many`, so these baselines share the exact executor
    machinery (and pools) the ensemble uses.
    """

    def detect_batch(
        self,
        series_iterable,
        k: int = 3,
        *,
        n_jobs: int | None = 1,
        executor: MemberExecutor | str | None = None,
        labels: Sequence[str] | None = None,
        return_exceptions: bool = False,
    ) -> list[list]:
        """Run :meth:`detect` over many independent series.

        Results are in input order and identical across executor backends;
        series reach process workers via shared memory, and a failing series
        raises :class:`BatchItemError` naming its index/label (or fills its
        result slot with the error under ``return_exceptions=True``). See
        :func:`detect_many`.
        """
        return detect_many(
            self,
            series_iterable,
            k,
            n_jobs=n_jobs,
            executor=executor,
            labels=labels,
            return_exceptions=return_exceptions,
        )


def detect_many(
    detector,
    series_iterable: Iterable[np.ndarray],
    k: int = 3,
    *,
    n_jobs: int | None = 1,
    executor: MemberExecutor | str | None = None,
    labels: Sequence[str] | None = None,
    return_exceptions: bool = False,
) -> list[list]:
    """Run a *stateless* detector over many independent series.

    The baselines' counterpart of the engine's ``detect_batch``: the
    detector object itself is applied to every series (no per-series
    reseeding), which is correct exactly when ``detect()`` is a pure
    function of the constructor parameters and the series — true for the
    discord, HOT SAX, RRA, and fixed-parameter GI detectors. Without an
    executor the series run on the caller and up to ``n_jobs - 1`` threads
    of the fan-out pool (:func:`fan_out`); under a process executor the
    detector is pickled into the workers and the series travel via shared
    memory.
    Results are in input order and identical across backends; failures raise
    :class:`BatchItemError` — or, with ``return_exceptions=True``, land in
    the failing series' result slot as the :class:`BatchItemError` itself
    while every other series still completes.
    """
    series_list = [np.asarray(series, dtype=np.float64) for series in series_iterable]
    labels = _check_labels(labels, len(series_list))
    if not series_list:
        return []
    n_jobs = _resolve_n_jobs(n_jobs)
    pool, owned = _resolve_executor(executor, n_jobs)
    if pool is None:
        payloads = [
            (detector, series, int(k), index, None if labels is None else labels[index])
            for index, series in enumerate(series_list)
        ]
        task = _detect_many_contained if return_exceptions else _detect_many_task
        return fan_out(task, payloads, n_jobs)
    results = [None] * len(series_list)  # type: ignore[list-item]
    with ExitStack() as stack:
        if owned:
            stack.callback(pool.close)
        handles = share_series_batch(pool, stack, series_list, labels)
        payloads = [
            (
                detector,
                handle.ref,
                int(k),
                index,
                None if labels is None else labels[index],
            )
            for index, handle in enumerate(handles)
        ]
        for index, anomalies in pool.imap_unordered(
            _detect_many_task, payloads, return_exceptions=return_exceptions
        ):
            if isinstance(anomalies, BaseException):
                anomalies = _wrap_batch_error(
                    index, None if labels is None else labels[index], anomalies
                )
            results[index] = anomalies
    return results
