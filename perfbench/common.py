"""Shared pieces of the end-to-end benchmark: metrics, timing, results.

Every workload module builds one :class:`RunResult`, which carries the
operation counts, the correctness verdict, the metrics ``BENCHMARK.json``
names, and a longer human-readable report. :class:`SpeedProbe` turns wall
times into speed-normalized ones.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: End-to-end metrics every workload reports, with their units (defined in
#: ``run.py``), so a later change is judged on the same names everywhere.
END_TO_END_UNITS = {
    "setup_s": "s",
    "success_ratio": "ratio",
    "points_per_s": "1/s",
    "hit_rate": "ratio",
    "detect_p50_ms": "ms",
    "detect_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run, with units. A workload that does
#: not load a layer reports it as 0 (see its module docstring).
PER_LAYER_UNITS = {
    "sax.sweep_ms": "ms",
    "sax.tokenize_ms": "ms",
    "sax.kept_ratio": "ratio",
    "grammar.feed_ms": "ms",
    "grammar.spans_ms": "ms",
    "grammar.tokens": "count",
    "grammar.density_ms": "ms",
    "core.combine_ms": "ms",
    "core.extract_ms": "ms",
    "engine.state_extend_ms": "ms",
    "streaming.member_curve_ms": "ms",
    "streaming.live_tokens": "count",
    "session.append_p50_ms": "ms",
    "session.append_p95_ms": "ms",
    "session.poll_p50_ms": "ms",
    "session.poll_p95_ms": "ms",
    "session.bytes": "bytes",
    "service.http.node_ms": "ms",
    "service.router.forward_ms": "ms",
    "service.client.overhead_ms": "ms",
    "service.batching.mean_batch_size": "count",
    "service.cache.hit_ratio": "ratio",
    "service.snapshot.checkpoints": "count",
    "loadgen.lag_p95_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Median cost of :func:`reference_kernel` on the 2-core VM this benchmark
#: was written on, in milliseconds. Reported times are scaled to it.
REFERENCE_MS = 0.62

#: Reference samples within this many seconds of an operation set its scale.
PROBE_WINDOW_S = 0.5

#: ``prctl`` option that makes a process the reaper of orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: Repetitions of a workload's set-up; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Reference samples taken before and after each set-up (it has no others).
SETUP_PROBES = 3


def reference_kernel(ids: list, values: np.ndarray) -> int:
    """A fixed slice of interpreter-bound and vectorized work (about 0.6 ms)."""
    seen: dict[int, int] = {}
    previous = ids[0]
    for current in ids:
        key = previous * 64 + current
        seen[key] = seen.get(key, 0) + 1
        previous = current
    np.sort(values)
    return len(seen)


class SpeedProbe:
    """Samples :func:`reference_kernel` next to the timed operations.

    The machine's speed is not constant: on the shared 2-core VM this
    benchmark was written on, the same detection took 63 ms in one
    5-second window and 106 ms in the next, and a whole 20-second run
    could land in either state. The reference kernel slows by the same
    factor (the ratio of the two stayed within 1%), so each timed operation
    is reported speed-normalized: its wall time times ``REFERENCE_MS``
    divided by the median reference cost sampled within
    :data:`PROBE_WINDOW_S` of it. A normalized time reads as the time on a
    machine where the reference kernel takes :data:`REFERENCE_MS`. The
    reference is benchmark code; the program never runs it.

    With ``every_core`` each sample runs on the next core of this process's
    affinity set in turn (the calling thread is pinned for the sample
    only), so the scale follows every core, as work that other processes
    spread over all of them does, not just the core this thread is on.
    """

    def __init__(self, every_core: bool = False) -> None:
        self._all_cores = os.sched_getaffinity(0)
        self._cores = sorted(self._all_cores) if every_core else []
        self._turn = 0
        rng = np.random.default_rng(0)
        self._ids = rng.integers(0, 50, 4000).tolist()
        self._values = rng.standard_normal(20000)
        self._lock = threading.Lock()
        self._samples: list[tuple[float, float]] = []
        self._stamps: np.ndarray | None = None
        self._costs: np.ndarray | None = None

    def sample(self) -> None:
        if self._cores:
            self._turn += 1
            os.sched_setaffinity(0, {self._cores[self._turn % len(self._cores)]})
        begin = time.perf_counter()
        reference_kernel(self._ids, self._values)
        cost = time.perf_counter() - begin
        if self._cores:
            os.sched_setaffinity(0, self._all_cores)
        with self._lock:
            self._samples.append((begin, cost))
            self._stamps = None

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_MS`` over the median reference cost around ``[start, end]``."""
        if self._stamps is None:
            with self._lock:
                ordered = sorted(self._samples)
            self._stamps = np.array([stamp for stamp, _ in ordered])
            self._costs = np.array([cost for _, cost in ordered])
        low = np.searchsorted(self._stamps, start - PROBE_WINDOW_S)
        high = np.searchsorted(self._stamps, end + PROBE_WINDOW_S)
        if high <= low:  # nothing close: the nearest sample
            nearest = min(int(low), len(self._stamps) - 1)
            low, high = nearest, nearest + 1
        return REFERENCE_MS / 1000.0 / float(np.median(self._costs[low:high]))

    def normalize(self, start: float, end: float) -> float:
        """The speed-normalized duration of ``[start, end]``, in seconds."""
        return (end - start) * self.scale(start, end)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def ms(seconds: float) -> float:
    return seconds * 1000.0


def cold_start() -> None:
    """Start a fresh interpreter that imports the program, and wait for it.

    The in-process workloads count this in ``setup_s``: it is what every
    process that runs the detector pays before its first call.
    """
    subprocess.run([sys.executable, "-c", "import repro"], env=child_env(), check=True)


def child_env() -> dict:
    """Environment for child processes: the checkout's program, its own temp dir."""
    scratch = Path.cwd() / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"), TMPDIR=str(scratch))


def timed_setup(probe: SpeedProbe, build, release=None):
    """Run ``build()`` :data:`SETUP_REPEATS` times; return (median seconds, last value).

    Each repetition is a full, independent set-up, timed speed-normalized;
    every value but the last is handed to ``release`` (when given) before
    the next one starts, so ``setup_s`` shows work that a change moves out
    of the timed loop.
    """
    durations = []
    value = None
    for repeat in range(SETUP_REPEATS):
        if repeat and release is not None:
            release(value)
        for _ in range(SETUP_PROBES):
            probe.sample()
        started = time.perf_counter()
        value = build()
        ended = time.perf_counter()
        for _ in range(SETUP_PROBES):
            probe.sample()
        durations.append(probe.normalize(started, ended))
    return statistics.median(durations), value


def anomaly_rows(anomalies) -> list[list]:
    """Ranked anomalies as JSON-exact rows ``[rank, position, length, score]``."""
    return [[int(a.rank), int(a.position), int(a.length), float(a.score)] for a in anomalies]


def payload_rows(anomalies: list[dict]) -> list[list]:
    """The same rows from a service response's ``anomalies`` list."""
    return [
        [int(a["rank"]), int(a["position"]), int(a["length"]), float(a["score"])]
        for a in anomalies
    ]


def digest(document) -> str:
    """Short stable digest of a JSON-able document (floats by ``repr``)."""
    text = json.dumps(document, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def overlaps(position: int, length: int, start: int, span: int) -> bool:
    """Whether ``[position, position+length)`` meets ``[start, start+span)``."""
    return position < start + span and start < position + length


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return 0.0
    return 0.0


def _proc_stat(pid: str) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (state, ppid, pgrp, ...)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        fields = _proc_stat(entry) if entry.isdigit() else None
        if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process that a child leaves behind (a pool worker, the
    ``multiprocessing`` resource tracker of a stopped server) is then
    re-parented here instead of to init, so :func:`end_children` can wait
    for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def end_children(grace_s: float = 10.0) -> list[int]:
    """Wait until every child of this process has ended and been reaped.

    Children still running after ``grace_s`` are killed; their pids are
    returned.
    """
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return []
        if not pid:
            time.sleep(0.02)
    me = str(os.getpid())
    killed = []
    for entry in os.listdir("/proc"):
        fields = _proc_stat(entry) if entry.isdigit() else None
        if fields is not None and fields[1] == me:
            try:
                os.kill(int(entry), signal.SIGKILL)
                killed.append(int(entry))
            except ProcessLookupError:
                pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return killed


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently present."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class RunResult:
    """Counts, verdict and metrics of one benchmark invocation."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.report: list[tuple[str, float, str]] = []

    def fail(self, message: str) -> None:
        """Record one failed or refused operation."""
        self.failures.append(message)

    def mismatch(self, message: str) -> None:
        """Record one correctness failure (counted as a failed operation)."""
        self.mismatches.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str) -> None:
        """A report-only figure (printed, not part of the JSON result line)."""
        self.report.append((name, float(value), unit))

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.mismatches)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def success_ratio(self) -> float:
        return max(0.0, 1.0 - self.failed / max(1, self.attempted))

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(max(1, self.attempted)),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )
