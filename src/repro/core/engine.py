"""Execution engine: shared stream state and pluggable parallel execution.

The paper's pitch is linear-time anomaly detection at scale; this module is
the layer that makes the library production-shaped on both axes:

- :class:`SharedStreamState` — one numpy-backed growable buffer (values plus
  the ``ESum_x``/``ESum_xx`` prefix sums of Algorithm 2) owned once per
  stream and *referenced* by every ensemble member, so a streaming ensemble
  costs O(stream + N·w) memory instead of N independent copies of the
  stream. Appends are amortized O(1) via capacity doubling, and the prefix
  sums are extended with the exact left-associated accumulation order of
  ``np.cumsum`` so streaming results stay bitwise equal to the batch path.
- :func:`compute_member_curves` — every batch density curve: the
  ensemble's members and, as a one-member call, the single-run
  :class:`~repro.core.detector.GrammarAnomalyDetector`. All members share
  one :class:`~repro.core.multiresolution.MultiResolutionDiscretizer`
  (Section 6.2) and each member is one native call that releases the GIL
  (:func:`repro.grammar._kernel.member_curve`), with exact numerosity
  reduction or none; the per-``w`` sweeps and then the members fan out
  across the calling thread and the process-wide thread pool
  (:func:`repro.core.executors.fan_out`, inline with one thread). Members
  never cross an executor: naming one only sets how many threads they get
  (:func:`repro.core.executors.member_jobs`). Every thread count runs the
  same floating-point operations, so results are bitwise identical.
- :func:`detect_batch` / :func:`iter_detect_batch` — the serving shape for
  high-traffic workloads: fan out many *independent* series across an
  executor, one whole series per task, each handled by an
  identically-configured detector clone with a deterministic per-series
  seed, so results do not depend on the backend or scheduling order. Series
  reach process workers through shared memory, not pickling (see
  :mod:`repro.core.executors`), in about two chunks per worker; a
  one-series batch runs in this process.
  ``iter_detect_batch`` yields each series' result as it completes instead
  of gathering the whole batch; a worker failure is wrapped in
  :class:`BatchItemError` carrying which input failed.
- :func:`detect_many` — the same fan-out for *stateless* detectors (the
  discord / HOT SAX / RRA / fixed-parameter GI baselines), which is what
  lets the evaluation harness run method comparisons through one shared
  pool.

Example
-------
>>> import numpy as np
>>> from repro.core.engine import SharedStreamState
>>> state = SharedStreamState()
>>> state.extend(np.sin(np.linspace(0, 8 * np.pi, 400)))
400
>>> len(state)
400
>>> state.paa_rows(0, 100, 4).shape
(301, 4)
"""

from __future__ import annotations

from contextlib import ExitStack
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.executors import (  # noqa: F401 — re-exported engine API
    BatchItemError,
    MemberExecutor,
    StatelessBatchMixin,
    _check_labels,
    _resolve_executor,
    _resolve_n_jobs,
    _wrap_batch_error,
    detect_many,
    fan_out,
    member_jobs,
    resolve_series,
    share_series_batch,
    validate_executor_spec,
)
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.core.selection import curve_std
from repro.grammar import _kernel
from repro.obs.stages import merge
from repro.sax._kernel import paa_rows_block
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD
from repro.utils.rng import spawn_rngs
from repro.utils.validation import validate_paa_size, validate_window

#: Initial allocation of a fresh stream buffer (doubles on demand).
_INITIAL_CAPACITY = 1024

#: Eviction policies a bounded stream state supports. ``"sliding"`` retires
#: points eagerly at the exact horizon; ``"decay"`` retires them lazily in
#: generation-sized steps so grammar generations can be dropped wholesale.
EVICTION_POLICIES = ("sliding", "decay")


class SharedStreamState:
    """Stream buffer with prefix sums, shared by ensemble members.

    Holds the values seen so far plus the running prefix sums ``ESum_x`` and
    ``ESum_xx`` (Algorithm 2 of the paper) in pre-allocated numpy arrays
    that double in capacity when full. All live detectors over the same
    stream reference one instance, which is what brings a streaming
    ensemble's memory down from O(N·stream) to O(stream + N·w).

    The prefix sums are extended by *resuming* the running total, which
    reproduces the left-associated accumulation order of ``np.cumsum`` over
    the whole series — the batch pipeline's exact floating-point result, no
    matter how the stream is split into ``append``/``extend`` calls.

    Parameters
    ----------
    capacity:
        ``None`` (default) grows the buffer with the stream forever — the
        batch-parity mode. An integer bounds retention: only (at least) the
        last ``capacity`` points stay addressable, and older points are
        retired by :meth:`trim` / :meth:`evict_to`, so an infinite stream
        runs in O(capacity) memory. Retired points keep their *global*
        indices: ``len(self)`` is the total number of points ever seen, and
        every index-taking method speaks global coordinates. Crucially the
        prefix sums stay the absolute running totals from the very first
        point, so for any still-live window ``paa_rows`` is **bitwise
        identical** to what the unbounded state would return.
    policy:
        Eviction granularity used by :meth:`trim`. ``"sliding"`` retires to
        the exact horizon ``len(self) - capacity`` on every trim;
        ``"decay"`` retires lazily in steps of :attr:`generation_size`
        points (retention up to ``capacity + generation_size - 1``), which
        lets generation-segmented grammars above be dropped wholesale.
    segments:
        For the decay policy: how many generations span one capacity, i.e.
        ``generation_size = max(1, capacity // segments)``.
    initial_capacity:
        Size of the first allocation (grows on demand; purely a
        preallocation knob, no semantic effect).
    """

    __slots__ = (
        "_values",
        "_prefix",
        "_prefix_sq",
        "_n",
        "_start",
        "_base",
        "_version",
        "capacity",
        "policy",
        "segments",
    )

    def __init__(
        self,
        capacity: int | None = None,
        *,
        policy: str = "sliding",
        segments: int = 4,
        initial_capacity: int = _INITIAL_CAPACITY,
    ) -> None:
        if capacity is not None:
            capacity = int(capacity)
            if capacity < 1:
                raise ValueError(f"capacity must be a positive integer or None, got {capacity}")
        if policy not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r}; expected one of {EVICTION_POLICIES}")
        segments = int(segments)
        if segments < 1:
            raise ValueError(f"segments must be a positive integer, got {segments}")
        self.capacity = capacity
        self.policy = policy
        self.segments = segments
        allocation = max(int(initial_capacity), 1)
        self._values = np.empty(allocation, dtype=np.float64)
        self._prefix = np.empty(allocation + 1, dtype=np.float64)
        self._prefix_sq = np.empty(allocation + 1, dtype=np.float64)
        self._prefix[0] = 0.0
        self._prefix_sq[0] = 0.0
        #: Total points ever seen (global stream length).
        self._n = 0
        #: Global index of the oldest *live* point (the eviction horizon).
        self._start = 0
        #: Global index of ``_values[0]`` (``_base <= _start``; the gap is a
        #: dead prefix compacted away lazily, so eviction is O(1) amortized).
        self._base = 0
        #: Monotone counter bumped by every observable mutation (append/
        #: extend and horizon advances) — the cache key the streaming
        #: snapshot-curve memoization and the serving layer's poll cache use
        #: to recognise "no new data since the last snapshot".
        self._version = 0

    def __len__(self) -> int:
        """Total points ever seen (global stream length, retired included)."""
        return self._n

    @property
    def start(self) -> int:
        """Global index of the oldest retained point (0 until eviction)."""
        return self._start

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumps on ingest and horizon advances).

        Two reads of the state under one version see exactly the same live
        range and values, so any pure function of the state (a member's
        snapshot density curve, the ensemble curve, a poll response) may be
        memoized keyed on this counter. Deferred physical compaction does
        *not* bump it — compaction preserves every observable value.
        """
        return self._version

    @property
    def nbytes(self) -> int:
        """Bytes currently allocated by the stream buffers.

        Counts the values array plus both prefix-sum arrays (allocation
        size, not just the live range) — the number the serving layer's
        session memory budget accounts against.
        """
        return self._values.nbytes + self._prefix.nbytes + self._prefix_sq.nbytes

    @property
    def live_length(self) -> int:
        """Number of points currently retained (``len(self) - start``)."""
        return self._n - self._start

    @property
    def horizon_start(self) -> int:
        """Exact retention horizon: the oldest global index within capacity."""
        if self.capacity is None:
            return 0
        return max(0, self._n - self.capacity)

    @property
    def generation_size(self) -> int | None:
        """Eviction step of the decay policy (``None`` when not applicable)."""
        if self.capacity is None or self.policy != "decay":
            return None
        return max(1, self.capacity // self.segments)

    @property
    def values(self) -> np.ndarray:
        """View of the live values (invalidated by the next append/evict)."""
        return self._values[self._start - self._base : self._n - self._base]

    @property
    def prefix_sum(self) -> np.ndarray:
        """Absolute running sums over the live range (length ``live_length + 1``).

        Entry ``k`` is ``sum(stream[:start + k])`` — the same float the
        unbounded state holds at global position ``start + k``, so window
        sums over live points are bitwise independent of eviction.
        """
        return self._prefix[self._start - self._base : self._n - self._base + 1]

    @property
    def prefix_sq(self) -> np.ndarray:
        """Absolute running sums of squares over the live range."""
        return self._prefix_sq[self._start - self._base : self._n - self._base + 1]

    def n_windows(self, window: int) -> int:
        """Completed sliding windows of length ``window`` so far (global)."""
        return max(0, self._n - int(window) + 1)

    # ------------------------------------------------------------------
    # Storage management (compaction is deferred so eviction stays O(1)).
    # ------------------------------------------------------------------

    def _compact(self) -> None:
        """Physically drop the dead prefix ``[_base, _start)``."""
        dead = self._start - self._base
        if dead == 0:
            return
        live = self._n - self._start
        self._values[:live] = self._values[dead : dead + live]
        self._prefix[: live + 1] = self._prefix[dead : dead + live + 1]
        self._prefix_sq[: live + 1] = self._prefix_sq[dead : dead + live + 1]
        self._base = self._start

    def _ensure_room(self, incoming: int) -> None:
        """Make room for ``incoming`` more points: compact first, grow last."""
        if (self._n + incoming) - self._base <= len(self._values):
            return
        self._compact()
        required = (self._n + incoming) - self._base
        allocation = len(self._values)
        if required <= allocation:
            return
        new_allocation = max(required, 2 * allocation)
        used = self._n - self._base
        values = np.empty(new_allocation, dtype=np.float64)
        prefix = np.empty(new_allocation + 1, dtype=np.float64)
        prefix_sq = np.empty(new_allocation + 1, dtype=np.float64)
        values[:used] = self._values[:used]
        prefix[: used + 1] = self._prefix[: used + 1]
        prefix_sq[: used + 1] = self._prefix_sq[: used + 1]
        self._values = values
        self._prefix = prefix
        self._prefix_sq = prefix_sq

    # ------------------------------------------------------------------
    # Ingest.
    # ------------------------------------------------------------------

    def append(self, value: float) -> None:
        """Consume one observation; amortized O(1)."""
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("stream values must be finite")
        self._ensure_room(1)
        local = self._n - self._base
        self._values[local] = value
        self._prefix[local + 1] = self._prefix[local] + value
        self._prefix_sq[local + 1] = self._prefix_sq[local] + value**2
        self._n += 1
        self._version += 1

    def extend(self, values) -> int:
        """Consume a batch of observations in one vectorized pass.

        Returns the number of observations appended. The whole chunk is
        validated before anything is written, so a rejected chunk leaves the
        state untouched.
        """
        chunk = np.asarray(values, dtype=np.float64)
        if chunk.ndim != 1:
            raise ValueError(f"stream chunks must be 1-dimensional, got shape {chunk.shape}")
        if chunk.size == 0:
            return 0
        if not np.all(np.isfinite(chunk)):
            raise ValueError("stream values must be finite")
        m = len(chunk)
        self._ensure_room(m)
        local = self._n - self._base
        self._values[local : local + m] = chunk
        # Resume the running totals: cumsum([total, c0, c1, ...]) accumulates
        # left-associated exactly like np.cumsum over the full series would.
        self._prefix[local + 1 : local + m + 1] = np.cumsum(
            np.concatenate(([self._prefix[local]], chunk))
        )[1:]
        self._prefix_sq[local + 1 : local + m + 1] = np.cumsum(
            np.concatenate(([self._prefix_sq[local]], chunk**2))
        )[1:]
        self._n += m
        self._version += 1
        return m

    # ------------------------------------------------------------------
    # Eviction.
    # ------------------------------------------------------------------

    def evict_to(self, global_index: int) -> int:
        """Retire every point before ``global_index``; returns the new start.

        Monotone and O(1) (physical compaction is deferred to the next time
        the buffer needs room). Callers must not retire points still needed
        by an unconsumed window — the streaming detectors guarantee this by
        draining before trimming and requiring ``capacity >= window``.
        """
        global_index = int(global_index)
        if global_index > self._n:
            raise ValueError(
                f"cannot evict to {global_index}: only {self._n} points seen"
            )
        if global_index > self._start:
            self._start = global_index
            self._version += 1
        return self._start

    def trim(self) -> int:
        """Apply the configured eviction policy; returns the new start.

        A no-op for unbounded states. ``"sliding"`` retires to the exact
        horizon ``len(self) - capacity``; ``"decay"`` rounds the horizon
        down to a multiple of :attr:`generation_size`, so eviction advances
        in generation steps and retention stays within
        ``capacity + generation_size - 1`` points.
        """
        return self.evict_to(self.trim_target())

    def trim_target(self) -> int:
        """The start :meth:`trim` would retire to now, without retiring anything."""
        if self.capacity is None:
            return self._start
        target = self.horizon_start
        if self.policy == "decay":
            step = self.generation_size
            target = (target // step) * step
        return max(target, self._start)

    # ------------------------------------------------------------------
    # Snapshot / restore.
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Self-describing state of the live range, for snapshotting.

        The exported prefix sums are the **absolute** running totals from
        the very first stream point (not rebased to the live range) — the
        invariant that makes a restored state's ``paa_rows`` bitwise
        identical to the original's. Arrays are copies; mutating the state
        afterwards does not disturb an exported snapshot.
        """
        lo = self._start - self._base
        live = self._n - self._start
        return {
            "n": int(self._n),
            "start": int(self._start),
            "version": int(self._version),
            "capacity": None if self.capacity is None else int(self.capacity),
            "policy": self.policy,
            "segments": int(self.segments),
            "values": self._values[lo : lo + live].copy(),
            "prefix": self._prefix[lo : lo + live + 1].copy(),
            "prefix_sq": self._prefix_sq[lo : lo + live + 1].copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SharedStreamState":
        """Rebuild a stream state from :meth:`export_state` output.

        The restored instance is observably identical to the original: same
        global length, horizon, version counter, live values, and absolute
        prefix sums — so every future ``extend``/``paa_rows`` resumes the
        exact floating-point accumulation the original would have produced.
        """
        values = np.ascontiguousarray(state["values"], dtype=np.float64)
        prefix = np.ascontiguousarray(state["prefix"], dtype=np.float64)
        prefix_sq = np.ascontiguousarray(state["prefix_sq"], dtype=np.float64)
        live = len(values)
        if len(prefix) != live + 1 or len(prefix_sq) != live + 1:
            raise ValueError(
                f"inconsistent stream snapshot: {live} live values with "
                f"prefix lengths {len(prefix)}/{len(prefix_sq)} (want {live + 1})"
            )
        n = int(state["n"])
        start = int(state["start"])
        if n - start != live or start < 0:
            raise ValueError(
                f"inconsistent stream snapshot: n={n}, start={start} but "
                f"{live} live values"
            )
        instance = cls(
            state["capacity"],
            policy=state["policy"],
            segments=state["segments"],
            initial_capacity=max(live, 1),
        )
        instance._values[:live] = values
        instance._prefix[: live + 1] = prefix
        instance._prefix_sq[: live + 1] = prefix_sq
        instance._n = n
        instance._start = start
        instance._base = start
        instance._version = int(state["version"])
        return instance

    # ------------------------------------------------------------------
    # Discretization.
    # ------------------------------------------------------------------

    def _window_range(self, window: int, first_start, stop) -> tuple[int, int]:
        """``(first_start, stop)`` as ints, ``stop`` clipped to the completed
        windows; ``ValueError`` when ``first_start`` precedes the eviction
        horizon or lies past ``stop``."""
        completed = self.n_windows(window)
        stop = completed if stop is None else min(int(stop), completed)
        first_start = int(first_start)
        if first_start < self._start:
            raise ValueError(
                f"first_start={first_start} precedes the eviction horizon "
                f"{self._start}; those windows have been retired"
            )
        if not first_start <= stop:
            raise ValueError(
                f"first_start={first_start} outside the completed-window range "
                f"[{self._start}, {stop}]"
            )
        return first_start, stop

    def paa_rows(
        self,
        first_start: int,
        window: int,
        paa_size: int,
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
        *,
        stop: int | None = None,
    ) -> np.ndarray:
        """Z-normalized PAA rows of every completed window from ``first_start``.

        Returns a ``(stop - first_start, paa_size)`` matrix (``stop``
        defaults to ``n_windows(window)`` and is clipped to it) computed in
        one native pass over the shared prefix sums; row ``i`` is bitwise
        equal to the batch discretizer's row ``first_start + i``.
        ``first_start`` is a global window start and must lie at or after
        the eviction horizon (:attr:`start`); because the retained prefix
        sums are the absolute stream totals, rows for live windows are
        bitwise identical to the unbounded state's rows. The ``stop`` bound
        lets the streaming detectors drain huge chunks in fixed-size blocks
        so transient memory stays bounded too.
        """
        window = validate_window(window, self.live_length)
        paa_size = validate_paa_size(paa_size, window)
        first_start, stop = self._window_range(window, first_start, stop)
        base = self._base
        used = self._n - base
        return paa_rows_block(
            self._prefix[: used + 1],
            self._prefix_sq[: used + 1],
            self._values[:used],
            first_start,
            stop,
            window,
            paa_size,
            znorm_threshold,
            origin=base,
        )

    def buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """``(prefix_sum, prefix_sq, values, origin)``: the retained buffers.

        Views of everything still stored (the dead prefix not yet compacted
        included), from global index ``origin``, as the discretization
        passes read them; invalidated by the next append.
        """
        used = self._n - self._base
        return (
            self._prefix[: used + 1],
            self._prefix_sq[: used + 1],
            self._values[:used],
            self._base,
        )

    def sweep(self, plan, first_start: int, *, stop: int | None = None):
        """Open a shared discretization sweep over completed windows.

        The multi-member sibling of :meth:`paa_rows`: same global-coordinate
        semantics and eviction-horizon validation, but instead of one PAA
        matrix it returns a :class:`~repro.sax.plan.DiscretizationSweep`
        over ``[first_start, stop)`` that lazily shares window statistics,
        PAA matrices and interval matrices across every member of ``plan``.
        The sweep reads the live buffers with their ring-buffer ``origin``
        offset, so — exactly as for :meth:`paa_rows` — rows for live
        windows are bitwise identical to the unbounded state's. The
        streaming detectors do not use it: their drain computes its
        intervals natively (``seq_drain``).
        """
        window = validate_window(plan.window, self.live_length)
        first_start, stop = self._window_range(window, first_start, stop)
        prefix_sum, prefix_sq, values, origin = self.buffers()
        return plan.sweep(prefix_sum, prefix_sq, values, first_start, stop, origin=origin)


# ----------------------------------------------------------------------
# Parallel member execution (every batch density curve).
# ----------------------------------------------------------------------


def _member_stage_times(phase_ns, combine_s: float) -> dict[str, float]:
    """Seconds per stage from :func:`~repro.grammar._kernel.member_curve`'s
    tokenize, feed, spans and density counters, and the member's share of
    the combine (its std and peak)."""
    tokenize, feed, spans, density = phase_ns
    return {
        "discretize": tokenize * 1e-9,
        "grammar": (feed + spans) * 1e-9,
        "density": density * 1e-9,
        "combine": combine_s,
    }


class MemberRun(NamedTuple):
    """What :func:`compute_member_curves` returns, every field in sample
    order: the member curves, each curve's
    :func:`~repro.core.selection.curve_std` and its peak (``curve.max()``)."""

    curves: list[np.ndarray]
    stds: tuple[float, ...]
    peaks: tuple[float, ...]


def compute_member_curves(
    series: np.ndarray,
    window: int,
    parameters: Sequence[tuple[int, int]],
    *,
    max_paa_size: int,
    max_alphabet_size: int,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    numerosity: str = "exact",
    n_jobs: int | None = 1,
    executor: MemberExecutor | str | None = None,
) -> MemberRun:
    """Rule density curves of every member, with each one's std and peak.

    All members share one :class:`MultiResolutionDiscretizer` and run in
    this process, on this thread and the threads of the process-wide pool
    (:func:`~repro.core.executors.fan_out`; with one thread, or from a pool
    thread, everything runs inline). Without an executor ``n_jobs`` counts
    those threads (``None``: every available CPU); an executor never
    receives a member, naming one only sets the thread count
    (:func:`~repro.core.executors.member_jobs`).

    The window statistics are computed once, here. Phase 1 fills the
    sweep's interval matrix of each distinct ``w``, largest first (the
    largest matrices take longest); phase 2 runs the members, largest ``w``
    first, each one :func:`~repro.grammar._kernel.member_curve` call (exact
    or no numerosity reduction, on the running thread's warm native
    workspace) whose curve lands in its sample-order slot: a uniform random
    prefix of the sample is itself a uniform sample, which the size-sweep
    benches rely on. The thread that ran a member also takes its std and
    peak, the per-member part of the combine
    (:func:`~repro.core.combiners.combine_members`). The tasks record no
    stage timer and touch no thread-local state of the stages: this thread
    merges their measured times into the stages and captures afterwards,
    the std and peak under ``combine``. Member curves are deterministic
    functions of ``(series, window, w, a, numerosity)``, so every thread
    count produces bitwise-identical results.
    """
    jobs = member_jobs(executor, n_jobs)
    discretizer = MultiResolutionDiscretizer(
        series,
        window,
        max_paa_size,
        max_alphabet_size,
        znorm_threshold=znorm_threshold,
        numerosity=numerosity,
    )
    sweep = discretizer.sweep
    sweep.shared_stats()
    widths = sorted({paa_size for paa_size, _ in parameters}, reverse=True)
    for seconds in fan_out(sweep.fill_intervals, widths, jobs):
        if seconds:
            merge({"paa": seconds})
    intervals = {paa_size: discretizer.interval_matrix(paa_size) for paa_size in widths}
    table = discretizer.alphabet_table
    order = sorted(range(len(parameters)), key=lambda i: parameters[i], reverse=True)
    inputs = [
        (intervals[parameters[i][0]], table.symbol_column(parameters[i][1])) for i in order
    ]
    window, length = discretizer.window, len(discretizer.series)
    reduce = numerosity == "exact"

    def member(pair):
        curve, phase_ns, _ = _kernel.member_curve(pair[0], pair[1], window, length, reduce=reduce)
        started = perf_counter()
        std, peak = curve_std(curve), curve.max()
        return curve, std, peak, _member_stage_times(phase_ns, perf_counter() - started)

    count = len(parameters)
    curves: list[np.ndarray] = [np.empty(0)] * count
    stds, peaks = [0.0] * count, [0.0] * count
    for index, (curve, std, peak, times) in zip(order, fan_out(member, inputs, jobs)):
        curves[index], stds[index], peaks[index] = curve, std, peak
        merge(times)
    return MemberRun(curves, tuple(stds), tuple(peaks))


# ----------------------------------------------------------------------
# Batch front ends (many independent series — the serving shape).
# ----------------------------------------------------------------------


def _detect_one_series(payload) -> list:
    """Worker: run one identically-configured detector clone on one series."""
    kwargs, seed, series_ref, k, jobs, index, label = payload
    from repro.core.ensemble import EnsembleGrammarDetector

    try:
        series = resolve_series(series_ref)
        detector = EnsembleGrammarDetector(**kwargs, seed=seed, n_jobs=jobs)
        return detector.detect(series, k)
    except Exception as error:
        raise _wrap_batch_error(index, label, error) from error


def _detect_series_chunk(payload) -> list[tuple[int, list]]:
    """Worker: run several per-series detections in one task.

    Chunking amortizes the per-task executor round trip (submission,
    payload pickling, result sync) across the chunk's series — the lever
    that makes micro-batched serving of *small* requests pay, where one
    IPC round trip per series would rival the detection itself. Each item
    is computed exactly as :func:`_detect_one_series` would, so results are
    independent of the chunking.
    """
    items, contain_errors = payload
    results: list[tuple[int, list]] = []
    for item in items:
        _, _, _, _, _, index, _ = item
        if contain_errors:
            try:
                results.append((index, _detect_one_series(item)))
            except BatchItemError as error:
                results.append((index, error))
        else:
            results.append((index, _detect_one_series(item)))
    return results


def iter_detect_batch(
    detector,
    series_iterable: Iterable[np.ndarray],
    k: int = 3,
    *,
    n_jobs: int | None = None,
    executor: MemberExecutor | str | None = None,
    labels: Sequence[str] | None = None,
    seeds: Sequence | None = None,
    return_exceptions: bool = False,
) -> Iterator[tuple[int, list]]:
    """Yield ``(index, anomalies)`` per series *as results complete*.

    The incremental sibling of :func:`detect_batch`: instead of gathering
    the whole batch, each series' ranked candidates are yielded the moment
    its worker finishes (completion order under pooled executors, input
    order under the serial path). The per-index results are identical to
    ``detect_batch``'s — same clone configuration, same spawned seed — so
    consumers may stream them into storage and re-order later.

    ``seeds`` overrides the per-series seed derivation entirely: instead of
    spawning children from ``detector.seed``, series ``i`` is detected by a
    clone seeded with exactly ``seeds[i]`` (one entry per series; ints and
    ``numpy.random.Generator`` instances both work). This is how the
    serving subsystem keeps a micro-batched request bitwise identical to a
    direct ``detect()`` call with that request's seed, no matter which
    requests happened to be coalesced around it.

    A failing series raises :class:`BatchItemError` naming its index (and
    label, when ``labels`` is given); abandoning the iterator cancels
    pending work and releases any shared-memory segments. With
    ``return_exceptions=True`` the error is *yielded* as that series'
    result instead and every other series still completes — the contract
    behind partial batch results in the CLI and the serving layer.

    A pooled batch packs about ``n_series / (2 * max_workers)`` per-series
    detections into each worker task (``multiprocessing.Pool.map``-style),
    so the pool stays balanced while per-task dispatch overhead is
    amortized across the chunk — what makes pooled batches of *small*
    series pay. Results are independent of the chunking; only delivery
    granularity changes (a chunk's results arrive together). Arguments are
    validated here, eagerly — the returned iterator only defers execution.
    """
    series_list = [np.ascontiguousarray(series, dtype=np.float64) for series in series_iterable]
    labels = _check_labels(labels, len(series_list))
    validate_executor_spec(executor)
    n_jobs = detector.n_jobs if n_jobs is None else n_jobs
    _resolve_n_jobs(n_jobs)  # validated here; the deferred half resolves it
    kwargs = detector.clone_kwargs()
    if seeds is None:
        # spawn_rngs derives deterministic, independent (and picklable)
        # per-series generators from the detector's seed; a Generator seed
        # draws children from its own stream (advancing it).
        seeds = spawn_rngs(detector.seed, len(series_list))
    else:
        seeds = list(seeds)
        if len(seeds) != len(series_list):
            raise ValueError(f"got {len(seeds)} seeds for {len(series_list)} series")
    return _iter_detect_batch(
        kwargs,
        seeds,
        series_list,
        int(k),
        n_jobs,
        executor,
        labels,
        return_exceptions,
    )


def _iter_detect_batch(
    kwargs: dict,
    seeds: list,
    series_list: list[np.ndarray],
    k: int,
    n_jobs: int | None,
    executor: MemberExecutor | str | None,
    labels: list[str] | None,
    return_exceptions: bool = False,
) -> Iterator[tuple[int, list]]:
    """The deferred half of :func:`iter_detect_batch` (validated inputs)."""
    if not series_list:
        return
    if executor is None or len(series_list) == 1:
        # Executors carry whole series only: without one, or with nothing
        # to spread across one, the clones run here and spend the whole job
        # budget on their members' threads.
        jobs = member_jobs(executor, n_jobs)
        for index, (seed, series) in enumerate(zip(seeds, series_list)):
            label = None if labels is None else labels[index]
            payload = (kwargs, seed, series, k, jobs, index, label)
            if return_exceptions:
                try:
                    result = _detect_one_series(payload)
                except BatchItemError as error:
                    result = error
                yield index, result
            else:
                yield index, _detect_one_series(payload)
        return
    pool, owned = _resolve_executor(executor, _resolve_n_jobs(n_jobs))
    # Pooled clones run their members serially to avoid nested pools; a
    # serial executor runs its clones here, by the same rule as a batch of
    # one, one series per task. A pool gets about two chunks per worker.
    if pool.kind == "serial":
        clone_jobs, chunksize = member_jobs(pool, n_jobs), 1
    else:
        clone_jobs = 1
        chunksize = -(-len(series_list) // (2 * max(1, pool.max_workers)))
    with ExitStack() as stack:
        if owned:
            stack.callback(pool.close)
        handles = share_series_batch(pool, stack, series_list, labels)
        payloads = [
            (
                kwargs,
                seed,
                handle.ref,
                k,
                clone_jobs,
                index,
                None if labels is None else labels[index],
            )
            for index, (seed, handle) in enumerate(zip(seeds, handles))
        ]
        if chunksize > 1:
            chunks = [
                (payloads[offset : offset + chunksize], return_exceptions)
                for offset in range(0, len(payloads), chunksize)
            ]
            for chunk_index, chunk_result in pool.imap_unordered(
                _detect_series_chunk, chunks, return_exceptions=return_exceptions
            ):
                if isinstance(chunk_result, BaseException):
                    # The whole chunk task died (e.g. a broken pool): under
                    # error containment every item in it fails in place.
                    for item in chunks[chunk_index][0]:
                        index, label = item[5], item[6]
                        yield index, _wrap_batch_error(index, label, chunk_result)
                    continue
                yield from chunk_result
            return
        for index, result in pool.imap_unordered(
            _detect_one_series, payloads, return_exceptions=return_exceptions
        ):
            if isinstance(result, BaseException):
                result = _wrap_batch_error(
                    index, None if labels is None else labels[index], result
                )
            yield index, result


def detect_batch(
    detector,
    series_iterable: Iterable[np.ndarray],
    k: int = 3,
    *,
    n_jobs: int | None = None,
    executor: MemberExecutor | str | None = None,
    labels: Sequence[str] | None = None,
    seeds: Sequence | None = None,
    return_exceptions: bool = False,
) -> list[list]:
    """Top-``k`` anomalies of many independent series, optionally in parallel.

    Parameters
    ----------
    detector:
        An :class:`~repro.core.ensemble.EnsembleGrammarDetector` whose
        configuration (window, sampling ranges, selectivity, ...) is applied
        to every series. Each series gets a fresh clone seeded from the
        detector's seed via ``SeedSequence.spawn``, so the i-th series
        always sees the same parameter sample regardless of the backend.
    series_iterable:
        The independent series to scan (any iterable of 1-D arrays).
    k:
        Candidates to report per series.
    n_jobs:
        Worker count; ``None`` defers to ``detector.n_jobs``. Without an
        explicit ``executor`` the series run one after another on this
        thread and ``n_jobs`` counts each clone's member threads
        (``1``: serial); with one it sizes a named backend. Parallel and
        serial results are identical.
    executor:
        A live :class:`~repro.core.executors.MemberExecutor` (reused, never
        closed here) or a backend name from
        :data:`~repro.core.executors.EXECUTOR_KINDS` (created and closed for
        this call). It carries whole series: a batch of one runs here, its
        members on :func:`~repro.core.executors.member_jobs` threads, and
        never touches it. Results are identical across backends.
    labels:
        Optional per-series labels (file paths, ids); a failing series
        raises :class:`BatchItemError` carrying its index and label.
    seeds:
        Optional explicit per-series seeds (one per series) overriding the
        spawn-from-``detector.seed`` derivation; see
        :func:`iter_detect_batch`.
    return_exceptions:
        When true, a failing series fills its result slot with the
        :class:`BatchItemError` instead of aborting the batch; every other
        series still completes.

    Returns
    -------
    list[list[Anomaly]]
        One ranked candidate list per input series, in input order.
    """
    pairs = list(
        iter_detect_batch(
            detector,
            series_iterable,
            k,
            n_jobs=n_jobs,
            executor=executor,
            labels=labels,
            seeds=seeds,
            return_exceptions=return_exceptions,
        )
    )
    results: list[list] = [None] * len(pairs)  # type: ignore[list-item]
    for index, anomalies in pairs:
        results[index] = anomalies
    return results


