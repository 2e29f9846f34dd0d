"""Streaming grammar-induction anomaly detection (extension).

The paper motivates grammar induction by its linear time complexity for
large-scale data; Sequitur is naturally *incremental*, so the pipeline
extends to streams. The streaming path is built on the execution engine
(:mod:`repro.core.engine`): every arriving chunk lands in one
:class:`~repro.core.engine.SharedStreamState` — a numpy-backed buffer with
running prefix sums — and ``extend()`` drains all newly completed windows
into every member in one native call per block: one z-normalized PAA and
breakpoint-search pass per distinct PAA size, then each member's
numerosity-kept tokens into its log. Snapshotting at any moment yields the
rule density curve over the live range of the stream.

:class:`StreamingGrammarDetector` is one such live member;
:class:`StreamingEnsembleDetector` maintains a fixed parameter bag of
members over the *same shared stream state* (memory O(stream + N·w) rather
than N copies of the stream) and combines their snapshot curves exactly as
Algorithm 1 does (std filter -> max-normalize -> median).

Every member, under every policy, runs on the native token log and
Sequitur arenas of :mod:`repro.grammar._kernel`: a detector drains all its
members (and prunes them to the horizon) in one native call per block
(:class:`_Drain`; a lone member is an ensemble of one) and polls them all
in one call. The parity suites compare its polls with the
pure-Python pipeline of ``tests/oracles/`` (numpy SAX, word-fed Sequitur
over the live tokens, one grammar per decay generation).

Bounded-memory streaming
------------------------
By default the stream state (and every member's token log and grammar)
grows with the stream — the batch-parity mode, where feeding a whole series
point-by-point or in arbitrary chunks produces exactly the same density
curve as the batch detector (covered by the streaming-parity tests, which
are the contract).

``capacity=`` turns on eviction for infinite streams: the state becomes a
compacting ring buffer retiring points past the horizon, members prune
tokens whose windows slid out, and grammars forget accordingly. Memory is
O(capacity + N·w) regardless of stream length. Two policies:

- ``policy="sliding"`` (exact): the horizon is exactly the last
  ``capacity`` points. Window discretization and the kept-token stream stay
  bitwise identical to the unbounded path inside the horizon (the state
  keeps the absolute prefix sums), and each snapshot's grammar is the one
  induced over exactly the live tokens — equivalently, every token whose
  window slid out has been un-ingested. (A poll feeds the member's arena
  only the new tokens while none was pruned, and rebuilds it over the live
  ones after a prune; see :class:`~repro.grammar._kernel.TokenLog`.)
  Density is renormalized over the live horizon only.
- ``policy="decay"`` (approximate, amortized): the token log routes each
  kept token, in the ingest call, to a generation of ``generation_size``
  window offsets with its own incremental Sequitur arena; the first token
  of a later generation seals the open one, keeping only its occurrence
  spans and rule counts. The horizon advances in generation steps and
  expired generations are dropped wholesale into the retirement counters
  (:attr:`StreamingGrammarDetector.retired_generations` and its siblings).
  A poll walks only the open generation's spans and sums one density curve
  per live generation, at the cost of two relaxed guarantees: retention
  overshoots the horizon by up to one generation, and rules never span a
  generation boundary.

Bounded detectors report anomalies in *absolute* stream positions; their
``density_curve()`` covers ``[horizon_start, len(stream))``.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

import numpy as np

from repro.core.anomaly import Anomaly, extract_candidates
from repro.core.combiners import COMBINERS, combine_members
from repro.core.engine import EVICTION_POLICIES, SharedStreamState
from repro.grammar import _kernel
from repro.obs.stages import merge, stage_timer
from repro.sax._kernel import window_stats
from repro.sax.alphabet import WordInterner
from repro.sax.numerosity import STRATEGIES, TokenSequence
from repro.sax.plan import DiscretizationPlan
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import (
    validate_alphabet_size,
    validate_paa_size,
    validate_window,
)

#: Window starts discretized per drain block — bounds the transient
#: interval matrix even when one huge chunk arrives, so bounded-memory
#: streams stay bounded during ingest as well as between chunks.
_DRAIN_BLOCK = 65_536

#: Dead tokens tolerated at the front of a member's token log before they
#: are physically dropped (amortized O(1) per token).
_PRUNE_SLACK = 1024

#: Version of the in-memory session-snapshot structure produced by
#: :meth:`StreamingEnsembleDetector.snapshot`. Bumped on any incompatible
#: change; :meth:`StreamingEnsembleDetector.restore` rejects other versions
#: with :class:`SnapshotVersionError` instead of producing garbage.
SNAPSHOT_STATE_VERSION = 1

#: The ``format`` tag stamped into every session snapshot.
SNAPSHOT_FORMAT = "repro-session"


class SnapshotVersionError(ValueError):
    """A snapshot's format/version is not one this build can restore."""


def _make_state(
    capacity: int | None,
    policy: str,
    segments: int,
    window: int,
) -> SharedStreamState:
    """Build (and validate) the stream state for a detector's parameters."""
    if capacity is not None and int(capacity) < int(window):
        raise ValueError(
            f"capacity={capacity} is smaller than one window ({window}); "
            "at least one complete window must stay inside the horizon"
        )
    return SharedStreamState(capacity, policy=policy, segments=segments)


class StreamingGrammarDetector:
    """One live grammar-induction pipeline over a growing series.

    Parameters
    ----------
    window, paa_size, alphabet_size:
        The discretization of this member (fixed for the stream's life).
    znorm_threshold:
        Constant-window guard, as in the batch pipeline.
    numerosity:
        Reduction strategy (``"exact"`` or ``"none"``), as in the batch
        pipeline.
    capacity, policy, segments:
        Bounded-memory streaming (see the module docstring): ``capacity``
        bounds retention to (at least) the last ``capacity`` points and must
        be at least ``window``; ``policy`` picks exact ``"sliding"`` or
        generation-``"decay"`` grammar forgetting. Only valid when the
        member owns its state (otherwise the shared state's configuration
        governs).
    state:
        Optional :class:`~repro.core.engine.SharedStreamState` to attach to.
        When given, this member holds *no* copy of the stream — it only
        tracks its own grammar — and ingestion is driven by the state's
        owner (see :class:`StreamingEnsembleDetector`); ``append``/``extend``
        on the member itself are disabled. When omitted, the member owns a
        private state and is fed directly.

    Example
    -------
    >>> import numpy as np
    >>> detector = StreamingGrammarDetector(window=50, paa_size=4, alphabet_size=4)
    >>> for value in np.sin(np.linspace(0, 40 * np.pi, 2000)):
    ...     detector.append(float(value))
    >>> len(detector.density_curve()) == 2000
    True
    """

    def __init__(
        self,
        window: int,
        paa_size: int = 4,
        alphabet_size: int = 4,
        *,
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
        numerosity: str = "exact",
        capacity: int | None = None,
        policy: str | None = None,
        segments: int | None = None,
        state: SharedStreamState | None = None,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        if numerosity not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {numerosity!r}; expected one of {STRATEGIES}"
            )
        self.window = int(window)
        self.paa_size = validate_paa_size(paa_size, self.window)
        self.alphabet_size = validate_alphabet_size(alphabet_size)
        self.znorm_threshold = float(znorm_threshold)
        self.numerosity = numerosity
        self._owns_state = state is None
        if state is None:
            state = _make_state(
                capacity,
                "sliding" if policy is None else policy,
                4 if segments is None else segments,
                self.window,
            )
        elif capacity is not None or policy is not None or segments is not None:
            raise ValueError(
                "capacity/policy/segments belong to the stream state; a member "
                "attached to a shared state inherits its eviction configuration"
            )
        elif state.capacity is not None and state.capacity < self.window:
            raise ValueError(
                f"shared state capacity={state.capacity} is smaller than one "
                f"window ({self.window})"
            )
        self.state = state
        #: Single-member discretization plan: with ``amin == amax == a`` the
        #: merged table *is* ``gaussian_breakpoints(a)`` and ``symbols_for``
        #: is the identity column, so the shared sweep is bitwise equal to
        #: the historical direct ``searchsorted`` against the member table.
        self._plan = DiscretizationPlan(
            self.window,
            [(self.paa_size, self.alphabet_size)],
            znorm_threshold=self.znorm_threshold,
            min_alphabet_size=self.alphabet_size,
        )
        #: Distinct words ever seen, each with a stable id; word strings are
        #: materialized only at snapshot boundaries (frozen grammars,
        #: snapshot export, ``tokens()``).
        self._interner = WordInterner()
        #: The kept tokens (ids against the interner, window offsets), the
        #: carried symbol row, the cursor, the live boundary and prune
        #: counter, and the arena over the live ids (or, under decay, the
        #: generations): native memory, touched by one call per drain
        #: block and one per poll.
        self._log = self._new_log()
        #: This member's drain when it owns its state (an ensemble drains
        #: the members attached to its state).
        self._drainer = self._new_drain()
        #: Last snapshot curve, keyed by the shared state's version counter:
        #: repeated ``density_curve()`` polls without new data are O(1).
        self._curve_cache: tuple[int, np.ndarray] | None = None

    def _new_log(self) -> _kernel.TokenLog:
        """An empty token log, with generations under the decay policy."""
        return _kernel.TokenLog(self.paa_size, self.state.generation_size or 0)

    def _new_drain(self) -> "_Drain | None":
        """The drain of this member alone, or ``None`` on a shared state."""
        if not self._owns_state:
            return None
        return _Drain(self.state, self._plan, [self], self.numerosity)

    def __len__(self) -> int:
        return len(self.state)

    @property
    def _consumed(self) -> int:
        """Window starts already discretized and logged (the log's cursor)."""
        return self._log.consumed

    @property
    def bounded(self) -> bool:
        """Whether this member runs with a retention horizon."""
        return self.state.capacity is not None

    @property
    def horizon_start(self) -> int:
        """Global index of the first live stream point (0 when unbounded)."""
        return self.state.start

    @property
    def n_windows(self) -> int:
        """Completed sliding windows so far (global count)."""
        return self.state.n_windows(self.window)

    @property
    def n_tokens(self) -> int:
        """Live tokens (after reduction and any horizon pruning)."""
        return self._log.n_tokens

    @property
    def retired_tokens(self) -> int:
        """Tokens whose windows slid out of the horizon (0 when unbounded)."""
        return self._log.pruned

    @property
    def retired_generations(self) -> int:
        """Decay generations dropped wholesale by the horizon (0 otherwise)."""
        return self._log.retired[0]

    @property
    def retired_rules(self) -> int:
        """Rules (R0 excluded) dropped with their decay generations."""
        return self._log.retired[2]

    @property
    def retired_rule_refs(self) -> int:
        """Summed reference counts of :attr:`retired_rules` (each at least 2,
        by rule utility)."""
        return self._log.retired[3]

    def memory_bytes(self) -> int:
        """This member's retained bytes, from native capacities where it has them.

        The interner (a native table with one entry per *distinct* word ever
        seen, plus the word strings read so far) and the token log (12 B per
        token slot, the carried row, the arena and, under decay, the open
        generation's arena plus the sealed generations' spans, all from
        their capacities: exact) — *excluding* the shared stream state,
        which is stored once per stream and accounted separately via
        :attr:`~repro.core.engine.SharedStreamState.nbytes`. This is what
        the serving layer's session memory budget accounts against.
        """
        return self._interner.memory_bytes() + self._log.memory_bytes()

    def _require_owned_state(self) -> None:
        if not self._owns_state:
            raise ValueError(
                "this member shares its stream state; feed the owning "
                "ensemble instead of the member"
            )

    def append(self, value: float) -> None:
        """Consume one observation; amortized O(w)."""
        self._require_owned_state()
        self.state.append(value)
        self._drain()

    def extend(self, values) -> None:
        """Consume a batch of observations in one vectorized pass."""
        self._require_owned_state()
        self.state.extend(values)
        self._drain()

    def _drain(self) -> None:
        """Log every completed-but-unseen window and advance the horizon.

        The member drains as an ensemble of one: one native call per block
        of at most :data:`_DRAIN_BLOCK` window starts, the last of which
        also forgets what slid out of the horizon (see :class:`_Drain`).
        """
        self._drainer()

    # ------------------------------------------------------------------
    # Snapshot / restore (serialization).
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Serializable state of this member (shared stream excluded).

        Holds the live kept tokens (as interned ids + window offsets, copied
        out of the log), the vocabulary that gives those ids meaning, and
        the ingest cursor. Grammar arenas and generations are deliberately
        *not* exported: a grammar is a deterministic function of the token
        sequence fed to it, so :meth:`_restore_state` rebuilds them from the
        live ids — smaller snapshots, and no arena structures on the wire.
        """
        ids, offsets = self._log.tokens()
        return {
            "paa_size": int(self.paa_size),
            "alphabet_size": int(self.alphabet_size),
            "consumed": int(self._consumed),
            "last_symbols": self._log.carry,
            "vocabulary": list(self._interner.vocabulary),
            "kept_ids": ids,
            "kept_offsets": offsets,
            "total_kept": int(self._log.kept),
            "total_pruned": int(self._log.pruned),
        }

    def _restore_state(self, data: dict) -> None:
        """Install :meth:`export_state` output into a freshly built member.

        The member must already be attached to the restored shared state and
        configured identically (window, sizes, numerosity); its cursor must
        lie between the state's horizon and its completed windows. The live tokens
        are loaded into the log, whose arena (unbounded and sliding) is
        rebuilt over them at the next poll: unbounded members never prune,
        so their live tokens are the complete fed sequence. A decay log
        routes them to its generations again in the same call (pure offset
        routing, so generations re-seal at identical boundaries); its
        retirement counters restart at zero, as they are not live state.
        """
        if int(data["paa_size"]) != self.paa_size or int(data["alphabet_size"]) != self.alphabet_size:
            raise ValueError(
                f"member snapshot is for (w={data['paa_size']}, a={data['alphabet_size']}), "
                f"not (w={self.paa_size}, a={self.alphabet_size})"
            )
        self._interner = WordInterner.from_vocabulary(data["vocabulary"])
        ids = np.asarray(data["kept_ids"], dtype=np.int64).ravel()
        offsets = np.asarray(data["kept_offsets"], dtype=np.int64).ravel()
        if len(ids) != len(offsets):
            raise ValueError(
                f"member snapshot holds {len(ids)} ids but {len(offsets)} offsets"
            )
        if len(ids) and (ids.min() < 0 or ids.max() >= len(self._interner.vocabulary)):
            raise ValueError("member snapshot token ids fall outside its vocabulary")
        pruned = int(data["total_pruned"])
        if int(data["total_kept"]) != pruned + len(ids):
            raise ValueError(
                f"member snapshot counts {data['total_kept']} kept and {pruned} pruned "
                f"tokens but holds {len(ids)} live ones"
            )
        consumed = int(data["consumed"])
        if consumed < (int(offsets[-1]) + 1 if len(offsets) else 0):
            raise ValueError(
                f"member snapshot cursor {consumed} lies before its last token's window"
            )
        if not self.state.start <= consumed <= self.n_windows:
            raise ValueError(
                f"member snapshot cursor {consumed} lies outside the stream's windows "
                f"[{self.state.start}, {self.n_windows}]"
            )
        last = data["last_symbols"]
        self._log = self._new_log()
        self._log.load(
            ids, offsets, None if last is None else np.asarray(last), pruned, consumed
        )
        self._drainer = self._new_drain()
        self._curve_cache = None

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------

    def _live_tokens(self) -> tuple[tuple[str, ...], np.ndarray]:
        vocabulary = self._interner.vocabulary
        ids, offsets = self._log.tokens()
        return tuple(vocabulary[i] for i in ids.tolist()), offsets

    def tokens(self) -> TokenSequence:
        """Snapshot of the live numerosity-reduced token sequence.

        Unbounded members return every token seen; bounded members return
        the tokens whose windows start inside the horizon — exactly the
        unbounded token stream restricted to ``offset >= horizon_start``.
        """
        if self.n_windows == 0:
            raise ValueError(
                f"no complete window yet ({len(self.state)} of {self.window} points)"
            )
        words, offsets = self._live_tokens()
        if not words:
            raise ValueError(
                "no live tokens: every kept word's window starts before the "
                f"eviction horizon {self.state.start}"
            )
        return TokenSequence(words, offsets, self.n_windows, self.window)

    def density_curve(self) -> np.ndarray:
        """Rule density curve over the live stream range (snapshot).

        Unbounded: the full-stream curve, bitwise equal to the batch
        pipeline's. Bounded: the curve over ``[horizon_start, len(self))``
        — index ``i`` covers absolute point ``horizon_start + i`` — built
        from the live tokens only and renormalized over the live horizon.

        A member polls in one native call
        (:meth:`~repro.grammar._kernel.TokenLog.curve`), whose phase
        counters are charged to the ``grammar`` (feed and spans) and
        ``density`` stages here.

        The last snapshot is memoized keyed on the shared state's
        :attr:`~repro.core.engine.SharedStreamState.version`, so repeated
        polls without new data return the cached curve without re-inducing
        anything. The returned array is the cached object — treat it as
        read-only.
        """
        if self.n_windows == 0:
            raise ValueError(
                f"no complete window yet ({len(self.state)} of {self.window} points)"
            )
        version = self.state.version
        if self._curve_cache is not None and self._curve_cache[0] == version:
            return self._curve_cache[1]
        curve, phase_ns = self._log.curve(self.window, self.state.start, self.state.live_length)
        merge(_poll_stage_times(phase_ns))
        self._curve_cache = (version, curve)
        return curve

    def detect(self, k: int = 3) -> list[Anomaly]:
        """Top-``k`` anomalies over the live stream range.

        Positions are absolute stream indices (a bounded member's curve
        starts at :attr:`horizon_start`, and candidates are shifted back).
        """
        curve = self.density_curve()
        candidates = extract_candidates(curve, self.window, k, minimize=True)
        start = self.state.start
        if start:
            candidates = [replace(a, position=a.position + start) for a in candidates]
        return candidates


class _Drain:
    """The one drain path of a detector's members: one native call per block.

    Built once per detector (and again by a restore) over its stream
    state, its discretization plan and its members: a
    :class:`~repro.grammar._kernel.LogDrain` holding every member's log,
    row table, PAA-size index and alphabet column, checked once. A call
    drains every completed window some member has not logged yet, in blocks
    of at most :data:`_DRAIN_BLOCK` window starts: numpy window statistics
    (:func:`~repro.sax._kernel.window_stats`, bitwise the reference's),
    then one native call that discretizes the block once per distinct PAA
    size and logs it into every member from the member's own cursor; the
    last block's call also prunes every log to the horizon the state then
    trims to. A block is charged to ``paa`` (the statistics plus the
    native passes), ``discretize`` and, under the decay policy, ``grammar``:
    one observation each.

    A call that raises (a member's log or table could not grow) leaves the
    members it reached holding the block and the state untrimmed; the next
    call starts from the lowest cursor, so a session that recovers is
    bitwise one that never failed. A decay member whose generation feed
    ran out of memory is the exception: it holds the block but its
    generations are lost, so every later call raises :class:`RuntimeError`
    until the session is restored from a snapshot (see
    :class:`~repro.grammar._kernel.TokenLog`).
    """

    __slots__ = ("state", "window", "znorm_threshold", "_call", "_logs", "_next", "_decay")

    def __init__(self, state: SharedStreamState, plan: DiscretizationPlan, members, numerosity):
        self.state = state
        self.window = plan.window
        self.znorm_threshold = plan.znorm_threshold
        paa_sizes = sorted({member.paa_size for member in members})
        # Members grouped by PAA size, so each interval matrix serves a run.
        members = sorted(members, key=lambda member: member.paa_size)
        self._logs = [member._log for member in members]
        self._call = _kernel.LogDrain(
            plan.window,
            plan.breakpoint_search,
            paa_sizes,
            self._logs,
            [member._interner for member in members],
            [paa_sizes.index(member.paa_size) for member in members],
            [plan.alphabet_table.symbol_column(member.alphabet_size) for member in members],
            reduce=numerosity == "exact",
            slack=_PRUNE_SLACK,
        )
        #: The lowest member cursor, or ``None`` after a failed call.
        self._next: int | None = None
        self._decay = state.generation_size is not None

    def __call__(self) -> None:
        state, window = self.state, self.window
        n_windows = state.n_windows(window)
        first = self._next
        if first is None:
            first = self._next = min(log.consumed for log in self._logs)
        bounded = state.capacity is not None
        horizon = state.trim_target() if bounded else 0
        prefix_sum, prefix_sq, values, origin = state.buffers()
        while first < n_windows:
            stop = min(first + _DRAIN_BLOCK, n_windows)
            started = perf_counter()
            stats = window_stats(
                prefix_sum, prefix_sq, first, stop, window, self.znorm_threshold, origin=origin
            )
            stats_s = perf_counter() - started
            self._next = None
            paa, discretize, grammar = self._call(
                prefix_sum, values, origin, first, stop, stats, horizon if stop == n_windows else 0
            )
            self._next = first = stop
            times = {"paa": stats_s + paa * 1e-9, "discretize": discretize * 1e-9}
            if self._decay:
                times["grammar"] = grammar * 1e-9
            merge(times)
        if bounded:
            state.trim()


def _poll_stage_times(phase_ns) -> dict[str, float]:
    """Seconds per stage from :meth:`~repro.grammar._kernel.TokenLog.curve`'s
    feed, spans and density counters."""
    feed, spans, density = phase_ns
    return {"grammar": (feed + spans) * 1e-9, "density": density * 1e-9}


class StreamingEnsembleDetector:
    """Algorithm 1 over a stream: N live members on one shared stream state.

    Parameters mirror :class:`repro.core.ensemble.EnsembleGrammarDetector`
    (including ``znorm_threshold`` and ``numerosity``, so a streaming
    ensemble configured like a batch one produces the *same* curve); the
    ``(w, a)`` bag is sampled once at construction (a stream has one life,
    so the sample is fixed up front). ``capacity``/``policy``/``segments``
    turn on bounded-memory streaming for infinite inputs (see the module
    docstring); ``capacity`` must be at least ``window``.

    All members reference a single :class:`~repro.core.engine.SharedStreamState`
    — the stream is stored once, not per member — and ``extend()`` ingests
    each chunk with one PAA/interval pass per distinct PAA size, shared by
    every member of that size via the merged breakpoint table.

    Each member keeps its kept tokens and live grammar (under decay, its
    generations) in one native token log
    (:class:`~repro.grammar._kernel.TokenLog`), and a drain block of the
    whole ensemble, passes, ingests and horizon included, is one native
    call. An ensemble poll polls every due member, under every policy, in
    one native call (:func:`~repro.grammar._kernel.poll_logs`) on the
    calling thread, which charges their phase counters to the ``grammar``
    and ``density`` stages.

    A streaming ensemble takes no executor: the live token logs never leave
    this process, and one native poll of every due member here beats one
    pool task per member (see ``docs/streaming.md``). Ingest is one call
    per block.
    """

    def __init__(
        self,
        window: int,
        *,
        max_paa_size: int = 10,
        max_alphabet_size: int = 10,
        ensemble_size: int = 20,
        selectivity: float = 0.4,
        combiner: str = "median",
        numerosity: str = "exact",
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
        capacity: int | None = None,
        policy: str = "sliding",
        segments: int = 4,
        seed: RandomState = None,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        window = int(window)
        max_paa_size = validate_paa_size(max_paa_size, window)
        max_alphabet_size = validate_alphabet_size(max_alphabet_size)
        if ensemble_size < 1:
            raise ValueError(f"ensemble_size must be positive, got {ensemble_size}")
        if not 0.0 < selectivity <= 1.0:
            raise ValueError(f"selectivity must be in (0, 1], got {selectivity}")
        if combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {combiner!r}; expected one of {COMBINERS}")
        self.window = window
        self.max_paa_size = max_paa_size
        self.max_alphabet_size = max_alphabet_size
        self.selectivity = float(selectivity)
        self.combiner = combiner
        self.numerosity = numerosity
        self.znorm_threshold = float(znorm_threshold)
        rng = ensure_rng(seed)
        pool = [
            (int(w), int(a))
            for w in range(2, max_paa_size + 1)
            for a in range(2, max_alphabet_size + 1)
        ]
        count = min(int(ensemble_size), len(pool))
        chosen = rng.choice(len(pool), size=count, replace=False)
        self.parameters = [pool[int(i)] for i in chosen]
        self.ensemble_size = len(self.parameters)
        #: The single stream buffer every member references.
        self.state = _make_state(capacity, policy, segments, window)
        #: Shared multi-window discretization plan: one sweep per drained
        #: block serves every member (PAA per distinct paa_size, one merged
        #: binary search, per-member symbol lookup).
        self._plan = DiscretizationPlan(
            window,
            self.parameters,
            znorm_threshold=self.znorm_threshold,
            max_alphabet_size=max_alphabet_size,
        )
        self.members = [
            StreamingGrammarDetector(
                window,
                w,
                a,
                znorm_threshold=self.znorm_threshold,
                numerosity=self.numerosity,
                state=self.state,
            )
            for w, a in self.parameters
        ]
        #: The one drain of every member.
        self._drainer = _Drain(self.state, self._plan, self.members, self.numerosity)
        #: Snapshot memoization keyed by the state's version counter: the
        #: combined ensemble curve, and the last ``detect(k)`` result, so
        #: high-frequency polling without new data is O(1).
        self._curve_cache: tuple[int, np.ndarray] | None = None
        self._detect_cache: tuple[int, int, list] | None = None

    def __len__(self) -> int:
        return len(self.state)

    @property
    def bounded(self) -> bool:
        """Whether the ensemble runs with a retention horizon."""
        return self.state.capacity is not None

    @property
    def horizon_start(self) -> int:
        """Global index of the first live stream point (0 when unbounded)."""
        return self.state.start

    def append(self, value: float) -> None:
        """Feed one observation to the shared state (and every member)."""
        self.state.append(value)
        self._drain()

    def extend(self, values) -> None:
        """Feed a chunk of observations in one vectorized pass."""
        self.state.extend(values)
        self._drain()

    def _drain(self) -> None:
        """Log every completed window into every member, then advance the horizon.

        One native call per block of at most :data:`_DRAIN_BLOCK` window
        starts (see :class:`_Drain`): one PAA and interval pass per distinct
        PAA size, every member's ingest from its own cursor and, in the
        last block's call, every member's forgetting of what slid out of
        the horizon.
        """
        self._drainer()

    def _poll_due_members(self) -> None:
        """Cache the curve of every due member, from one native call.

        The due members' logs go to :func:`~repro.grammar._kernel.poll_logs`
        together; this thread then installs the curves in the members'
        caches (where :meth:`density_curve` finds them) and charges each
        member's phase counters to its stages and captures.
        """
        state = self.state
        if not state.n_windows(self.window):
            return  # every member raises its "no complete window" error
        version = state.version
        due = [
            member
            for member in self.members
            if member._curve_cache is None or member._curve_cache[0] != version
        ]
        if not due:
            return
        polls = _kernel.poll_logs(
            [member._log for member in due], self.window, state.start, state.live_length
        )
        for member, (curve, phase_ns) in zip(due, polls):
            member._curve_cache = (version, curve)
            merge(_poll_stage_times(phase_ns))

    def memory_bytes(self) -> int:
        """O(1) estimate of the bytes this ensemble retains.

        The shared stream buffers (stored once, referenced by every member)
        plus each member's :meth:`StreamingGrammarDetector.memory_bytes` —
        the quantity the serving layer's global session memory budget sums
        over its live sessions.
        """
        return self.state.nbytes + sum(member.memory_bytes() for member in self.members)

    # ------------------------------------------------------------------
    # Snapshot / restore (serialization).
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Versioned, self-describing state of this live ensemble.

        The returned dict holds JSON scalars plus numpy arrays (the wire
        encoding lives in :mod:`repro.service.snapshot`): the construction
        configuration, the *sampled* ``(w, a)`` bag (so restore never
        re-samples), the shared stream state with its absolute prefix sums,
        and each member's live tokens. :meth:`restore` rebuilds a detector
        whose every future ``extend``/``detect`` is bitwise identical to
        the original's — the crash-recovery contract of the serving tier.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "state_version": SNAPSHOT_STATE_VERSION,
            "config": {
                "window": int(self.window),
                "max_paa_size": int(self.max_paa_size),
                "max_alphabet_size": int(self.max_alphabet_size),
                "selectivity": float(self.selectivity),
                "combiner": self.combiner,
                "numerosity": self.numerosity,
                "znorm_threshold": float(self.znorm_threshold),
                "capacity": self.state.capacity,
                "policy": self.state.policy,
                "segments": int(self.state.segments),
            },
            "parameters": [[int(w), int(a)] for w, a in self.parameters],
            "stream": self.state.export_state(),
            "members": [member.export_state() for member in self.members],
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "StreamingEnsembleDetector":
        """Rebuild a live ensemble from :meth:`snapshot` output.

        Grammars are replayed from the live token ids, so the results are
        bitwise identical to the snapshotting process's. A ``"kernel"``
        field, which older builds wrote, is ignored. A snapshot from a
        different ``state_version`` raises :class:`SnapshotVersionError` —
        a clear rejection, never garbage output.
        """
        if not isinstance(snapshot, dict) or snapshot.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotVersionError(
                f"not a {SNAPSHOT_FORMAT} snapshot "
                f"(format={snapshot.get('format')!r})"
                if isinstance(snapshot, dict)
                else f"not a {SNAPSHOT_FORMAT} snapshot"
            )
        version = snapshot.get("state_version")
        if version != SNAPSHOT_STATE_VERSION:
            raise SnapshotVersionError(
                f"snapshot state_version {version!r} is not supported by this "
                f"build (supports {SNAPSHOT_STATE_VERSION}); re-snapshot the "
                "session with a matching version"
            )
        config = snapshot["config"]
        parameters = [(int(w), int(a)) for w, a in snapshot["parameters"]]
        member_states = snapshot["members"]
        if len(parameters) != len(member_states):
            raise ValueError(
                f"snapshot holds {len(parameters)} parameter pairs but "
                f"{len(member_states)} member states"
            )
        instance = cls.__new__(cls)
        instance.window = int(config["window"])
        instance.max_paa_size = validate_paa_size(config["max_paa_size"], instance.window)
        instance.max_alphabet_size = validate_alphabet_size(config["max_alphabet_size"])
        instance.selectivity = float(config["selectivity"])
        instance.combiner = str(config["combiner"])
        if instance.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {instance.combiner!r}")
        instance.numerosity = str(config["numerosity"])
        if instance.numerosity not in STRATEGIES:
            raise ValueError(f"unknown strategy {instance.numerosity!r}")
        instance.znorm_threshold = float(config["znorm_threshold"])
        instance.parameters = parameters
        instance.ensemble_size = len(parameters)
        instance.state = SharedStreamState.from_state(snapshot["stream"])
        instance._plan = DiscretizationPlan(
            instance.window,
            parameters,
            znorm_threshold=instance.znorm_threshold,
            max_alphabet_size=instance.max_alphabet_size,
        )
        instance.members = []
        for (w, a), data in zip(parameters, member_states):
            member = StreamingGrammarDetector(
                instance.window,
                w,
                a,
                znorm_threshold=instance.znorm_threshold,
                numerosity=instance.numerosity,
                state=instance.state,
            )
            member._restore_state(data)
            instance.members.append(member)
        instance._drainer = _Drain(
            instance.state, instance._plan, instance.members, instance.numerosity
        )
        instance._curve_cache = None
        instance._detect_cache = None
        return instance

    def density_curve(self) -> np.ndarray:
        """Ensemble rule density curve over the live stream range.

        Bounded ensembles return the curve over ``[horizon_start,
        len(self))``; index ``i`` covers absolute point
        ``horizon_start + i``.

        The combined curve is memoized keyed on the shared state's
        :attr:`~repro.core.engine.SharedStreamState.version`: polling
        without new data returns the cached array (treat it as read-only)
        without touching the members. Parity is unaffected
        — the cache only ever replays a value the uncached path computed.
        """
        version = self.state.version
        if self._curve_cache is not None and self._curve_cache[0] == version:
            return self._curve_cache[1]
        self._poll_due_members()
        curves = [member.density_curve() for member in self.members]
        with stage_timer("combine"):
            curve, _ = combine_members(curves, selectivity=self.selectivity, combiner=self.combiner)
        self._curve_cache = (version, curve)
        return curve

    def detect(self, k: int = 3) -> list[Anomaly]:
        """Top-``k`` anomalies over the live stream range (absolute positions).

        Repeated polls without new data are O(1): the result is memoized
        keyed on ``(state.version, k)`` on top of the curve memoization.
        """
        validate_window(self.window, self.state.live_length)
        version = self.state.version
        k = int(k)
        if self._detect_cache is not None and self._detect_cache[:2] == (version, k):
            return list(self._detect_cache[2])
        curve = self.density_curve()
        candidates = extract_candidates(curve, self.window, k, minimize=True)
        start = self.state.start
        if start:
            candidates = [replace(a, position=a.position + start) for a in candidates]
        self._detect_cache = (version, k, candidates)
        return list(candidates)


__all__ = [
    "EVICTION_POLICIES",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_STATE_VERSION",
    "SnapshotVersionError",
    "StreamingEnsembleDetector",
    "StreamingGrammarDetector",
]
