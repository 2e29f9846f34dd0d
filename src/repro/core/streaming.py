"""Streaming grammar-induction anomaly detection (extension).

The paper motivates grammar induction by its linear time complexity for
large-scale data; Sequitur is naturally *incremental*, so the pipeline
extends to streams. The streaming path is built on the execution engine
(:mod:`repro.core.engine`): every arriving chunk lands in one
:class:`~repro.core.engine.SharedStreamState` — a numpy-backed buffer with
running prefix sums — and ``extend()`` computes all newly completed windows'
z-normalized PAA rows and SAX symbols in one vectorized pass per distinct
PAA size, feeding only the numerosity-kept words to each live member.
Snapshotting at any moment yields the rule density curve over the live
range of the stream.

:class:`StreamingGrammarDetector` is one such live member;
:class:`StreamingEnsembleDetector` maintains a fixed parameter bag of
members over the *same shared stream state* (memory O(stream + N·w) rather
than N copies of the stream) and combines their snapshot curves exactly as
Algorithm 1 does (std filter -> max-normalize -> median).

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
- ``policy="decay"`` (approximate, amortized): tokens are segmented into
  generations (:class:`~repro.grammar.sequitur.GenerationalSequitur`), each
  with its own live incremental Sequitur builder; the horizon advances in
  generation steps and expired generations are dropped wholesale, rules
  retired by refcount. Snapshots reuse the frozen grammars of sealed
  generations (only the newest generation is re-frozen), at the cost of two
  relaxed guarantees: retention overshoots the horizon by up to one
  generation, and rules never span a generation boundary.

Bounded detectors report anomalies in *absolute* stream positions; their
``density_curve()`` covers ``[horizon_start, len(stream))``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.anomaly import Anomaly, extract_candidates
from repro.core.combiners import COMBINERS, combine_curves
from repro.core.engine import EVICTION_POLICIES, SharedStreamState
from repro.core.executors import ExecutorOwnerMixin, MemberExecutor
from repro.core.selection import normalize_curve, select_by_std
from repro.grammar import _kernel
from repro.grammar.density import density_curve_from_token_spans, rule_density_curve
from repro.grammar.sequitur import GenerationalSequitur, _SequiturBuilder
from repro.obs.stages import merge, stage_timer
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

#: Window starts discretized per drain block — bounds the transient PAA/
#: symbol matrices even when one huge chunk arrives, so bounded-memory
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
        #: Grammar kernel pinned at construction (see
        #: :mod:`repro.grammar._kernel`): a mid-stream ``REPRO_KERNEL``
        #: change must not mix kernels within one member's life.
        self._kernel = _kernel.current_kernel()
        #: Window starts already discretized and logged.
        self._consumed = 0
        #: Distinct words ever seen, each with a stable id; word strings are
        #: materialized only at snapshot boundaries (frozen grammars,
        #: snapshot export, ``tokens()``).
        self._interner = WordInterner()
        #: The kept tokens (ids against the interner, window offsets), the
        #: carried symbol row, the live boundary and prune counter, and the
        #: fast kernel's arena over the live ids: native memory, touched by
        #: one call per drain block, horizon advance and poll.
        self._log = _kernel.TokenLog(self.paa_size)
        #: Decay policy: generation-segmented builders dropped wholesale as
        #: the horizon passes them.
        self._generations: GenerationalSequitur | None = None
        #: Python kernel: the oracle builder over the live words, as
        #: ``(prune counter it was anchored at, builder, tokens fed)`` (see
        #: :meth:`_oracle_grammar`).
        self._oracle: tuple[int, _SequiturBuilder, int] | None = None
        #: Last snapshot curve, keyed by the shared state's version counter:
        #: repeated ``density_curve()`` polls without new data are O(1).
        self._curve_cache: tuple[int, np.ndarray] | None = None
        if self.state.capacity is not None and self.state.policy == "decay":
            self._generations = GenerationalSequitur(
                self.state.generation_size,
                kernel=self._kernel,
                vocabulary=self._interner.vocabulary,
            )
        #: Whether a poll is one native call (:meth:`TokenLog.curve`): the
        #: fast kernel, unbounded or sliding. An ensemble polls all of them
        #: in one call (:class:`StreamingEnsembleDetector`).
        self._one_call_poll = self._generations is None and self._kernel == "fast"

    def __len__(self) -> int:
        return len(self.state)

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

    def memory_bytes(self) -> int:
        """This member's retained bytes, from native capacities where it has them.

        The interner (a native table with one entry per *distinct* word ever
        seen, plus the word strings read so far), the token log (12 B per
        token slot, the carried row and the fast kernel's arena, all from
        their capacities: exact) and the decay generations — *excluding*
        the shared stream state, which is stored once per stream and
        accounted separately via
        :attr:`~repro.core.engine.SharedStreamState.nbytes`. The python
        kernel's oracle builder is estimated per fed token. This is what the
        serving layer's session memory budget accounts against.
        """
        total = self._interner.memory_bytes() + self._log.memory_bytes()
        if self._oracle is not None:
            # ~3 CPython symbol objects per fed token in the oracle.
            total += self._oracle[2] * 200
        if self._generations is not None:
            total += self._generations.memory_bytes()
        return total

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
        self._evict()

    def extend(self, values) -> None:
        """Consume a batch of observations in one vectorized pass."""
        self._require_owned_state()
        self.state.extend(values)
        self._drain()
        self._evict()

    def _drain(self) -> None:
        """Discretize every completed-but-unseen window and log the kept tokens.

        Runs in fixed-size blocks so the transient PAA/symbol matrices stay
        bounded no matter how large one chunk is; block boundaries are
        invisible to the result (numerosity reduction carries the last
        symbol row across them).
        """
        n_windows = self.state.n_windows(self.window)
        column = self._plan.alphabet_table.symbol_column(self.alphabet_size)
        while self._consumed < n_windows:
            stop = min(self._consumed + _DRAIN_BLOCK, n_windows)
            # The sweep fires the paa/discretize stage timers internally.
            sweep = self.state.sweep(self._plan, self._consumed, stop=stop)
            intervals = sweep.interval_rows(self.paa_size)
            with stage_timer("discretize"):
                kept = self._ingest_block(intervals, column, self._consumed)
            self._feed_generations(kept)

    def _evict(self) -> None:
        """Advance the retention horizon and forget what slid out."""
        if self.state.capacity is None:
            return
        start = self.state.trim()
        self._forget_before(start)

    def _forget_before(self, start: int) -> None:
        """Prune tokens whose window start precedes ``start`` (amortized O(1)).

        One native call: the log bisects its sorted offsets for the new live
        boundary and drops the dead prefix once it holds more than
        :data:`_PRUNE_SLACK` tokens and outweighs the live part. Under the
        decay policy, grammar generations that ended before ``start`` are
        dropped wholesale.
        """
        if start <= 0:
            return
        self._log.forget(start, _PRUNE_SLACK)
        if self._generations is not None:
            self._generations.drop_before(start)

    def _ingest_block(self, intervals: np.ndarray, column: np.ndarray, first_start: int) -> int:
        """Log one block of windows in one native call; returns the kept count.

        ``intervals`` holds one merged-table interval row per window start
        in ``first_start .. first_start + len(intervals) - 1``; ``column``
        maps them to this member's symbols. Two windows share a SAX word
        exactly when their symbol rows are equal, so the call
        (:meth:`~repro.sax.alphabet.WordInterner.intern_log`) looks the
        symbols up, drops each row equal to the one before it (the last row
        of the previous block is carried in the log), gives every kept row
        an id that stays stable across drains and appends ids and offsets
        to the log. A word string is built once per *distinct* row, ever,
        and only when the vocabulary is read.

        This is ``discretize`` time, as in batch ``token_ids``; the caller
        times it. Only the decay generations feed a grammar at ingest
        (:meth:`_feed_generations`); unbounded and sliding members induce
        at poll time.
        """
        kept = self._interner.intern_log(
            self._log, intervals, column, first_start, self.numerosity == "exact"
        )
        self._consumed = first_start + len(intervals)
        return kept

    def _feed_generations(self, kept: int) -> None:
        """Decay policy: feed the ``kept`` newest logged tokens to the generations.

        Generation boundaries are offset-driven, so the generations observe
        every token eagerly (``grammar`` time). A no-op for other members.
        """
        if self._generations is None or not kept:
            return
        # Generation routing can seal (and freeze) mid-ingest, and the
        # oracle kernel feeds word strings — both index the vocabulary list
        # the router captured at construction, so the words interned since
        # its last read must be decoded first.
        _ = self._interner.vocabulary
        ids, offsets = self._log.tokens(kept)
        feed_id = self._generations.feed_id
        with stage_timer("grammar"):
            for token_id, offset in zip(ids.tolist(), offsets.tolist()):
                feed_id(token_id, offset)

    # ------------------------------------------------------------------
    # Snapshot / restore (serialization).
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Serializable state of this member (shared stream excluded).

        Holds the live kept tokens (as interned ids + window offsets, copied
        out of the log), the vocabulary that gives those ids meaning, and
        the ingest cursors. Grammar builders are deliberately *not*
        exported: a grammar is a deterministic function of the token
        sequence fed to it, so :meth:`_restore_state` rebuilds them by
        replaying the live ids — smaller snapshots, no kernel-private
        structures on the wire, and restorability across grammar kernels
        (the kernel-equivalence contract makes the replayed grammars
        bitwise identical).
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
        configured identically (window, sizes, numerosity). The live tokens
        are loaded into the log, whose arena (unbounded and sliding) is
        rebuilt over them at the next poll: unbounded members never prune,
        so their live tokens are the complete fed sequence. Decay members
        replay through
        :meth:`~repro.grammar.sequitur.GenerationalSequitur.replay` (pure
        offset routing, so generations re-seal at identical boundaries).
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
        last = data["last_symbols"]
        self._log = _kernel.TokenLog(self.paa_size)
        self._log.load(ids, offsets, None if last is None else np.asarray(last), pruned)
        self._consumed = int(data["consumed"])
        self._oracle = None
        self._curve_cache = None
        if self._generations is not None:
            self._generations = GenerationalSequitur.replay(
                zip(ids.tolist(), offsets.tolist()),
                generation_size=self.state.generation_size,
                kernel=self._kernel,
                vocabulary=self._interner.vocabulary,
            )

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

    def _oracle_grammar(self):
        """Python kernel: the oracle grammar over exactly the live words.

        The same anchor rule as the fast kernel's native poll: while no
        token has been pruned since the builder was anchored, the live
        sequence has only grown at the right end, where Sequitur *is*
        incremental, so the builder is fed just the new words. Once the
        horizon has claimed tokens, the builder is rebuilt over the live
        words: O(live) work bounded by the capacity. Unbounded members never
        prune, so they always feed incrementally.
        """
        pruned = self._log.pruned
        ids = self._log.tokens()[0]
        if self._oracle is None or self._oracle[0] != pruned:
            self._oracle = (pruned, _SequiturBuilder(), 0)
        _, builder, fed = self._oracle
        vocabulary = self._interner.vocabulary
        for token_id in ids[fed:].tolist():
            builder.feed(vocabulary[token_id])
        self._oracle = (pruned, builder, len(ids))
        return builder.freeze()

    def density_curve(self) -> np.ndarray:
        """Rule density curve over the live stream range (snapshot).

        Unbounded: the full-stream curve, bitwise equal to the batch
        pipeline's. Bounded: the curve over ``[horizon_start, len(self))``
        — index ``i`` covers absolute point ``horizon_start + i`` — built
        from the live tokens only and renormalized over the live horizon.

        Under the fast kernel an unbounded or sliding member polls in one
        native call (:meth:`~repro.grammar._kernel.TokenLog.curve`), whose
        phase counters are charged to the ``grammar`` (feed and spans) and
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
        if self._one_call_poll:
            curve, phase_ns = self._log.curve(
                self.window, self.state.start, self.state.live_length
            )
            merge(_poll_stage_times(phase_ns))
        else:
            curve = self._reference_curve()
        self._curve_cache = (version, curve)
        return curve

    def _reference_curve(self) -> np.ndarray:
        """The snapshot curve of the python kernel and of decay members.

        The oracle kernel takes the reference route (freeze to a
        :class:`~repro.grammar.rules.Grammar`, then
        :func:`rule_density_curve`); decay members under the fast kernel
        read each generation's occurrence spans off its builder arena.
        Every route ends in the same integer scatter-add over the same
        interval multiset as :meth:`TokenLog.curve`, so all are bitwise
        identical.
        """
        start = self.state.start
        length = self.state.live_length
        if self.n_tokens == 0:
            # Every kept token expired (e.g. one constant run spanning the
            # whole horizon): no rules, zero density everywhere.
            return np.zeros(length, dtype=np.float64)
        if self._generations is None:
            with stage_timer("grammar"):
                grammar = self._oracle_grammar()
            with stage_timer("density"):
                return rule_density_curve(grammar, self.tokens(), length, horizon_start=start)
        with stage_timer("density"):
            if self._kernel == "python":
                words, offsets = self._live_tokens()
                tokens = TokenSequence(words, offsets, self.n_windows, self.window)
                return _generation_density(
                    self._generations.live_grammars(),
                    words,
                    offsets,
                    self._generations.generation_size,
                    tokens,
                    start,
                    length,
                )
            return _generation_density_from_spans(
                self._generations.live_spans(),
                self._log.tokens()[1],
                self._generations.generation_size,
                self.window,
                start,
                length,
            )

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


def _generation_density(
    generations,
    words: tuple[str, ...],
    offsets: np.ndarray,
    generation_size: int,
    tokens: TokenSequence,
    start: int,
    length: int,
) -> np.ndarray:
    """Sum of per-generation density curves over the live horizon.

    Each live generation's frozen grammar covers exactly the live tokens
    whose offsets fall in its ``generation_size`` point range (the horizon
    only advances in whole generations, so no generation is partially
    expired). Rules never span generations — the decay policy's relaxed
    guarantee — so the curves simply add.
    """
    curve = np.zeros(length, dtype=np.float64)
    for index, grammar, count in generations:
        first = int(np.searchsorted(offsets, index * generation_size, side="left"))
        stop = int(np.searchsorted(offsets, (index + 1) * generation_size, side="left"))
        if stop - first != count:
            raise RuntimeError(
                f"generation {index} holds {count} tokens but {stop - first} "
                "live tokens fall in its range; horizon and generations are "
                "out of step"
            )
        if first == stop:
            continue
        generation_tokens = TokenSequence(
            words[first:stop], offsets[first:stop], tokens.n_windows, tokens.window
        )
        curve += rule_density_curve(
            grammar, generation_tokens, length, horizon_start=start
        )
    return curve


def _generation_density_from_spans(
    spans,
    offsets: np.ndarray,
    generation_size: int,
    window: int,
    start: int,
    length: int,
) -> np.ndarray:
    """Id-kernel twin of :func:`_generation_density`, with no grammars.

    Sealed generations' occurrence spans were extracted once at seal time
    (:meth:`GenerationalSequitur.live_spans`) — only the growing generation
    is re-read per poll. Each generation's spans index its own token slice,
    found by the same offset bisection as the reference path; accumulation
    order (oldest first) matches, so the float sum is bitwise identical.
    """
    curve = np.zeros(length, dtype=np.float64)
    for index, firsts, lasts, count in spans:
        first = int(np.searchsorted(offsets, index * generation_size, side="left"))
        stop = int(np.searchsorted(offsets, (index + 1) * generation_size, side="left"))
        if stop - first != count:
            raise RuntimeError(
                f"generation {index} holds {count} tokens but {stop - first} "
                "live tokens fall in its range; horizon and generations are "
                "out of step"
            )
        if first == stop:
            continue
        curve += density_curve_from_token_spans(
            offsets[first:stop], window, firsts, lasts, length, horizon_start=start
        )
    return curve


def _poll_stage_times(phase_ns) -> dict[str, float]:
    """Seconds per stage from :meth:`~repro.grammar._kernel.TokenLog.curve`'s
    feed, spans and density counters."""
    feed, spans, density = phase_ns
    return {"grammar": (feed + spans) * 1e-9, "density": density * 1e-9}


def _member_snapshot_curve(member: "StreamingGrammarDetector") -> np.ndarray:
    """Thread task: one member's snapshot rule density curve."""
    return member.density_curve()


class StreamingEnsembleDetector(ExecutorOwnerMixin):
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
    each chunk with one vectorized PAA/interval pass per distinct PAA size,
    shared by every member of that size via the merged breakpoint table.

    Each member keeps its kept tokens and live grammar in one native token
    log (:class:`~repro.grammar._kernel.TokenLog`), so a drain block costs
    one native call per member. Under the fast kernel an ensemble poll
    polls every due unbounded or sliding member in one native call
    (:func:`~repro.grammar._kernel.poll_logs`) on the calling thread, which
    charges their phase counters to the ``grammar`` and ``density`` stages.
    Decay members and the python kernel poll one member at a time.

    ``executor`` only matters for the *snapshot* side (``density_curve`` /
    ``detect``): a thread executor's workers call the live members
    directly, one task per member. Serial, process and cluster executors
    run no streaming work off this thread — the live token logs never
    leave this process, and polling them here is far cheaper than shipping
    a picklable snapshot for a worker to re-induce (see
    ``docs/streaming.md``) — so they poll as if no executor were given.
    Ingest stays serial — it is already one vectorized pass plus one call
    per member. Results are bitwise identical across backends.
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
        executor: MemberExecutor | str | None = None,
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
        self._init_executor(executor)
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
        self._alphabet_table = self._plan.alphabet_table
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
        #: Distinct PAA sizes — the vectorized ingest shares one
        #: PAA/interval pass per distinct size.
        self._paa_sizes = sorted({member.paa_size for member in self.members})
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
        """Vectorized ingest: one PAA + interval pass per distinct PAA size.

        Then one native call per member logs the block's kept tokens, all
        under one ``discretize`` timer, and decay members feed their
        generations. Large chunks are drained in fixed-size blocks (bounded
        transient memory); once every member has consumed every completed
        window, the retention horizon advances and members forget what slid
        out, again one native call each.
        """
        n_windows = self.state.n_windows(self.window)
        # Every member is drained in lock-step by this loop (members never
        # ingest on their own when attached), so one cursor serves all.
        first = self.members[0]._consumed
        table = self._alphabet_table
        while first < n_windows:
            stop = min(first + _DRAIN_BLOCK, n_windows)
            # One shared sweep per block; the sweep fires the paa (and, under
            # the python kernel, discretize) stage timers itself, once per
            # distinct size, so the matrices are formed before the timer.
            sweep = self.state.sweep(self._plan, first, stop=stop)
            intervals = {w: sweep.interval_rows(w) for w in self._paa_sizes}
            kept: list[int] = []
            try:
                with stage_timer("discretize"):
                    for member in self.members:
                        kept.append(
                            member._ingest_block(
                                intervals[member.paa_size],
                                table.symbol_column(member.alphabet_size),
                                first,
                            )
                        )
            finally:
                # Should a member's ingest fail, the members before it have
                # logged the block: their generations still get its tokens,
                # so a decay grammar never falls behind its log.
                for member, count in zip(self.members, kept):
                    member._feed_generations(count)
            first = stop
        if self.state.capacity is not None:
            start = self.state.trim()
            if start:
                for member in self.members:
                    member._forget_before(start)

    def _snapshot_curves(self) -> list[np.ndarray]:
        """Every member's snapshot curve: on a thread pool, or in place.

        Curves are deterministic functions of each member's live tokens and
        the shared stream, so all backends return bitwise-identical results.
        """
        executor = self.executor
        if executor is not None and executor.kind == "thread":
            # Members are independent snapshot readers of the shared state;
            # threads can call them directly, zero serialization.
            return executor.map(_member_snapshot_curve, self.members)
        # No executor, serial, process and cluster: the owning process
        # computes every curve. The live logs cannot leave it, and
        # rebuilding a member from a picklable snapshot costs a worker more
        # than its poll costs here.
        self._poll_one_call_members()
        return [member.density_curve() for member in self.members]

    def _poll_one_call_members(self) -> None:
        """Cache the curve of every due one-call member, from one native call.

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
            if member._one_call_poll
            and (member._curve_cache is None or member._curve_cache[0] != version)
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
            "kernel": _kernel.current_kernel(),
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
    def restore(
        cls,
        snapshot: dict,
        *,
        executor: MemberExecutor | str | None = None,
    ) -> "StreamingEnsembleDetector":
        """Rebuild a live ensemble from :meth:`snapshot` output.

        Restoring is kernel-portable: grammars are replayed from the live
        token ids under the *current* ``REPRO_KERNEL``, and the kernel
        equivalence contract keeps the results bitwise identical to the
        snapshotting process's. A snapshot from a different
        ``state_version`` raises :class:`SnapshotVersionError` — a clear
        rejection, never garbage output.
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
        instance._init_executor(executor)
        instance.parameters = parameters
        instance.ensemble_size = len(parameters)
        instance.state = SharedStreamState.from_state(snapshot["stream"])
        instance._plan = DiscretizationPlan(
            instance.window,
            parameters,
            znorm_threshold=instance.znorm_threshold,
            max_alphabet_size=instance.max_alphabet_size,
        )
        instance._alphabet_table = instance._plan.alphabet_table
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
        instance._paa_sizes = sorted({member.paa_size for member in instance.members})
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
        without touching the members or the executor. Parity is unaffected
        — the cache only ever replays a value the uncached path computed.
        """
        version = self.state.version
        if self._curve_cache is not None and self._curve_cache[0] == version:
            return self._curve_cache[1]
        curves = self._snapshot_curves()
        with stage_timer("combine"):
            kept = select_by_std(curves, self.selectivity)
            survivors = [normalize_curve(curves[i]) for i in kept]
            curve = combine_curves(survivors, self.combiner)
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
