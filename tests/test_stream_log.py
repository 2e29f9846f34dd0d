"""Streaming members' native token logs and their one-call drain, against
the list-based route they replaced.

Each streaming member keeps its kept tokens (int32 ids, int64 window
offsets), the carried symbol row, its cursor, the live boundary, the prune
counter and its sliding arena in one :class:`repro.grammar._kernel.TokenLog`.
A detector drains a block of windows into every member's log with one
:class:`~repro.grammar._kernel.LogDrain` call (the PAA passes, every
member's ingest and, at a horizon advance, every log's forgetting), and
polls with one :func:`~repro.grammar._kernel.poll_logs` call. The oracle
route is the one the members ran before: the reference sliding PAA rows and
``np.searchsorted`` intervals of ``tests/oracles/sax.py``, the pure-Python
interner of ``tests/oracles/`` for lookup, reduction and interning, Python
lists with a bisect and the same compaction rule for forgetting, and the
reference :class:`~oracles.sequitur.SequiturBuilder` re-induced over exactly
the live words, with a numpy density, for the curve. Every id, offset,
counter and curve byte must agree, also across an export -> restore.

The detector-level tests check that a whole session on the one-call drain
exports the state of one on the oracle route (:class:`oracles.interner.OracleDrain`)
and polls the curve of the oracle pipeline (``tests/oracles/pipeline.py``),
under every policy and numerosity, for one member and many, across drain
blocks; that a drain block and an ensemble poll are one native call for
every member; that every decay poll is the oracle's decay ensemble bit for
bit; that a drain failing at one member leaves the members before it
holding the block, and that the session then recovers bitwise (a decay
member whose generation feed failed, through a snapshot); and that the
drain's stage counters add up to its native call.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import textwrap
import time
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.streaming as streaming_mod
from oracles import pipeline
from oracles.interner import OracleDrain, StreamingOracleInterner, native_ingest
from oracles.sax import interval_rows_from, sliding_paa_rows
from oracles.sequitur import SequiturBuilder
from repro.core.engine import SharedStreamState
from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector
from repro.grammar import _kernel
from repro.grammar._kernel import LogDrain, TokenLog
from repro.grammar.density import density_from_intervals
from repro.obs import stages
from repro.obs.stages import capture
from repro.sax._kernel import window_stats
from repro.sax.alphabet import WordInterner
from repro.sax.breakpoints import MultiResolutionAlphabet
from repro.sax.plan import merged_search

TABLE = MultiResolutionAlphabet(10, 2)

#: The native search of :data:`TABLE`'s merged breakpoints.
SEARCH = merged_search(10, 2)

#: Bytes per slot of a native arena, per rule, per digram bucket and per
#: pending level, as ``_sequitur.c`` allocates them.
ARENA_SLOT, ARENA_OTHER = 24, 16

#: Bytes per decay generation slot (a ``Gen``: five int64 and a pointer)
#: and per sealed span bound.
GENERATION_SLOT, SPAN_BOUND = 48, 8


class OracleLog:
    """One member's tokens on the list-based route, with the oracle interner."""

    def __init__(self) -> None:
        self.interner = StreamingOracleInterner()
        self.ids: list[int] = []
        self.offsets: list[int] = []
        self.live = 0
        self.kept = 0
        self.pruned = 0
        self.carry: np.ndarray | None = None

    def ingest(self, intervals, column, first_start, reduce) -> int:
        if not len(intervals):
            return 0
        symbols = column[intervals]
        kept = self.interner.intern_packed(symbols, self.carry, reduce=reduce)
        if reduce:
            self.carry = symbols[-1].astype(np.int64)
        self.ids += kept[:, 1].tolist()
        self.offsets += (kept[:, 0] + first_start).tolist()
        self.kept += len(kept)
        return len(kept)

    def forget(self, start, slack) -> int:
        live = bisect_left(self.offsets, start, lo=self.live)
        pruned, self.live = live - self.live, live
        self.pruned += pruned
        if self.live > slack and 2 * self.live > len(self.ids):
            del self.ids[: self.live]
            del self.offsets[: self.live]
            self.live = 0
        return pruned

    def curve(self, window, horizon_start, length) -> np.ndarray:
        ids = self.ids[self.live :]
        if not ids:
            return np.zeros(length)
        vocabulary = self.interner.vocabulary
        builder = SequiturBuilder()
        for token_id in ids:
            builder.feed(vocabulary[token_id])
        firsts, lasts = builder.freeze().occurrence_spans()
        offsets = np.asarray(self.offsets[self.live :], dtype=np.int64)
        starts = offsets[firsts] - horizon_start
        ends = offsets[lasts] + (window - 1) - horizon_start
        return density_from_intervals(np.column_stack((starts, ends)), length)

    def restore(self) -> None:
        """What a snapshot keeps: the live tokens and the vocabulary."""
        del self.ids[: self.live]
        del self.offsets[: self.live]
        self.live = 0
        self.interner = StreamingOracleInterner.from_vocabulary(self.interner.vocabulary)


def assert_same(log: TokenLog, interner: WordInterner, oracle: OracleLog) -> None:
    ids, offsets = log.tokens()
    assert ids.dtype == offsets.dtype == np.int64
    assert ids.tolist() == oracle.ids[oracle.live :]
    assert offsets.tolist() == oracle.offsets[oracle.live :]
    assert (log.kept, log.pruned, log.n_tokens) == (
        oracle.kept,
        oracle.pruned,
        len(oracle.ids) - oracle.live,
    )
    assert log.stored == len(oracle.ids)
    if oracle.carry is None:
        assert log.carry is None
    else:
        assert log.carry.dtype == np.int64 and log.carry.tolist() == oracle.carry.tolist()
    assert interner.vocabulary == oracle.interner.vocabulary


def one_member_drain(log, interner, window, column, reduce, slack=1024) -> LogDrain:
    """The drain of one member (``log`` and ``interner``) over :data:`TABLE`."""
    return LogDrain(
        window, SEARCH, [log.width], [log], [interner], [0], [column], reduce=reduce, slack=slack
    )


def drain_block(drain, state, first, stop, horizon=0):
    """One drain call over window starts ``[first, stop)`` of ``state``."""
    prefix_sum, prefix_sq, values, origin = state.buffers()
    stats = window_stats(prefix_sum, prefix_sq, first, stop, drain.window, origin=origin)
    return drain(prefix_sum, values, origin, first, stop, stats, horizon)


def oracle_intervals(state, first, stop, window, width):
    """The reference interval rows of window starts ``[first, stop)``."""
    prefix_sum, prefix_sq, values, origin = state.buffers()
    rows = sliding_paa_rows(prefix_sum, prefix_sq, values, first, stop, window, width, origin=origin)
    return interval_rows_from(rows, TABLE.merged_breakpoints)


@st.composite
def log_scenarios(draw):
    """A member's width and alphabet, a reduction mode, a slack, a window,
    and a run of ingests of stream chunks over a few levels (repeated and
    constant windows likely), some with a horizon advance in the same call,
    horizon advances, polls and export -> restore round trips."""
    width = draw(st.integers(1, 10))
    column = TABLE.symbol_column(draw(st.integers(2, 10)))
    levels = draw(st.integers(1, 6))
    steps = []
    for kind in draw(
        st.lists(st.sampled_from(("ingest", "ingest", "forget", "poll", "restore")), max_size=24)
    ):
        if kind == "ingest":
            values = draw(st.lists(st.integers(0, levels - 1), max_size=60))
            advance = draw(st.sampled_from((0, 0, 1, 7, 30)))
            steps.append((kind, (np.asarray(values, dtype=np.float64), advance)))
        else:
            steps.append((kind, draw(st.integers(0, 30))))
    reduce = draw(st.booleans())
    slack = draw(st.sampled_from((0, 1, 3, 1024)))
    window = draw(st.integers(max(width, 2), 30))
    return width, column, reduce, slack, window, steps


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(scenario=log_scenarios())
    def test_log_equals_the_list_route(self, scenario):
        """One member's drain calls, from the log's cursor to the last
        completed window, against the oracle route on the same windows."""
        width, column, reduce, slack, window, steps = scenario
        log, interner, oracle = TokenLog(width), WordInterner(), OracleLog()
        drain = one_member_drain(log, interner, window, column, reduce, slack)
        state = SharedStreamState()
        start = 0
        for kind, step in steps:
            consumed = log.consumed
            if kind == "ingest":
                chunk, advance = step
                state.extend(chunk)
                stop = state.n_windows(window)
                if stop > consumed:
                    if advance:
                        start = min(start + advance, stop)
                    before = log.kept
                    drain_block(drain, state, consumed, stop, start if advance else 0)
                    expected = oracle.ingest(
                        oracle_intervals(state, consumed, stop, window, width),
                        column, consumed, reduce,
                    )
                    assert log.kept - before == expected
                    assert log.consumed == stop
                    if advance:
                        oracle.forget(start, slack)
            elif kind == "forget":
                start = min(start + step, consumed)
                assert log.forget(start, slack) == oracle.forget(start, slack)
            elif kind == "poll":
                length = max(1, consumed + window - 1 - start + step - 15)
                curve, phase_ns = log.curve(window, start, length)
                assert len(phase_ns) == 3 and min(phase_ns) >= 0
                assert curve.tobytes() == oracle.curve(window, start, length).tobytes()
            else:
                ids, offsets = log.tokens()
                restored = TokenLog(width)
                restored.load(ids, offsets, log.carry, log.pruned, consumed)
                log, interner = restored, WordInterner.from_vocabulary(interner.vocabulary)
                drain = one_member_drain(log, interner, window, column, reduce, slack)
                oracle.restore()
            assert_same(log, interner, oracle)

    def test_polls_feed_the_suffix_until_a_prune_then_rebuild(self):
        column = TABLE.symbol_column(4)
        # One interval per symbol, so the pattern's words are all distinct.
        letter = [int(np.flatnonzero(column == symbol)[0]) for symbol in range(4)]
        pattern = [letter[symbol] for symbol in (0, 1, 2, 1, 0, 3)]
        rows = np.tile(np.asarray(pattern, dtype=np.intp)[:, None], (30, 1))
        log, interner, oracle = TokenLog(1), WordInterner(), OracleLog()
        start = 0
        for block in range(6):
            chunk = rows[block * 30 : (block + 1) * 30]
            native_ingest(log, interner, chunk, column, block * 30, True)
            oracle.ingest(chunk, column, block * 30, True)
            if block % 2:
                start += 40
                log.forget(start, 4)
                oracle.forget(start, 4)
            length = (block + 1) * 30 + 4 - start
            expected = oracle.curve(5, start, length).tobytes()
            assert log.curve(5, start, length)[0].tobytes() == expected
            # A second poll with nothing new feeds nothing and changes nothing.
            assert log.curve(5, start, length)[0].tobytes() == expected
        assert_same(log, interner, oracle)
        assert log.pruned > 0 and log.stored < log.kept


def make_feed(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.sin(2 * np.pi * t / 37) + 0.02 * np.cumsum(rng.standard_normal(n))


def member_states(detector):
    return [member.export_state() for member in members_of(detector)]


def assert_same_state(ours, theirs):
    assert len(ours) == len(theirs)
    for mine, other in zip(ours, theirs):
        assert mine.keys() == other.keys()
        for key in mine:
            a, b = mine[key], other[key]
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), key
            else:
                assert a == b, key


def on_oracle_route(call):
    """Run ``call`` with new detectors built on the oracle route: the
    pure-Python interner and the list-based drain."""
    with mock.patch.object(streaming_mod, "WordInterner", StreamingOracleInterner):
        with mock.patch.object(streaming_mod, "_Drain", OracleDrain):
            return call()


class TestEnsembleAgainstTheOracleRoute:
    """A native session exports the oracle route's state and polls the
    oracle pipeline's curve."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        chunks=st.lists(st.integers(1, 160), min_size=1, max_size=10),
        bound=st.sampled_from(((None, "sliding"), (90, "sliding"), (250, "sliding"),
                               (120, "decay"), (300, "decay"))),
        numerosity=st.sampled_from(("exact", "none")),
        restore_at=st.integers(0, 10),
    )
    def test_sessions_agree(self, seed, chunks, bound, numerosity, restore_at):
        capacity, policy = bound
        config = dict(
            window=30, ensemble_size=4, capacity=capacity, policy=policy,
            numerosity=numerosity, seed=seed,
        )

        on_oracle = on_oracle_route
        native = StreamingEnsembleDetector(**config)
        oracle = on_oracle(lambda: StreamingEnsembleDetector(**config))
        feed = make_feed(seed, sum(chunks))
        position = 0
        for index, size in enumerate(chunks):
            chunk = feed[position : position + size]
            position += size
            native.extend(chunk)
            on_oracle(lambda: oracle.extend(chunk))
            if index == restore_at:
                native = StreamingEnsembleDetector.restore(native.snapshot())
                oracle = on_oracle(lambda: StreamingEnsembleDetector.restore(oracle.snapshot()))
            assert_same_state(member_states(native), member_states(oracle))
            if len(native.state) - native.horizon_start >= 30:
                mine = native.density_curve()
                assert mine.tobytes() == on_oracle(oracle.density_curve).tobytes()
                expected = pipeline.stream_ensemble(native, feed[:position]).curve
                assert mine.tobytes() == expected.tobytes()


def build(members: int, **config):
    """A detector of ``members`` members, or (0) a lone member that owns its state."""
    if members:
        return StreamingEnsembleDetector(ensemble_size=members, **config)
    seed = config.pop("seed")
    paa_size, alphabet_size = 2 + seed % 7, 2 + seed % 9
    return StreamingGrammarDetector(paa_size=paa_size, alphabet_size=alphabet_size, **config)


def members_of(detector):
    return getattr(detector, "members", [detector])


class TestDrainAgainstTheOracleRoute:
    """The one-call drain against the list-based route, across drain blocks."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        chunks=st.lists(
            st.one_of(st.just(1), st.integers(1, 40), st.integers(100, 400)),
            min_size=1,
            max_size=8,
        ),
        bound=st.sampled_from(((None, "sliding"), (60, "sliding"), (200, "sliding"),
                               (90, "decay"), (300, "decay"))),
        numerosity=st.sampled_from(("exact", "none")),
        members=st.sampled_from((0, 1, 5)),
        block=st.sampled_from((1, 2, 7, 64, 65_536)),
    )
    def test_drains_agree(self, seed, chunks, bound, numerosity, members, block):
        """Chunkings from single points to several drain blocks (the block
        patched small), every policy and numerosity, a lone member, an
        ensemble of one and of five."""
        capacity, policy = bound
        config = dict(
            window=30, capacity=capacity, policy=policy, numerosity=numerosity, seed=seed
        )
        native = build(members, **config)
        oracle = on_oracle_route(lambda: build(members, **config))
        feed = make_feed(seed, sum(chunks))
        position = 0
        with mock.patch.object(streaming_mod, "_DRAIN_BLOCK", block):
            for size in chunks:
                chunk = feed[position : position + size]
                position += size
                native.extend(chunk)
                oracle.extend(chunk)
                assert native.horizon_start == oracle.horizon_start
                assert_same_state(member_states(native), member_states(oracle))
                if len(native.state) - native.horizon_start >= 30:
                    assert native.density_curve().tobytes() == oracle.density_curve().tobytes()
        if members and len(native.state) - native.horizon_start >= 30:
            expected = pipeline.stream_ensemble(native, feed).curve
            assert native.density_curve().tobytes() == expected.tobytes()


def live_curve(member, start: int) -> np.ndarray:
    """A member's poll over ``[start, len(stream))``, a horizon its state has
    not trimmed to yet (a failed drain leaves it untrimmed)."""
    return member._log.curve(member.window, start, len(member.state) - start)[0]


def fail_at(detector, k: int, error: Exception) -> list[int]:
    """Make the detector's next drain call fail at member ``k`` of the
    drain's order, as the native call fails at a member: the members before
    it take the block (one call over just them), the rest are untouched,
    nothing is pruned, and ``error`` is raised. Later calls run normally.
    Returns the members' indices in the drain's order."""
    drain, plan = detector._drainer, detector._plan
    real = drain._call
    order = sorted(range(len(detector.members)), key=lambda i: detector.members[i].paa_size)
    reached = [detector.members[i] for i in order[:k]]

    def failing(prefix_sum, values, origin, first, stop, stats, horizon):
        drain._call = real
        if reached:
            sizes = sorted({member.paa_size for member in reached})
            LogDrain(
                plan.window, plan.breakpoint_search, sizes,
                [member._log for member in reached],
                [member._interner for member in reached],
                [sizes.index(member.paa_size) for member in reached],
                [plan.alphabet_table.symbol_column(m.alphabet_size) for m in reached],
                reduce=detector.numerosity == "exact", slack=streaming_mod._PRUNE_SLACK,
            )(prefix_sum, values, origin, first, stop, stats)
        raise error

    drain._call = failing
    return order


def assert_generations_agree(member) -> None:
    """A decay member's generations partition its live tokens by offset:
    every sealed one holds exactly the live tokens of its range, and the
    open (newest) one at least its live ones."""
    log, size = member._log, member.state.generation_size
    offsets = log.tokens()[1]
    generations = log.generations()
    indices = [index for index, *_ in generations]
    assert indices == sorted(set(indices))
    live = dict(zip(*(a.tolist() for a in np.unique(offsets // size, return_counts=True))))
    assert set(live) <= set(indices)
    for index, count, rules, refs, firsts, lasts in generations:
        expected = live.get(index, 0)
        assert count >= expected if index == indices[-1] else count == expected
        assert refs >= 2 * rules and len(firsts) == len(lasts) < max(count, 1)


class TestDecayPollsAgainstTheOracle:
    """Every decay poll equals the oracle pipeline's decay ensemble (one
    word-fed grammar per generation, summed oldest first) bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        capacity=st.one_of(st.integers(20, 200), st.integers(200, 4000)),
        segments=st.integers(1, 8),
        chunks=st.lists(
            st.one_of(st.just(1), st.integers(1, 60), st.integers(200, 600)),
            min_size=1,
            max_size=6,
        ),
        restore_at=st.integers(1, 3600),
        broken=st.integers(0, 2),
    )
    def test_polls_equal_the_oracle(self, seed, capacity, segments, chunks, restore_at, broken):
        """Random chunkings (single points, chunks across several
        generations), 1-8 generations per capacity, capacities from one
        window to 4000, a snapshot/restore at an arbitrary point (inside a
        generation), then a member whose ingest raises :class:`IndexError`."""
        window = 20
        config = dict(
            window=window, ensemble_size=3, capacity=capacity, policy="decay",
            segments=segments, seed=seed,
        )
        native, twin = StreamingEnsembleDetector(**config), StreamingEnsembleDetector(**config)
        feed = make_feed(seed, sum(chunks) + 100)
        position = 0
        for size in chunks:
            stop = position + size
            if position < restore_at <= stop:
                native.extend(feed[position:restore_at])
                twin.extend(feed[position:restore_at])
                native, twin = (StreamingEnsembleDetector.restore(d.snapshot()) for d in (native, twin))
                position = restore_at
            native.extend(feed[position:stop])
            twin.extend(feed[position:stop])
            position = stop
            if native.state.live_length >= window:
                expected = pipeline.stream_ensemble(native, feed[:position]).curve
                assert native.density_curve().tobytes() == expected.tobytes()
            for member in native.members:
                assert_generations_agree(member)

        # The next block's drain fails at member `broken` of the drain's
        # order: it and the members after it log nothing, the members before
        # it log (and route) the whole block.
        before = [(m.export_state(), m._log.retired) for m in native.members]
        order = fail_at(native, broken, IndexError("an interval lies outside the alphabet column"))
        with pytest.raises(IndexError, match="alphabet column"):
            native.extend(feed[position:])
        twin.extend(feed[position:])
        start = native.state.trim_target()
        assert start == twin.horizon_start
        for rank, index in enumerate(order):
            member = native.members[index]
            if rank < broken:
                member._log.forget(start, streaming_mod._PRUNE_SLACK)
                reference = twin.members[index]
                assert_same_state([member.export_state()], [reference.export_state()])
                assert member._log.retired == reference._log.retired
                assert live_curve(member, start).tobytes() == reference.density_curve().tobytes()
            else:
                assert_same_state([member.export_state()], [before[index][0]])
                assert member._log.retired == before[index][1]
            assert_generations_agree(member)
        # The next drain takes every member from its own cursor: the session
        # is the one that never failed.
        native.extend(np.empty(0))
        assert_same_state(member_states(native), member_states(twin))
        assert native.density_curve().tobytes() == twin.density_curve().tobytes()


class NoCalls:
    """A stand-in for the native library that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was called")


def stream_of(points: int, seed: int = 0) -> SharedStreamState:
    state = SharedStreamState()
    state.extend(make_feed(seed, points))
    return state


class TestErrors:
    @pytest.mark.parametrize(
        "column",
        [
            [0, 1, 2, 3, 4],  # intervals past the column
            [0, 1, 300] + [2] * 42,  # symbol past the letters
            [0, -1] + [2] * 43,  # negative symbol
            [2] * 31 + [26],  # the top interval's symbol past the letters
        ],
    )
    def test_values_outside_the_tables_raise_index_error_and_append_nothing(self, column):
        """Every column is checked when the drain is built, before any log
        is written: one that misses an interval the search returns, or maps
        one outside the letters, is an :class:`IndexError`."""
        log, interner = TokenLog(2), WordInterner()
        state = stream_of(60)
        good = TABLE.symbol_column(5)
        drain_block(one_member_drain(log, interner, 20, good, True), state, 0, 20)
        before = (log.tokens(), log.carry, log.kept, log.consumed, len(interner))
        with pytest.raises(IndexError, match="alphabet column"):
            one_member_drain(log, interner, 20, np.asarray(column, dtype=np.int64), True)
        after = (log.tokens(), log.carry, log.kept, log.consumed, len(interner))
        assert [a.tolist() for a in after[0]] == [b.tolist() for b in before[0]]
        assert after[1].tolist() == before[1].tolist() and after[2:] == before[2:]

    def test_a_column_changed_after_the_build_is_refused_natively(self):
        """The native call checks every column again before any log is
        written, so a symbol changed behind the drain's back is refused."""
        logs = [TokenLog(2), TokenLog(3)]
        tables = [WordInterner(), WordInterner()]
        columns = [TABLE.symbol_column(4).copy(), TABLE.symbol_column(6).copy()]
        drain = LogDrain(20, SEARCH, [2, 3], logs, tables, [0, 1], columns, reduce=True, slack=0)
        columns[1][0] = 26
        with pytest.raises(IndexError, match="alphabet column"):
            drain_block(drain, stream_of(60), 0, 20)
        assert [(log.kept, log.consumed, log.carry) for log in logs] == [(0, 0, None)] * 2
        assert [len(table) for table in tables] == [0, 0]

    @pytest.mark.parametrize(
        "width, column, with_table, error",
        [
            (3, np.arange(44, dtype=np.int32), True, TypeError),  # int32 column
            (3, np.arange(44).astype(np.float64), True, TypeError),  # float column
            (3, np.zeros((44, 1), dtype=np.int64), True, ValueError),  # 2-D column
            (3, np.zeros(88, dtype=np.int64)[::2], True, ValueError),  # strided column
            (2, np.zeros(44, dtype=np.int64), True, ValueError),  # log width != PAA size
            (3, np.arange(0), True, ValueError),  # no symbol column
            (3, np.zeros(44, dtype=np.int64), False, ValueError),  # no row table
        ],
    )
    def test_bad_inputs_raise_before_the_c_call(self, monkeypatch, width, column, with_table, error):
        log = TokenLog(width)
        table = WordInterner() if with_table else None

        monkeypatch.setattr(_kernel, "_lib", NoCalls())
        with pytest.raises(error):
            LogDrain(20, SEARCH, [3], [log], [table], [0], [column], reduce=True, slack=0)
        with pytest.raises(ValueError, match="positive"):
            _kernel.poll_logs([log], 3, 0, 0)

    @pytest.mark.parametrize(
        "change, error",
        [
            (dict(logs=[]), ValueError),  # zero members
            (dict(tables=[]), ValueError),  # fewer row tables than logs
            (dict(columns=[TABLE.symbol_column(4)] * 3), ValueError),  # more columns than logs
            (dict(size_index=[0]), ValueError),  # fewer size indices than logs
            (dict(size_index=[0, 2]), ValueError),  # a size index past the sizes
            (dict(paa_sizes=[3, 2]), ValueError),  # sizes out of order
            (dict(paa_sizes=[2, 25]), ValueError),  # a size past the window
            (dict(search=TABLE.merged_breakpoints), TypeError),  # not a BreakpointSearch
            (dict(tables=["table", WordInterner()]), TypeError),  # not a row table
            (dict(logs="shared"), ValueError),  # one log for two members
        ],
    )
    def test_hostile_members_raise_before_any_log_is_written(self, monkeypatch, change, error):
        """Counts, sizes, types and handles that disagree are refused when
        the drain is built; the library is never reached."""
        log = TokenLog(2)
        arguments = dict(
            search=SEARCH, paa_sizes=[2, 3], logs=[log, TokenLog(3)],
            tables=[WordInterner(), WordInterner()], size_index=[0, 1],
            columns=[TABLE.symbol_column(4), TABLE.symbol_column(6)],
        )
        arguments.update(change)
        if arguments["logs"] == "shared":
            arguments.update(logs=[log, log], paa_sizes=[2], size_index=[0, 0])

        monkeypatch.setattr(_kernel, "_lib", NoCalls())
        with pytest.raises(error):
            LogDrain(20, reduce=True, slack=0, **arguments)

    @pytest.mark.parametrize(
        "change, error",
        [
            (lambda p, q, v: dict(first=5, stop=5), ValueError),  # zero rows
            (lambda p, q, v: dict(first=6, stop=5), ValueError),  # ends before it starts
            (lambda p, q, v: dict(origin=6, first=5, stop=10), ValueError),  # before the origin
            (lambda p, q, v: dict(stop=40), ValueError),  # windows past the stream
            (lambda p, q, v: dict(stats=window_stats(p, q, 0, 19, 20)), ValueError),  # other stats
            (lambda p, q, v: dict(prefix_sum=p[:30]), ValueError),  # prefix sums cut short
            (lambda p, q, v: dict(values=v.astype(np.float32)), TypeError),  # float32 values
            (lambda p, q, v: dict(prefix_sum=np.repeat(p, 2)[::2]), ValueError),  # strided
        ],
    )
    def test_hostile_blocks_raise_before_any_log_is_written(self, monkeypatch, change, error):
        """Each block's arrays and range are checked before the native call."""
        log, interner = TokenLog(3), WordInterner()
        drain = one_member_drain(log, interner, 20, TABLE.symbol_column(5), True)
        prefix_sum, prefix_sq, values, _ = stream_of(50).buffers()
        call = dict(
            prefix_sum=prefix_sum, values=values, origin=0, first=0, stop=20,
            stats=window_stats(prefix_sum, prefix_sq, 0, 20, 20),
        )
        call.update(change(prefix_sum, prefix_sq, values))

        monkeypatch.setattr(_kernel, "_lib", NoCalls())
        with pytest.raises(error):
            drain(**call)
        monkeypatch.undo()
        assert (log.kept, log.consumed, len(interner)) == (0, 0, 0)

    def test_a_cursor_behind_the_block_is_refused_natively(self):
        """A member whose cursor lies before the block would skip windows:
        the native call refuses the whole block before any log is written."""
        ahead, behind = TokenLog(2), TokenLog(2)
        tables = [WordInterner(), WordInterner()]
        column = TABLE.symbol_column(4)
        state = stream_of(80)
        drain_block(one_member_drain(ahead, tables[0], 20, column, True), state, 0, 30)
        both = LogDrain(
            20, SEARCH, [2], [ahead, behind], tables, [0, 0], [column, column],
            reduce=True, slack=0,
        )
        kept = ahead.kept
        with pytest.raises(ValueError, match="cursor"):
            drain_block(both, state, 30, 50)
        assert (ahead.kept, ahead.consumed, behind.kept, behind.consumed) == (kept, 30, 0, 0)
        drain_block(both, state, 0, 50)  # from the lowest cursor
        assert ahead.consumed == behind.consumed == 50

    @pytest.mark.parametrize(
        "ids, offsets, carry, pruned",
        [
            ([0, -1], [0, 1], None, 0),  # negative id
            ([0, 1 << 31], [0, 1], None, 0),  # id past the packed digram key
            ([0, 1], [0], None, 0),  # ids and offsets disagree
            ([0, 1], [0, 1], [1, 2, 3], 0),  # carried row of the wrong width
            ([0, 1], [0, 1], None, -1),  # negative pruned count
        ],
    )
    def test_load_rejects_malformed_tokens(self, ids, offsets, carry, pruned):
        log = TokenLog(2)
        with pytest.raises(ValueError):
            log.load(np.asarray(ids), np.asarray(offsets), carry, pruned, 2)
        assert log.stored == 0

    def test_restore_rejects_counters_that_disagree_with_the_tokens(self):
        detector = StreamingEnsembleDetector(window=20, ensemble_size=2, capacity=60, seed=1)
        detector.extend(make_feed(1, 400))
        snapshot = detector.snapshot()
        snapshot["members"][0]["total_kept"] += 1
        with pytest.raises(ValueError, match="live ones"):
            StreamingEnsembleDetector.restore(snapshot)

    @pytest.mark.parametrize("where", ["past the windows", "before the horizon"])
    def test_restore_rejects_a_cursor_outside_the_streams_windows(self, where):
        """A member cursor past the restored stream's windows would make the
        member skip the windows in between; one before its horizon would
        make every later drain refuse the block."""
        detector = StreamingEnsembleDetector(window=20, ensemble_size=2, capacity=60, seed=1)
        detector.extend(make_feed(1, 400))
        snapshot = detector.snapshot()
        member = snapshot["members"][1]
        if where == "past the windows":
            member["consumed"] = detector.members[1].n_windows + 1
        else:
            member.update(kept_ids=member["kept_ids"][:0], kept_offsets=member["kept_offsets"][:0])
            member["total_pruned"] = member["total_kept"]
            member["consumed"] = detector.horizon_start - 1
        with pytest.raises(ValueError, match="outside the stream's windows"):
            StreamingEnsembleDetector.restore(snapshot)

    def test_a_log_cannot_be_pickled(self):
        with pytest.raises(TypeError, match="pickled"):
            pickle.dumps(TokenLog(2))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
    def test_allocation_failures_raise_memory_error(self):
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.core.engine import SharedStreamState
            from repro.grammar._kernel import LogDrain, TokenLog, poll_logs
            from repro.sax._kernel import window_stats
            from repro.sax.alphabet import WordInterner
            from repro.sax.plan import merged_search

            rows, window = 1 << 22, 4
            state = SharedStreamState()
            state.extend(np.sin(np.arange(rows + window - 1)))
            prefix_sum, prefix_sq, values, origin = state.buffers()
            stats = window_stats(prefix_sum, prefix_sq, 0, rows, window)
            drain = LogDrain(
                window, merged_search(3, 3), [1], [TokenLog(1)], [WordInterner()], [0],
                [np.arange(3, dtype=np.int64)], reduce=True, slack=0,
            )
            loaded = TokenLog(1)
            loaded.load(np.arange(rows), np.arange(rows), None, 0, rows)
            with open("/proc/self/status") as status:
                size = next(int(line.split()[1]) for line in status if line.startswith("VmSize"))
            limit = (size << 10) + (32 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (limit, resource.RLIM_INFINITY))
            small = TokenLog(1)
            small.load(np.arange(4), np.arange(4), None, 0, 4)

            def shared():
                poll_logs([small, loaded], 4, 0, 16)

            for name, call in (
                ("ingest", lambda: drain(prefix_sum, values, origin, 0, rows, stats)),
                ("curve", lambda: loaded.curve(4, 0, 16)),
                ("shared", shared),
            ):
                try:
                    call()
                    print(name, "ran")
                except MemoryError:
                    print(name, "MemoryError")
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "ingest", "MemoryError", "curve", "MemoryError", "shared", "MemoryError"
        ]


class PoolStream:
    """A ``stream_ingest``-style stream: a periodic carrier on a random walk,
    observation noise, and a planted damped or sped-up stretch every 1000
    points, produced in chunks of 200-400 points."""

    def __init__(self, index: int) -> None:
        self.rng = np.random.default_rng(6151 + index)
        self.position = 0
        self.level = 0.0

    def next_chunk(self) -> np.ndarray:
        size = int(self.rng.integers(200, 401))
        t = np.arange(self.position, self.position + size)
        walk = self.level + np.cumsum(0.05 * self.rng.standard_normal(size))
        self.level = float(walk[-1])
        noise = 0.05 * self.rng.standard_normal(size)
        phase = t % 1000
        inside = (phase >= 500) & (phase < 600)
        carrier = np.sin(2 * np.pi * t / 60.0)
        anomaly = np.where((t // 1000) % 2 == 0, 0.1 * carrier, np.sin(2 * np.pi * t / 24.0))
        self.position += size
        return walk + noise + np.where(inside, anomaly, carrier)


def pool_session(index: int, cycles: int = 6):
    """One pool stream's sliding session, polled after every 4 appends.

    Yields ``(detector, points fed so far)`` after each poll.
    """
    source = PoolStream(index)
    detector = StreamingEnsembleDetector(
        window=100, capacity=2000, policy="sliding", seed=6151 + index
    )
    fed = []
    for _ in range(cycles):
        for _ in range(4):
            fed.append(source.next_chunk())
            detector.extend(fed[-1])
        yield detector, np.concatenate(fed)


class TestEnsemblePolls:
    def test_pool_polls_equal_the_oracle(self):
        """A ``stream_ingest``-style session: every poll's curve and
        anomalies are the oracle pipeline's, once the horizon moves."""
        for detector, series in pool_session(0):
            oracle = pipeline.stream_ensemble(detector, series).curve
            assert detector.density_curve().tobytes() == oracle.tobytes()
            assert detector.detect(3) == pipeline.anomalies(
                oracle, 100, 3, detector.horizon_start
            )
        assert detector.horizon_start > 0

    @pytest.mark.parametrize("policy", ["sliding", "decay"])
    def test_one_native_call_polls_every_due_member(self, policy):
        made = []
        real = _kernel.poll_logs

        def spy(logs, *args):
            made.append(len(logs))
            return real(logs, *args)

        source = PoolStream(0)
        detector = StreamingEnsembleDetector(window=100, capacity=2000, policy=policy, seed=3)
        with mock.patch.object(_kernel, "poll_logs", spy):
            for _ in range(12):
                detector.extend(source.next_chunk())
            detector.detect(3)
            detector.detect(3)  # cached: nothing polled again
        assert made == [len(detector.members)]
        assert (detector.members[0].retired_generations > 0) == (policy == "decay")

    def test_capture_sees_grammar_and_density_of_a_default_poll(self):
        detector = StreamingEnsembleDetector(window=100, capacity=2000, seed=4)
        source = PoolStream(1)
        for _ in range(12):
            detector.extend(source.next_chunk())
        with capture() as times:
            detector.detect(3)
        assert times.get("grammar", 0) > 0 and times.get("density", 0) > 0
        assert times.get("combine", 0) > 0


class TestFailedIngest:
    def test_members_that_logged_the_block_feed_their_generations(self):
        """When a drain fails at one member, the members before it have
        logged the block, and their decay generations must hold its tokens
        too; the next drain then completes the block for the rest."""
        feed = make_feed(7, 1200)
        failing, reference = (
            StreamingEnsembleDetector(
                window=30, ensemble_size=6, capacity=300, policy="decay", seed=5
            )
            for _ in range(2)
        )
        failing.extend(feed[:600])
        reference.extend(feed[:600])
        broken = 3
        order = fail_at(failing, broken, MemoryError("injected"))
        with pytest.raises(MemoryError, match="injected"):
            failing.extend(feed[600:])
        reference.extend(feed[600:])
        # The failed drain never advanced the horizon; prune the members
        # that logged the block as the drain would have.
        start = failing.state.trim_target()
        assert start == reference.horizon_start > 0
        for index in order[:broken]:
            member, expected = failing.members[index], reference.members[index]
            member._log.forget(start, streaming_mod._PRUNE_SLACK)
            assert member._log.kept == expected._log.kept
            assert live_curve(member, start).tobytes() == expected.density_curve().tobytes()
        for index in order[broken:]:
            assert failing.members[index]._consumed < reference.members[index]._consumed

    @pytest.mark.parametrize("policy", ["unbounded", "sliding", "decay"])
    @pytest.mark.parametrize("broken", [0, 5, 9])
    def test_a_session_that_recovers_reads_like_one_that_never_failed(self, policy, broken):
        """A drain that fails at member ``broken`` of ten moves no cursor
        past the members it did not reach; the next append drains every
        member from its own cursor, so each later poll is the poll of a
        session that never failed, bit for bit."""
        bounds = {} if policy == "unbounded" else dict(capacity=800, policy=policy)
        config = dict(window=50, ensemble_size=10, seed=11, **bounds)
        failing, reference = StreamingEnsembleDetector(**config), StreamingEnsembleDetector(**config)
        feed = make_feed(13, 3000)
        for detector in (failing, reference):
            detector.extend(feed[:1000])
            detector.detect(3)
        order = fail_at(failing, broken, MemoryError("injected"))
        with pytest.raises(MemoryError, match="injected"):
            failing.extend(feed[1000:1400])
        reference.extend(feed[1000:1400])
        consumed = [failing.members[index]._consumed for index in order]
        assert consumed == [1351] * broken + [951] * (10 - broken)
        for start, stop in ((1400, 1403), (1403, 2200), (2200, 3000)):
            failing.extend(feed[start:stop])
            reference.extend(feed[start:stop])
            assert failing.horizon_start == reference.horizon_start
            assert_same_state(member_states(failing), member_states(reference))
            assert failing.detect(3) == reference.detect(3)
            assert failing.density_curve().tobytes() == reference.density_curve().tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
    @pytest.mark.parametrize("policy", ["unbounded", "decay"])
    def test_a_real_allocation_failure_recovers_bitwise(self, policy):
        """Under a tightening address-space limit, a large append fails
        wherever memory runs out first: in numpy, or at some member of the
        native drain. The limit is raised step by step until the append
        gets through; every attempt that failed at a member's log or table
        left the members before it holding the block. One that failed in a
        decay member's generation feed broke that member, so the next
        append raises RuntimeError, and the session is restored from its
        own snapshot (the limit then counts from the restored process size).
        Either way, the session that finally got through equals one that
        never failed."""
        bounds = {} if policy == "unbounded" else dict(capacity=20_000, policy=policy)
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.core.streaming import StreamingEnsembleDetector

            def vm_size():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmSize"))

            rng = np.random.default_rng(3)
            feed = np.cumsum(rng.standard_normal(62_000))
            config = dict(window=100, ensemble_size=10, seed=5, **BOUNDS)
            failing, reference = (StreamingEnsembleDetector(**config) for _ in range(2))
            for detector in (failing, reference):
                detector.extend(feed[:2000])
            reference.extend(feed[2000:])
            size, step, failures, partial = vm_size(), 0, 0, 0
            while step < 400:
                resource.setrlimit(resource.RLIMIT_AS, ((size << 10) + (step << 18), resource.RLIM_INFINITY))
                step += 1
                try:
                    failing.extend(feed[2000:] if len(failing) < len(feed) else feed[:0])
                    break
                except MemoryError:
                    failures += 1
                    cursors = [member._consumed for member in failing.members]
                    partial += 0 < sum(c == len(feed) - 99 for c in cursors) < len(cursors)
                except RuntimeError:
                    resource.setrlimit(resource.RLIMIT_AS, (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
                    failing = StreamingEnsembleDetector.restore(failing.snapshot())
                    size, step = vm_size(), 0
            resource.setrlimit(resource.RLIMIT_AS, (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
            same = all(
                mine.export_state()["kept_ids"].tolist() == theirs.export_state()["kept_ids"].tolist()
                and mine.export_state()["vocabulary"] == theirs.export_state()["vocabulary"]
                for mine, theirs in zip(failing.members, reference.members)
            )
            curves = failing.density_curve().tobytes() == reference.density_curve().tobytes()
            print(failures > 0, partial > 0, same, curves, failing.detect(3) == reference.detect(3))
            """
        ).replace("BOUNDS", repr(bounds))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True"] * 5

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
    def test_a_failed_generation_feed_breaks_the_log_until_it_is_loaded(self):
        """A decay member's generation feed that runs out of memory cannot be
        undone: its log keeps the block's tokens and cursor, and every later
        drain, poll and generation read raises RuntimeError without writing
        any log (the member after it stays untouched) until a load routes
        the tokens again."""
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.core.engine import SharedStreamState
            from repro.grammar._kernel import LogDrain, TokenLog, poll_logs
            from repro.sax._kernel import window_stats
            from repro.sax.alphabet import WordInterner
            from repro.sax.plan import merged_search

            # Distinct ids repeat no digram, so the arena holds one slot per
            # token: its guard and 2^20 - 1 tokens fill its 2^20 slots, and
            # the block's one token must grow it (the log's 2^20 token
            # slots still take that token).
            n, window, size = (1 << 20) - 1, 4, 1 << 40
            decay, sliding = TokenLog(1, size), TokenLog(1)
            decay.load(np.arange(n), np.arange(n), None, 0, n)
            sliding.load(np.arange(0), np.arange(0), None, 0, n)
            assert decay._export()[0][7] == n + 1
            state = SharedStreamState()
            state.extend(np.sin(np.arange(n + window)))
            prefix_sum, prefix_sq, values, origin = state.buffers()
            stats = window_stats(prefix_sum, prefix_sq, n, n + 1, window)
            drain = LogDrain(
                window, merged_search(3, 3), [1], [decay, sliding],
                [WordInterner(), WordInterner()], [0, 0],
                [np.arange(3, dtype=np.int64)] * 2, reduce=False, slack=0,
            )

            def block():
                drain(prefix_sum, values, origin, n, n + 1, stats)

            def outcome(call):
                try:
                    call()
                    return "ran"
                except (MemoryError, RuntimeError) as error:
                    return type(error).__name__

            with open("/proc/self/status") as status:
                vm = next(int(line.split()[1]) for line in status if line.startswith("VmSize"))
            resource.setrlimit(resource.RLIMIT_AS, ((vm << 10) + (2 << 20), resource.RLIM_INFINITY))
            print(outcome(block))
            resource.setrlimit(resource.RLIMIT_AS, (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
            print(decay.consumed == decay.kept == n + 1)
            for call in (block, lambda: poll_logs([decay], window, 0, 16), decay.generations):
                print(outcome(call))
            print(sliding.consumed == n and sliding.stored == 0)
            ids, offsets = decay.tokens()
            decay.load(ids, offsets, None, 0, decay.consumed)
            print(outcome(block), sliding.consumed == n + 1 and sliding.stored == 1)
            fresh = TokenLog(1, size)
            fresh.load(ids, offsets, None, 0, n + 1)
            print([g[:4] for g in decay.generations()] == [g[:4] for g in fresh.generations()])
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "MemoryError", "True", "RuntimeError", "RuntimeError", "RuntimeError", "True",
            "ran", "True", "True",
        ]


class TestDrainAccounting:
    """A drain block is one native call for every member, and its stage
    counters add up to that call."""

    @staticmethod
    def spy_library(monkeypatch):
        """Replace the library the kernel calls with a recorder: every
        entry point's calls, and each ``seq_drain``'s wall time and
        counters."""
        real = _kernel._lib
        record = {"calls": [], "drains": []}

        class Spy:
            def __getattr__(self, name):
                function = getattr(real, name)
                if name != "seq_drain":
                    def counted(*args):
                        record["calls"].append(name)
                        return function(*args)
                    return counted

                def timed(*args):
                    record["calls"].append(name)
                    started = time.perf_counter_ns()
                    status = function(*args)
                    wall = time.perf_counter_ns() - started
                    record["drains"].append((wall, tuple(args[-1])))
                    return status
                return timed

        monkeypatch.setattr(_kernel, "_lib", Spy())
        return record

    @pytest.mark.parametrize("members", [0, 1, 5, 20])
    @pytest.mark.parametrize("policy", ["sliding", "decay"])
    def test_one_native_call_per_block_whatever_the_member_count(
        self, monkeypatch, members, policy
    ):
        config = dict(window=100, capacity=2000, policy=policy, seed=4)
        detector = build(members, **config)
        source = PoolStream(0)
        for _ in range(8):
            detector.extend(source.next_chunk())
        monkeypatch.setattr(streaming_mod, "_DRAIN_BLOCK", 100)
        record = self.spy_library(monkeypatch)
        chunk = np.concatenate([source.next_chunk() for _ in range(3)])
        detector.extend(chunk)
        assert record["calls"].count("seq_drain") == -(-len(chunk) // 100)
        assert set(record["calls"]) == {"seq_drain"}

    @pytest.mark.parametrize("policy", ["sliding", "decay"])
    def test_each_block_is_one_observation_of_each_stage(self, monkeypatch, policy):
        """``paa``, ``discretize`` and (under decay) ``grammar`` are
        observed once per block, however many PAA sizes the members have."""
        detector = StreamingEnsembleDetector(window=100, capacity=2000, policy=policy, seed=4)
        assert len({member.paa_size for member in detector.members}) > 1
        source = PoolStream(2)
        for _ in range(8):
            detector.extend(source.next_chunk())
        monkeypatch.setattr(streaming_mod, "_DRAIN_BLOCK", 100)
        names = ("paa", "discretize", "grammar")
        before = [stages._children[name].snapshot()[2] for name in names]
        chunk = np.concatenate([source.next_chunk() for _ in range(3)])
        with capture() as times:
            detector.extend(chunk)
        after = [stages._children[name].snapshot()[2] for name in names]
        blocks = -(-len(chunk) // 100)
        decay = policy == "decay"
        assert [b - a for a, b in zip(before, after)] == [blocks, blocks, blocks if decay else 0]
        assert set(times) == set(names if decay else names[:2])
        assert all(value > 0 for value in times.values())

    @pytest.mark.parametrize("policy", ["unbounded", "sliding", "decay"])
    def test_the_counters_cover_the_native_call(self, monkeypatch, policy):
        """``paa + discretize + grammar`` of each call is its wall time, as
        timed around the call from Python, within 5%."""
        bounds = {} if policy == "unbounded" else dict(capacity=4000, policy=policy)
        detector = StreamingEnsembleDetector(window=100, seed=6, **bounds)
        source = PoolStream(3)
        for _ in range(8):
            detector.extend(source.next_chunk())
        record = self.spy_library(monkeypatch)
        for _ in range(4):
            detector.extend(np.concatenate([source.next_chunk() for _ in range(6)]))
        walls = sum(wall for wall, _ in record["drains"])
        counted = sum(sum(counters) for _, counters in record["drains"])
        assert all(sum(counters) <= wall for wall, counters in record["drains"])
        assert abs(walls - counted) <= 0.05 * walls
        assert all(counters[0] > 0 and counters[1] > 0 for _, counters in record["drains"])
        assert all((counters[2] > 0) == (policy == "decay") for _, counters in record["drains"])


class TestMemoryBytes:
    @staticmethod
    def log_bytes(log: TokenLog) -> int:
        sizes = log._export()[0]
        cap, width = sizes[1], sizes[5]
        slot_cap, rule_cap, table_cap, pending_cap = sizes[7:11]
        generations, generation_cap, sealed_bounds = sizes[12:15]
        assert cap >= log.stored and generation_cap >= generations
        # The sealed generations keep exactly their spans, nothing more.
        sealed = log.generations()[:-1]
        assert sealed_bounds == sum(len(firsts) + len(lasts) for *_, firsts, lasts in sealed)
        return (
            12 * cap
            + np.dtype(np.intp).itemsize * width
            + ARENA_SLOT * slot_cap
            + ARENA_OTHER * (rule_cap + table_cap + pending_cap)
            + GENERATION_SLOT * generation_cap
            + SPAN_BOUND * sealed_bounds
        )

    @pytest.mark.parametrize(
        "capacity, policy", [(None, "sliding"), (400, "sliding"), (400, "decay")]
    )
    def test_a_members_figure_is_interner_plus_log_plus_builders(self, capacity, policy):
        member = StreamingGrammarDetector(
            window=30, paa_size=5, alphabet_size=6, capacity=capacity, policy=policy
        )
        feed = make_feed(5, 3000)
        polled = False
        for start in range(0, len(feed), 250):
            member.extend(feed[start : start + 250])
            if start % 500 == 0:
                member.density_curve()
                polled = True
            expected = member._interner.memory_bytes() + self.log_bytes(member._log)
            assert member.memory_bytes() == expected
        assert polled
        sizes = member._log._export()[0]
        # The arena exists once a member has polled, or (decay) ingested.
        assert sizes[7] > 0
        # Only decay members keep generations, and theirs retire.
        assert (sizes[12] > 0) == (member.retired_generations > 0) == (policy == "decay")
