"""A streaming member's native token log against the list-based route it replaced.

Each streaming member keeps its kept tokens (int32 ids, int64 window
offsets), the carried symbol row, the live boundary, the prune counter and
its sliding arena in one :class:`repro.grammar._kernel.TokenLog`, and makes
one native call per drain block (``ingest``), per horizon advance
(``forget``) and per poll (``curve``). The oracle route is the one the
member ran before: the pure-Python interner of ``tests/oracles/`` for
lookup, reduction and interning, Python lists with a bisect and the same
compaction rule for forgetting, and the reference
:class:`~repro.grammar.sequitur._SequiturBuilder` re-induced over exactly
the live words, with a numpy density, for the curve. Every id, offset,
counter and curve byte must agree, also across an export -> restore.

The ensemble-level tests check that a whole session on the native log
equals one on the python kernel with the oracle interner, under every
policy and numerosity, that an ensemble poll (one native call for every
one-call member) is byte-equal whatever the executor, and that a member
whose ingest fails leaves the others' decay grammars agreeing with their
logs.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import textwrap
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.streaming as streaming_mod
from oracles.interner import StreamingOracleInterner
from repro.core.executors import ProcessExecutor, ThreadExecutor
from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector
from repro.grammar import _kernel
from repro.grammar._kernel import TokenLog, use_kernel
from repro.grammar.density import density_from_intervals
from repro.grammar.sequitur import _SequiturBuilder
from repro.obs.stages import capture
from repro.sax.alphabet import WordInterner
from repro.sax.breakpoints import MultiResolutionAlphabet

TABLE = MultiResolutionAlphabet(10, 2)

#: Bytes per slot of a native arena, per rule, per digram bucket and per
#: pending level, as ``_sequitur.c`` allocates them.
ARENA_SLOT, ARENA_OTHER = 24, 16


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
        builder = _SequiturBuilder()
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


@st.composite
def log_scenarios(draw):
    """A member's width and alphabet, a reduction mode, a slack, a window,
    and a run of ingests (repeats likely), horizon advances, polls and
    export -> restore round trips."""
    width = draw(st.integers(1, 10))
    column = TABLE.symbol_column(draw(st.integers(2, 10)))
    palette = draw(st.integers(1, len(column)))
    steps = []
    for kind in draw(
        st.lists(st.sampled_from(("ingest", "ingest", "forget", "poll", "restore")), max_size=24)
    ):
        if kind == "ingest":
            rows = draw(st.integers(0, 40))
            values = draw(
                st.lists(
                    st.integers(0, palette - 1), min_size=rows * width, max_size=rows * width
                )
            )
            steps.append((kind, np.asarray(values, dtype=np.intp).reshape(rows, width)))
        else:
            steps.append((kind, draw(st.integers(0, 30))))
    reduce = draw(st.booleans())
    slack = draw(st.sampled_from((0, 1, 3, 1024)))
    window = draw(st.integers(1, 30))
    return width, column, reduce, slack, window, steps


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(scenario=log_scenarios())
    def test_log_equals_the_list_route(self, scenario):
        width, column, reduce, slack, window, steps = scenario
        log, interner, oracle = TokenLog(width), WordInterner(), OracleLog()
        consumed = start = 0
        for kind, step in steps:
            if kind == "ingest":
                kept = interner.intern_log(log, step, column, consumed, reduce)
                assert kept == oracle.ingest(step, column, consumed, reduce)
                consumed += len(step)
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
                restored.load(ids, offsets, log.carry, log.pruned)
                log, interner = restored, WordInterner.from_vocabulary(interner.vocabulary)
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
            interner.intern_log(log, chunk, column, block * 30, True)
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
    return [member.export_state() for member in detector.members]


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


class TestEnsembleAgainstTheOracleRoute:
    """A native session equals the python kernel on the oracle interner."""

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

        def on_oracle(call):
            with use_kernel("python"), mock.patch.object(
                streaming_mod, "WordInterner", StreamingOracleInterner
            ):
                return call()

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
                theirs = on_oracle(oracle.density_curve)
                assert mine.tobytes() == theirs.tobytes()


class TestErrors:
    @pytest.mark.parametrize(
        "intervals, column",
        [
            ([[0, 1], [5, 0]], [0, 1, 2, 3, 4]),  # interval past the column
            ([[0, 1], [-1, 0]], [0, 1, 2, 3, 4]),  # negative interval
            ([[0, 1], [1, 0]], [0, 1, 300]),  # symbol past the letters
            ([[0, 1], [1, 0]], [0, -1, 2]),  # negative symbol
        ],
    )
    def test_values_outside_the_tables_raise_index_error_and_append_nothing(
        self, intervals, column
    ):
        log, interner = TokenLog(2), WordInterner()
        good = TABLE.symbol_column(5)
        interner.intern_log(log, np.asarray([[0, 1], [2, 2]], dtype=np.intp), good, 0, True)
        before = (log.tokens(), log.carry, log.kept, len(interner))
        with pytest.raises(IndexError, match="alphabet column"):
            interner.intern_log(
                log, np.asarray(intervals, dtype=np.intp), np.asarray(column, dtype=np.int64),
                2, True,
            )
        after = (log.tokens(), log.carry, log.kept, len(interner))
        assert [a.tolist() for a in after[0]] == [b.tolist() for b in before[0]]
        assert after[1].tolist() == before[1].tolist() and after[2:] == before[2:]

    @pytest.mark.parametrize(
        "intervals, column, with_table, error",
        [
            (np.zeros((4, 3), dtype=np.int32), np.arange(5), True, TypeError),
            (np.zeros((4, 3), dtype=np.intp), np.arange(5, dtype=np.int32), True, TypeError),
            (np.zeros(4, dtype=np.intp), np.arange(5), True, ValueError),
            (np.zeros((4, 6), dtype=np.intp)[:, ::2], np.arange(5), True, ValueError),
            (np.zeros((4, 2), dtype=np.intp), np.arange(5), True, ValueError),
            (np.zeros((4, 3), dtype=np.intp), np.arange(0), True, ValueError),
            (np.zeros((4, 3), dtype=np.intp), np.arange(5), False, ValueError),
        ],
    )
    def test_bad_inputs_raise_before_the_c_call(
        self, monkeypatch, intervals, column, with_table, error
    ):
        log = TokenLog(3)
        table = WordInterner()._handle if with_table else None

        class NoCalls:
            def __getattr__(self, name):
                raise AssertionError(f"{name} was called")

        monkeypatch.setattr(_kernel, "_lib", NoCalls())
        with pytest.raises(error):
            log.ingest(table, intervals, column, 0, True)
        with pytest.raises(ValueError, match="positive"):
            _kernel.poll_logs([log], 3, 0, 0)

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
            log.load(np.asarray(ids), np.asarray(offsets), carry, pruned)
        assert log.stored == 0

    def test_restore_rejects_counters_that_disagree_with_the_tokens(self):
        detector = StreamingEnsembleDetector(window=20, ensemble_size=2, capacity=60, seed=1)
        detector.extend(make_feed(1, 400))
        snapshot = detector.snapshot()
        snapshot["members"][0]["total_kept"] += 1
        with pytest.raises(ValueError, match="live ones"):
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
            from repro.grammar._kernel import TokenLog, poll_logs
            from repro.sax.alphabet import WordInterner

            rows = 1 << 22
            intervals = (np.arange(rows, dtype=np.intp) % 3).reshape(rows, 1)
            column = np.arange(3, dtype=np.int64)
            loaded = TokenLog(1)
            loaded.load(np.arange(rows), np.arange(rows), None, 0)
            with open("/proc/self/status") as status:
                size = next(int(line.split()[1]) for line in status if line.startswith("VmSize"))
            limit = (size << 10) + (32 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (limit, resource.RLIM_INFINITY))
            small = TokenLog(1)
            small.load(np.arange(4), np.arange(4), None, 0)

            def shared():
                poll_logs([small, loaded], 4, 0, 16)

            for name, call in (
                ("ingest", lambda: WordInterner().intern_log(TokenLog(1), intervals, column, 0, 1)),
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


def pool_polls(executor=None, cycles: int = 6) -> list[tuple]:
    """Every poll of the six pool streams' sliding sessions: 4 appends, then a poll.

    The sessions run the fast kernel, the one whose polls are one call.
    """
    polls = []
    for index in range(6):
        source = PoolStream(index)
        with use_kernel("fast"):
            detector = StreamingEnsembleDetector(
                window=100, capacity=2000, policy="sliding", seed=6151 + index, executor=executor
            )
        for _ in range(cycles):
            for _ in range(4):
                detector.extend(source.next_chunk())
            anomalies = detector.detect(3)
            polls.append(
                (detector.horizon_start, detector.density_curve().tobytes(), repr(anomalies))
            )
    return polls


class TestEnsemblePolls:
    """An ensemble poll is byte-equal whatever the executor."""

    @pytest.fixture(scope="class")
    def reference(self):
        return pool_polls()

    def test_serial_thread_and_process_executors_equal_the_default(self, reference):
        assert pool_polls("serial") == reference
        with ThreadExecutor(2) as executor:
            assert pool_polls(executor) == reference
        with ProcessExecutor(2) as executor:
            assert pool_polls(executor) == reference

    @pytest.mark.parametrize("executor", [None, "serial"])
    def test_one_native_call_polls_every_due_member(self, executor):
        made = []
        real = _kernel.poll_logs

        def spy(logs, *args):
            made.append(len(logs))
            return real(logs, *args)

        source = PoolStream(0)
        with use_kernel("fast"):  # the python kernel polls member by member
            detector = StreamingEnsembleDetector(
                window=100, capacity=2000, seed=3, executor=executor
            )
        with mock.patch.object(_kernel, "poll_logs", spy):
            for _ in range(12):
                detector.extend(source.next_chunk())
            detector.detect(3)
            detector.detect(3)  # cached: nothing polled again
        assert made == [len(detector.members)]

    def test_capture_sees_grammar_and_density_of_a_default_poll(self):
        with use_kernel("fast"):
            detector = StreamingEnsembleDetector(window=100, capacity=2000, seed=4)
        source = PoolStream(1)
        for _ in range(12):
            detector.extend(source.next_chunk())
        with capture() as times:
            detector.detect(3)
        assert times.get("grammar", 0) > 0 and times.get("density", 0) > 0
        assert times.get("combine", 0) > 0


class TestFailedIngest:
    @pytest.mark.parametrize("kernel", ["fast", "python"])
    def test_members_that_logged_the_block_feed_their_generations(self, kernel):
        """When one member's ingest fails, the members before it have logged
        the block, and their decay generations must hold its tokens too."""
        feed = make_feed(7, 1200)
        with use_kernel(kernel):
            failing, reference = (
                StreamingEnsembleDetector(
                    window=30, ensemble_size=6, capacity=300, policy="decay", seed=5
                )
                for _ in range(2)
            )
        failing.extend(feed[:600])
        reference.extend(feed[:600])
        broken = 3
        with mock.patch.object(
            failing.members[broken], "_ingest_block", side_effect=MemoryError("injected")
        ):
            with pytest.raises(MemoryError, match="injected"):
                failing.extend(feed[600:])
        reference.extend(feed[600:])
        # The failed drain never advanced the horizon; advance it as the
        # drain would have, for the members that logged the block.
        start = failing.state.trim()
        assert start == reference.horizon_start > 0
        for index in range(broken):
            member, expected = failing.members[index], reference.members[index]
            member._forget_before(start)
            assert member._log.kept == expected._log.kept
            assert member.density_curve().tobytes() == expected.density_curve().tobytes()


class TestMemoryBytes:
    @staticmethod
    def log_bytes(log: TokenLog) -> int:
        sizes = log._export()[0]
        cap, width = sizes[1], sizes[5]
        slot_cap, rule_cap, table_cap, pending_cap = sizes[7:11]
        assert cap >= log.stored
        return (
            12 * cap
            + np.dtype(np.intp).itemsize * width
            + ARENA_SLOT * slot_cap
            + ARENA_OTHER * (rule_cap + table_cap + pending_cap)
        )

    @pytest.mark.parametrize(
        "capacity, policy", [(None, "sliding"), (400, "sliding"), (400, "decay")]
    )
    def test_a_members_figure_is_interner_plus_log_plus_builders(self, capacity, policy):
        # The fast kernel's figure is exact; the python oracle builder's is
        # an estimate per fed token.
        with use_kernel("fast"):
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
            if member._generations is not None:
                expected += member._generations.memory_bytes()
            assert member.memory_bytes() == expected
        assert polled
        sizes = member._log._export()[0]
        # The arena exists once a sliding or unbounded member has polled.
        assert (sizes[7] > 0) == (policy != "decay")
