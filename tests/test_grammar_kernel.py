"""Native Sequitur equivalence: the arena against the Python reference.

The contract (see ``repro/grammar/_kernel.py``): for any token sequence,
the native arena produces the identical frozen
:class:`~repro.grammar.rules.Grammar` — same rules, same numbering, same
refcounts — and the identical occurrence-span arrays, element by element
(the kernel walk visits nodes in the oracle's order). Grammar structure
depends only on the equality pattern of the tokens, so interning token
strings to integer ids is invisible to the result.

The property suite drives random (repetition-biased) token streams through
the arena and the reference ``SequiturBuilder`` of ``tests/oracles/``
side by side, asserting
after every token the digram-table invariant the tail-only reduction's
dropped branches rely on; the kernel itself checks the reduction's
precondition on every match and fails the feed if it does not hold.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import platform
import shlex
import subprocess
import sys
import sysconfig
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import sequitur as oracle_sequitur
from oracles.sequitur import GenerationalOracle, SequiturBuilder
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.datasets.planting import make_corpus
from repro.datasets.ucr_like import DATASETS
from repro.grammar import _kernel
from repro.grammar._kernel import FastSequitur, TokenLog
from repro.grammar.sequitur import induce_grammar
from repro.sax.alphabet import WordInterner

#: Token streams with heavy repetition (small alphabets make digram matches,
#: rule reuse, and rule-utility inlining all fire often).
token_streams = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200)

#: Fixed regressions: runs of one symbol exercise the triple-repetition
#: digram fix at every length; the last case is the paper's Eq. (4).
FIXED_STREAMS = (
    [[0] * n for n in range(1, 18)]
    + [[0, 1, 0, 1], [0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 0, 1]]
    + [[0, 1, 2, 3, 4, 0, 1, 2]]  # ab bc aa cc ca ab bc aa
    # Shortest streams whose digram table tells apart a reduction that
    # skips one of the run-of-identical-symbols fixes.
    + [
        [0, 0, 0, 1, 2, 0, 3, 1, 2],
        [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1],
        [0, 1, 1, 1, 2, 0, 1],
        [0, 0, 0, 1, 0, 0, 0, 1, 0, 1],
        [0, 1, 0, 1, 1, 1, 1, 2, 1, 0, 2, 1],
        [0, 1, 2, 0, 2, 1, 0, 0, 0, 1, 0, 2, 0, 0, 2, 2, 2, 0, 2],
    ]
    # The fix at the earlier occurrence's insertion (anchor.prev, anchor and
    # the symbol after the replaced digram all equal) decides which
    # occurrence of w0 w0 the last two tokens match.
    + [[0, 0, 0, 1, 2, 0, 3, 1, 2, 1, 0, 0]]
)


def _fibonacci_word(length: int) -> list[int]:
    previous, current = [0], [0, 1]
    while len(current) < length:
        previous, current = current, current + previous
    return current[:length]


def _thue_morse(length: int) -> list[int]:
    return [bin(i).count("1") & 1 for i in range(length)]


def _doubling(depth: int) -> list[int]:
    """``s -> s s k``: each level wraps the previous one in a new rule."""
    stream: list[int] = [0]
    for marker in range(1, depth + 1):
        stream = stream + stream + [marker]
    return stream


#: Deeply nested parse trees: rules of rules many levels down, so the
#: span walk opens and closes long chains of nodes at one guard after
#: another. Periodic and ``abab...`` streams nest logarithmically; the
#: Fibonacci and Thue-Morse words and the doubling stream force repeated
#: rule reuse and rule-utility inlining on the way.
NESTED_STREAMS = {
    "periodic-7": list(range(7)) * 60,
    "abab-1024": [0, 1] * 512,
    "aab-periodic": [0, 0, 1] * 200,
    "fibonacci-987": _fibonacci_word(987),
    "thue-morse-1024": _thue_morse(1024),
    "doubling-9": _doubling(9),
    "periodic-with-glitches": [
        3 if i % 97 == 0 else i % 5 for i in range(1200)
    ],
}


#: Real ensemble members: ``token_ids`` for a few ``(w, a)`` on two planted
#: cases. About 1k tokens each, with longer reduction cascades than the
#: 200-token property streams reach.
MEMBER_CASES = [
    (dataset, w, a) for dataset in ("Wafer", "Trace") for w, a in ((4, 5), (6, 4), (7, 6))
]


def _assert_table_owned(builder: FastSequitur) -> None:
    """Every digram-table entry is owned by a linked symbol that starts that
    digram now (what makes the oracle's other stale-entry deletes dead)."""
    value, nxt, prv, digrams, _, _, _ = builder._arena()
    for key, owner in digrams.items():
        after = nxt[owner]
        assert nxt[prv[owner]] == owner and prv[after] == owner
        assert key == (value[owner] << 32) | value[after]


def _feed_checked(stream) -> FastSequitur:
    """Feed token by token, asserting the table invariant after each one.

    The tail-only reduction's own precondition (``next[next[new]]`` is R0's
    guard) is checked by the kernel on every reduction: a violation raises
    :class:`RuntimeError` out of the feed.
    """
    builder = FastSequitur()
    for token in stream:
        builder.feed(token)
        _assert_table_owned(builder)
    return builder


def _n_rules(builder: FastSequitur) -> int:
    return len(builder._arena()[5])


def _vocabulary(stream) -> list[str]:
    return [f"w{i}" for i in range(max(stream) + 1)]


def _oracle(stream):
    builder = SequiturBuilder()
    vocabulary = _vocabulary(stream)
    for token in stream:
        builder.feed(vocabulary[token])
    return builder


def _fast_table(builder: FastSequitur) -> dict:
    """The digram table as ``{(left, right): (rule serial, index)}`` of the
    owner's place in the live grammar (``None`` for a detached owner)."""
    value, nxt, _, digrams, _, rule_guard, _ = builder._arena()
    place: dict[int, tuple[int, int]] = {}
    seen = {0}
    pending = [0]
    while pending:
        serial = pending.pop()
        symbol, index = nxt[rule_guard[serial]], 0
        while value[symbol] >= 0:
            place[symbol] = (serial, index)
            if value[symbol] & 1 and value[symbol] >> 1 not in seen:
                seen.add(value[symbol] >> 1)
                pending.append(value[symbol] >> 1)
            symbol, index = nxt[symbol], index + 1

    def name(v: int) -> tuple:
        return ("rule", v >> 1) if v & 1 else ("word", f"w{v >> 1}")

    return {
        (name(key >> 32), name(key & 0xFFFFFFFF)): place.get(owner)
        for key, owner in digrams.items()
    }


def _oracle_table(builder: SequiturBuilder) -> dict:
    """:func:`_fast_table` for the reference builder."""
    place: dict[int, tuple[int, int]] = {}
    seen = {0}
    pending = [builder.root]
    while pending:
        rule = pending.pop()
        symbol, index = rule.first(), 0
        while not symbol.is_guard:
            place[id(symbol)] = (rule.serial, index)
            if symbol.is_nonterminal and symbol.rule.serial not in seen:
                seen.add(symbol.rule.serial)
                pending.append(symbol.rule)
            symbol, index = symbol.next, index + 1

    def name(key) -> tuple:
        return ("word", key) if isinstance(key, str) else ("rule", key)

    return {
        (name(left), name(right)): place.get(id(owner))
        for (left, right), owner in builder._digrams.items()
    }


def _assert_matches_oracle(builder, stream) -> None:
    """Frozen grammar, refcounts, span arrays and the digram table (entry by
    entry, by its owner's place in the grammar) must match the oracle."""
    oracle = _oracle(stream)
    assert _fast_table(builder) == _oracle_table(oracle)
    expected = oracle.freeze()
    actual = builder.freeze(_vocabulary(stream))
    assert actual == expected
    assert actual.rule_refcounts() == expected.rule_refcounts()
    firsts, lasts = builder.occurrence_spans()
    expected_firsts, expected_lasts = expected.occurrence_spans()
    assert firsts.dtype == lasts.dtype == np.int64
    assert np.array_equal(firsts, expected_firsts)
    assert np.array_equal(lasts, expected_lasts)


class TestFastKernelEquivalence:
    @given(stream=token_streams)
    def test_feed_matches_oracle(self, stream):
        _assert_matches_oracle(_feed_checked(stream), stream)

    @given(stream=token_streams)
    def test_feed_many_matches_feed(self, stream):
        """Token-by-token and batched feeding leave identical arenas."""
        one_by_one = _feed_checked(stream)
        batched = FastSequitur()
        batched.feed_many(np.asarray(stream, dtype=np.int64))
        assert batched._arena() == one_by_one._arena()
        assert batched.n_tokens == len(stream)

    @given(stream=token_streams, split=st.integers(min_value=0, max_value=200))
    def test_incremental_prefix_feeding(self, stream, split):
        """feed_many in two arbitrary chunks equals one pass (streaming's
        catch-up repair relies on exactly this)."""
        split = min(split, len(stream))
        chunked = FastSequitur()
        chunked.feed_many(stream[:split])
        chunked.feed_many(stream[split:])
        _assert_matches_oracle(chunked, stream)

    @pytest.mark.parametrize("stream", FIXED_STREAMS, ids=repr)
    def test_fixed_regressions(self, stream):
        builder = FastSequitur()
        builder.feed_many(stream)
        _assert_matches_oracle(builder, stream)
        assert _feed_checked(stream)._arena() == builder._arena()

    @pytest.mark.parametrize("stream", NESTED_STREAMS.values(), ids=NESTED_STREAMS.keys())
    def test_deeply_nested_streams(self, stream):
        builder = FastSequitur()
        builder.feed_many(stream)
        assert _n_rules(builder) > 1
        _assert_matches_oracle(builder, stream)
        assert _feed_checked(stream)._arena() == builder._arena()
        # The streams really are deep: some occurrence sits inside a chain
        # of enclosing occurrences several levels high.
        firsts, lasts = builder.occurrence_spans()
        depth = np.zeros(len(stream) + 1, dtype=np.int64)
        np.add.at(depth, firsts, 1)
        np.add.at(depth, lasts + 1, -1)
        assert np.cumsum(depth).max() >= 4

    @pytest.mark.parametrize("dataset, w, a", MEMBER_CASES)
    def test_member_sequences(self, dataset, w, a):
        case = make_corpus(DATASETS[dataset], n_cases=1, seed=3)[0]
        discretizer = MultiResolutionDiscretizer(case.series, case.gt_length, w, a)
        stream = discretizer.token_ids(w, a).ids.tolist()
        batched = FastSequitur()
        batched.feed_many(stream)
        assert len(stream) > 300 and _n_rules(batched) > 1
        _assert_matches_oracle(batched, stream)
        assert _feed_checked(stream)._arena() == batched._arena()

    def test_paper_example(self):
        """Eq. (4): R0 -> R1 cc ca R1, R1 -> ab bc aa (Table 2)."""
        words = ["ab", "bc", "aa", "cc", "ca", "ab", "bc", "aa"]
        grammar = induce_grammar(words)
        assert grammar.rules[0].rhs == (1, "cc", "ca", 1)
        assert grammar.rules[1].rhs == ("ab", "bc", "aa")

    @given(stream=token_streams)
    def test_memory_bytes_positive_and_grows(self, stream):
        builder = FastSequitur()
        builder.feed_many(stream)
        grown = builder.memory_bytes()
        assert grown > 0
        builder.feed_many(stream)
        assert builder.memory_bytes() >= grown

    @pytest.mark.parametrize("stream", NESTED_STREAMS.values(), ids=NESTED_STREAMS.keys())
    def test_memory_bytes_is_the_native_capacity(self, stream):
        """24 B per slot, 16 B per digram bucket, rule and pending level of
        the kernel's own capacity report; it never shrinks while feeding."""
        builder = FastSequitur()
        previous = 0
        for token in stream:
            builder.feed(token)
            _, slots, _, rules, buckets, levels, _, _ = builder._export()[0]
            value, _, _, digrams, rule_count, _, _ = builder._arena()
            assert slots >= len(value) and rules >= len(rule_count)
            assert buckets >= 2 * len(digrams)
            reported = builder.memory_bytes()
            assert reported == 24 * slots + 16 * (buckets + rules + levels)
            assert reported >= previous
            previous = reported


class TestNativeHandle:
    def test_pickle_and_copy_are_refused(self):
        """Two Python objects must never free the same native arena."""
        builder = FastSequitur()
        builder.feed_many([0, 1, 0, 1])
        with pytest.raises(TypeError, match="native arena"):
            pickle.dumps(builder)
        with pytest.raises(TypeError, match="native arena"):
            copy.copy(builder)
        with pytest.raises(TypeError, match="native arena"):
            copy.deepcopy(builder)

    @pytest.mark.parametrize("bad", [-1, 2**31, 2**32, 2**40])
    def test_ids_outside_the_packed_key_are_rejected(self, bad):
        """Each side of a digram key has 32 bits for an encoded id, so ids
        must lie in [0, 2**31); a bad batch feeds nothing."""
        builder = FastSequitur()
        builder.feed_many([0, 2**31 - 1])
        before = builder._arena()
        with pytest.raises(ValueError, match="2\\*\\*31"):
            builder.feed(bad)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            builder.feed_many(np.asarray([0, 1, bad], dtype=np.int64))
        assert builder._arena() == before
        builder.feed_many([0, 2**31 - 1])
        assert builder.n_tokens == 4

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
    def test_allocation_failure_raises_memory_error(self):
        """A failed native allocation surfaces as MemoryError, and the
        builder keeps refusing afterwards instead of feeding a torn arena."""
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.grammar._kernel import FastSequitur

            ids = np.arange(1 << 21, dtype=np.int64)
            builder = FastSequitur()
            with open("/proc/self/status") as status:
                size = next(int(line.split()[1]) for line in status if line.startswith("VmSize"))
            resource.setrlimit(resource.RLIMIT_AS, ((size << 10) + (32 << 20), resource.RLIM_INFINITY))
            outcomes = []
            for _ in range(2):
                try:
                    builder.feed_many(ids)
                    outcomes.append("fed")
                except MemoryError:
                    outcomes.append("MemoryError")
            print(*outcomes)
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["MemoryError", "MemoryError"]


class TestNativeBuild:
    def test_build_writes_a_content_addressed_library(self, tmp_path, monkeypatch):
        machine = platform.machine()
        command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_kernel._FLAGS]
        # One library from both C files, named after the first, hashed over all.
        sources = [source.read_bytes() for source in _kernel._SOURCES]
        assert [source.name for source in _kernel._SOURCES] == ["_sequitur.c", "_sax.c"]
        digest = hashlib.sha256(
            b"\0".join([*sources, machine.encode(), *(p.encode() for p in command)])
        ).hexdigest()[:16]
        built = _kernel._build(_kernel._SOURCES, tmp_path)
        assert built == tmp_path / f"_sequitur.{machine}-{digest}.so"
        assert sorted(path.name for path in tmp_path.iterdir()) == [built.name]
        library = _kernel._load(built, _kernel._SIGNATURES)
        handle = library.seq_new()
        try:
            assert library.seq_feed(handle, 3) == 0 and library.seq_n_tokens(handle) == 1
        finally:
            library.seq_free(handle)
        table = library.sax_table_new()
        try:
            assert library.sax_table_size(table) == 0
        finally:
            library.sax_table_free(table)
        # A second build finds the library and compiles nothing.
        def no_compiler(*args, **kwargs):
            raise AssertionError("compiled again")

        monkeypatch.setattr(_kernel.subprocess, "run", no_compiler)
        assert _kernel._build(_kernel._SOURCES, tmp_path) == built

    def test_compile_command_is_part_of_the_name(self, tmp_path):
        """A flag change must build a new library, never reuse a stale one."""
        default = _kernel._build(_kernel._SOURCES, tmp_path)
        other = _kernel._build(_kernel._SOURCES, tmp_path, flags=("-O1", "-shared", "-fPIC"))
        assert "-ffp-contract=off" in _kernel._FLAGS
        assert default != other and default.stem.split("-")[0] == other.stem.split("-")[0]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [default.name, other.name]
        )

    def test_missing_compiler_is_an_import_error(self, tmp_path):
        with pytest.raises(ImportError) as raised:
            _kernel._build(_kernel._SOURCES, tmp_path, compiler="/nonexistent/cc")
        assert "/nonexistent/cc" in str(raised.value)
        assert all(str(source) in str(raised.value) for source in _kernel._SOURCES)
        assert list(tmp_path.iterdir()) == []

    def test_compiler_errors_are_an_import_error(self, tmp_path):
        with pytest.raises(ImportError, match="_sequitur.c") as raised:
            _kernel._build(
                _kernel._SOURCES,
                tmp_path,
                compiler=f"{sys.executable} -c 'raise SystemExit(\"boom\")'",
            )
        assert "boom" in str(raised.value)
        assert list(tmp_path.iterdir()) == []


class TestInduceGrammarMatchesTheOracle:
    @given(stream=token_streams)
    def test_words_give_the_oracle_grammar(self, stream):
        words = [_vocabulary(stream)[token] for token in stream]
        assert induce_grammar(words) == oracle_sequitur.induce_grammar(words)

    def test_empty_and_type_errors_match_the_oracle(self):
        for induce in (induce_grammar, oracle_sequitur.induce_grammar):
            with pytest.raises(ValueError, match="empty token sequence"):
                induce([])
            with pytest.raises(TypeError, match="must be strings"):
                induce(["ab", 3])

    def test_make_builder_is_a_fresh_native_arena(self):
        builder = _kernel.make_builder()
        assert isinstance(builder, FastSequitur) and builder.n_tokens == 0
        assert builder is not _kernel.make_builder()
        # The end-to-end benchmark's runner labels its reports with this.
        assert _kernel.current_kernel() == "fast"


#: Offsets with long gaps, so generations are skipped as well as filled.
offset_steps = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=200)

#: The identity alphabet column: a one-symbol row ``[[token]]`` is the word
#: of ``token``, so a decay log's ids follow the stream's equality pattern.
IDENTITY = np.arange(8, dtype=np.int64)


class DecayLog:
    """A decay member's native token log, fed one ``(token, offset)`` at a
    time: each token is a one-row block at its offset, unreduced."""

    def __init__(self, generation_size: int) -> None:
        self.log = TokenLog(1, generation_size)
        self.table = WordInterner()

    def feed(self, token: int, offset: int) -> None:
        block = np.asarray([[token]], dtype=np.intp)
        self.table.intern_log(self.log, block, IDENTITY, offset, False)


def assert_generations_match(log: TokenLog, oracle: GenerationalOracle) -> None:
    """Live generations (index, count, spans, rule stats) and retirement
    counters of a decay log equal the oracle's."""
    live = log.generations()
    expected = oracle.live_grammars()
    assert [(g[0], g[1]) for g in live] == [(index, count) for index, _, count in expected]
    for (_, _, rules, refs, firsts, lasts), (_, grammar, _) in zip(live, expected):
        expected_firsts, expected_lasts = grammar.occurrence_spans()
        assert np.array_equal(firsts, expected_firsts)
        assert np.array_equal(lasts, expected_lasts)
        assert (rules, refs) == (grammar.n_rules - 1, sum(grammar.rule_refcounts()))
    assert log.retired == (
        oracle.retired_generations,
        oracle.retired_tokens,
        oracle.retired_rules,
        oracle.retired_rule_refs,
    )


class TestDecayGenerationsMatchTheOracle:
    """A decay member's generations, in its native token log, against the
    word-fed per-generation oracle."""

    @pytest.mark.parametrize("size", [1, 3, 8, 64])
    @given(stream=token_streams, steps=offset_steps, horizon=st.integers(0, 40))
    def test_live_generations_and_retirement_match_the_oracle(self, size, stream, steps, horizon):
        """Live spans, token counts, rule stats and retirement counters,
        with a horizon advance half way."""
        vocabulary = _vocabulary(stream)
        offsets = np.cumsum([steps[i % len(steps)] for i in range(len(stream))]).tolist()
        decay = DecayLog(size)
        oracle = GenerationalOracle(size)
        half = len(stream) // 2
        for position, (token, offset) in enumerate(zip(stream, offsets)):
            if position == half:
                boundary = offsets[half - 1] - horizon if half else 0
                decay.log.forget(boundary, 0)
                oracle.drop_before(boundary)
            decay.feed(token, offset)
            oracle.feed(vocabulary[token], offset)
        assert_generations_match(decay.log, oracle)

    def test_a_poll_out_of_step_with_the_generations_raises(self):
        """A horizon inside a sealed generation leaves it holding tokens that
        are no longer live: the poll refuses it."""
        decay = DecayLog(4)
        for offset in range(12):
            decay.feed(offset % 3, offset)
        decay.log.forget(6, 0)  # generation 1 covers offsets 4..7
        with pytest.raises(RuntimeError, match="out of step"):
            decay.log.curve(2, 6, 8)

    def test_load_routes_the_live_tokens_again(self):
        rng = np.random.default_rng(3)
        decay = DecayLog(16)
        tokens = [(int(rng.integers(0, 5)), offset) for offset in range(0, 300, 2)]
        for token, offset in tokens:
            decay.feed(token, offset)
        decay.log.forget(64, 0)
        assert decay.log.retired[0] == 4
        ids, offsets = decay.log.tokens()
        replayed = TokenLog(1, 16)
        replayed.load(ids, offsets, None, decay.log.pruned)
        for mine, theirs in zip(replayed.generations(), decay.log.generations()):
            assert mine[:4] == theirs[:4]
            assert np.array_equal(mine[4], theirs[4]) and np.array_equal(mine[5], theirs[5])
        assert len(replayed.generations()) == len(decay.log.generations())
        assert replayed.retired == (0, 0, 0, 0)
        for window in (2, 5):
            assert replayed.curve(window, 64, 240)[0].tobytes() == (
                decay.log.curve(window, 64, 240)[0].tobytes()
            )

    def test_sealing_keeps_only_spans(self):
        """Decay soak: a sealed generation keeps only its spans and counts,
        so the log's memory plateaus as generations retire instead of
        growing with every seal."""
        rng = np.random.default_rng(7)
        decay = DecayLog(64)
        readings = []
        for offset in range(6400):
            decay.feed(int(rng.integers(0, 8)), offset)
            if offset % 64 == 63:
                decay.log.forget(max(0, offset - 255), 1024)
                readings.append(decay.log.memory_bytes())
        assert decay.log.retired[0] > 0
        # Live state is ~4 generations throughout: the figure must plateau,
        # not grow with the number of seals (100 generations were sealed).
        assert max(readings[50:]) <= 2 * max(readings[:50])
        sizes = decay.log._export()[0]
        sealed = decay.log.generations()[:-1]
        assert sizes[14] == sum(2 * len(firsts) for *_, firsts, _ in sealed)
        assert len(sealed) + 1 == sizes[12] <= 5
