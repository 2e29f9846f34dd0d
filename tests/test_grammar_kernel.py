"""Kernel equivalence: the fast Sequitur backend against the oracle.

The contract (see ``repro/grammar/_kernel.py``): for any token sequence,
the ``fast`` kernel produces the identical frozen
:class:`~repro.grammar.rules.Grammar` — same rules, same numbering, same
refcounts — and the identical occurrence-span arrays, element by element
(the kernel walk visits nodes in the oracle's order). Grammar structure
depends only on the equality pattern of the tokens, so interning token
strings to integer ids is invisible to the result.

The property suite drives random (repetition-biased) token streams through
the id kernel and the reference ``_SequiturBuilder`` side by side, asserting
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

from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.datasets.planting import make_corpus
from repro.datasets.ucr_like import DATASETS
from repro.grammar import _kernel
from repro.grammar._kernel import FastSequitur
from repro.grammar.sequitur import GenerationalSequitur, _SequiturBuilder, induce_grammar

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
    builder = _SequiturBuilder()
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


def _oracle_table(builder: _SequiturBuilder) -> dict:
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
        with _kernel.use_kernel("fast"):
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


class TestInduceGrammarKernelParity:
    @given(stream=token_streams)
    def test_fast_equals_python(self, stream):
        words = [_vocabulary(stream)[token] for token in stream]
        with _kernel.use_kernel("python"):
            reference = induce_grammar(words)
        with _kernel.use_kernel("fast"):
            fast = induce_grammar(words)
        assert fast == reference

    def test_empty_and_type_errors_survive_the_fast_path(self):
        with _kernel.use_kernel("fast"):
            with pytest.raises(ValueError, match="empty token sequence"):
                induce_grammar([])
            with pytest.raises(TypeError, match="must be strings"):
                induce_grammar(["ab", 3])


class TestKernelSeam:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(_kernel.KERNEL_ENV, raising=False)
        with _kernel.use_kernel(None):
            assert _kernel.current_kernel() == "fast"

    def test_environment_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(_kernel.KERNEL_ENV, "python")
        with _kernel.use_kernel(None):
            assert _kernel.current_kernel() == "python"

    def test_environment_rejects_unknown(self, monkeypatch):
        # Older builds shipped a "compiled" kernel; an environment still
        # naming it must fail loudly, not fall back silently.
        for name in ("turbo", "compiled"):
            monkeypatch.setenv(_kernel.KERNEL_ENV, name)
            with _kernel.use_kernel(None):
                with pytest.raises(ValueError, match="unknown grammar kernel"):
                    _kernel.current_kernel()

    def test_use_kernel_restores_previous(self):
        before = _kernel.current_kernel()
        with _kernel.use_kernel("python"):
            assert _kernel.current_kernel() == "python"
        assert _kernel.current_kernel() == before

    def test_make_builder_rejects_python(self):
        with pytest.raises(ValueError, match="no id-based builder"):
            _kernel.make_builder("python")

    def test_make_builder_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown grammar kernel"):
            _kernel.make_builder("warp")


class TestGenerationalSequiturKernels:
    def test_feed_id_requires_vocabulary(self):
        forgetter = GenerationalSequitur(4, kernel="fast")
        with pytest.raises(ValueError, match="vocabulary"):
            forgetter.feed_id(0, 0)

    def test_live_spans_requires_id_kernel(self):
        forgetter = GenerationalSequitur(4, kernel="python")
        with pytest.raises(ValueError, match="id-based kernel"):
            forgetter.live_spans()

    @given(stream=token_streams)
    def test_feed_id_matches_python_feed(self, stream):
        vocabulary = _vocabulary(stream)
        reference = GenerationalSequitur(8, kernel="python")
        fast = GenerationalSequitur(8, kernel="fast", vocabulary=vocabulary)
        for offset, token in enumerate(stream):
            reference.feed(vocabulary[token], offset)
            fast.feed_id(token, offset)
        expected = reference.live_grammars()
        actual = fast.live_grammars()
        assert [(i, g, c) for i, g, c in actual] == [(i, g, c) for i, g, c in expected]

    @given(stream=token_streams)
    def test_live_spans_match_live_grammars(self, stream):
        vocabulary = _vocabulary(stream)
        forgetter = GenerationalSequitur(8, kernel="fast", vocabulary=vocabulary)
        for offset, token in enumerate(stream):
            forgetter.feed_id(token, offset)
        grammars = {i: g for i, g, _ in forgetter.live_grammars()}
        for index, firsts, lasts, count in forgetter.live_spans():
            expected_firsts, expected_lasts = grammars[index].occurrence_spans()
            assert np.array_equal(firsts, expected_firsts)
            assert np.array_equal(lasts, expected_lasts)
            assert count == grammars[index].expanded_lengths()[0]

    def test_sealing_releases_the_builder_arena(self):
        """Decay soak (the interned-word bugfix): sealed generations must not
        pin retired token storage — memory accounting stays bounded as
        generations retire, instead of accumulating one arena per seal."""
        rng = np.random.default_rng(7)
        vocabulary = [f"w{i}" for i in range(16)]
        forgetter = GenerationalSequitur(64, kernel="fast", vocabulary=vocabulary)
        readings = []
        for offset in range(6400):
            forgetter.feed_id(int(rng.integers(0, 16)), offset)
            if offset % 64 == 63:
                forgetter.drop_before(max(0, offset - 255))
                readings.append(forgetter.memory_bytes())
        assert forgetter.retired_generations > 0
        assert forgetter._current_builder is not None
        # Live state is ~4 generations throughout: the estimate must plateau,
        # not grow with the number of seals (100 generations were sealed).
        assert max(readings[50:]) <= 2 * max(readings[:50])
        # And every *sealed* generation has dropped its builder: only spans,
        # counts and frozen rules remain.
        assert set(forgetter._sealed) == set(forgetter._sealed_spans)

