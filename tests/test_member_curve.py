"""One native call per ensemble member: ``member_curve`` against the chain.

:func:`repro.grammar._kernel.member_curve` runs a batch member's whole
pipeline in C. Its contract is the chain it replaces —
``sax_tokens -> feed_many -> occurrence_spans ->
density_curve_from_token_spans`` — byte for byte, with the same error for
every bad input, with exact numerosity reduction and without; its two
counts are the chain's token count and the frozen grammar's
``grammar_size()``. Each thread runs its members on one warm native
workspace, which must never show: a member's curve and counts are those of
a fresh thread, whatever ran on the thread before, a failed call included. The chain's stages are native too and pinned against
the Python oracles by their own suites; real members of a series are also
checked against the whole oracle pipeline of ``tests/oracles/`` here.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pipeline
from oracles.sequitur import induce_grammar
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.grammar import _kernel
from repro.grammar._kernel import FastSequitur, member_curve
from repro.grammar.density import density_curve_from_token_spans
from repro.sax._kernel import sax_tokens
from repro.sax.breakpoints import MultiResolutionAlphabet

TABLE = MultiResolutionAlphabet(10, 2)


def chain(intervals, symbols, window, length, reduce=True):
    """The four calls ``member_curve`` fuses, as the engine used to make them,
    and ``(kept tokens, grammar size)`` of the frozen grammar."""
    offsets, ids = sax_tokens(intervals, symbols, reduce=reduce)
    if not len(ids):
        raise ValueError("cannot induce a grammar from an empty token sequence")
    builder = FastSequitur()
    builder.feed_many(ids)
    firsts, lasts = builder.occurrence_spans()
    curve = density_curve_from_token_spans(offsets, window, firsts, lasts, length)
    size = builder.freeze([str(i) for i in range(int(ids.max()) + 1)]).grammar_size()
    return curve, (len(ids), size)


@st.composite
def members(draw):
    """An interval matrix over the merged 2..10 table, one alphabet column,
    a window, a curve length around the matrix's natural one and whether to
    reduce."""
    width = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 120))
    alphabet = draw(st.integers(2, 10))
    column = TABLE.symbol_column(alphabet)
    # A few distinct intervals make repeats (and so rules) likely.
    palette = draw(st.integers(1, len(column)))
    values = draw(
        st.lists(st.integers(0, palette - 1), min_size=rows * width, max_size=rows * width)
    )
    intervals = np.asarray(values, dtype=np.intp).reshape(rows, width)
    window = draw(st.integers(1, 40))
    natural = rows + window - 1
    length = draw(st.integers(max(1, natural - 15), natural + 15))
    return intervals, column, window, length, draw(st.booleans())


def check(intervals, column, window, length, reduce=True):
    expected, counts = chain(intervals, column, window, length, reduce)
    curve, phase_ns, native_counts = member_curve(
        intervals, column, window, length, reduce=reduce
    )
    assert curve.dtype == np.float64 and curve.shape == (length,)
    assert curve.tobytes() == expected.tobytes()
    assert len(phase_ns) == 4 and all(ns >= 0 for ns in phase_ns)
    assert native_counts == counts


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(member=members())
    @example(member=(np.zeros((1, 1), dtype=np.intp), TABLE.symbol_column(2), 1, 1, True))
    @example(member=(np.zeros((1, 10), dtype=np.intp), TABLE.symbol_column(10), 10, 10, True))
    @example(member=(np.full((50, 10), 3, dtype=np.intp), TABLE.symbol_column(4), 5, 54, True))
    @example(member=(np.full((50, 10), 3, dtype=np.intp), TABLE.symbol_column(4), 5, 54, False))
    @example(
        member=(np.tile([[0], [1]], (40, 1)).astype(np.intp), TABLE.symbol_column(2), 3, 82, True)
    )
    def test_equals_the_chain(self, member):
        check(*member)

    @pytest.mark.parametrize("numerosity", ["exact", "none"])
    @pytest.mark.parametrize("alphabet", range(2, 11))
    @pytest.mark.parametrize("width", [1, 10])
    def test_real_members_of_a_series(self, alphabet, width, numerosity):
        series = np.cumsum(np.random.default_rng(alphabet * width).standard_normal(1500))
        discretizer = MultiResolutionDiscretizer(series, 60, 10, 10)
        intervals = discretizer.interval_matrix(width)
        column = discretizer.alphabet_table.symbol_column(alphabet)
        reduce = numerosity == "exact"
        check(intervals, column, 60, len(series), reduce)
        curve, _, counts = member_curve(intervals, column, 60, len(series), reduce=reduce)
        expected = pipeline.member_curve(series, 60, width, alphabet, numerosity=numerosity)
        assert curve.tobytes() == expected.tobytes()
        tokens = pipeline.member_tokens(series, 60, width, alphabet, numerosity=numerosity)
        assert counts == (len(tokens), induce_grammar(tokens.words).grammar_size())

    def test_all_equal_rows_give_a_zero_curve(self):
        intervals = np.full((30, 4), 2, dtype=np.intp)
        curve, _, (kept, size) = member_curve(intervals, TABLE.symbol_column(5), 7, 36)
        assert curve.tobytes() == np.zeros(36).tobytes()
        assert (kept, size) == (1, 2)  # R0 -> one word


class TestErrors:
    @pytest.mark.parametrize(
        "intervals, symbols",
        [
            ([[0, 1], [5, 0]], [0, 1, 2, 3, 4]),  # interval past the column
            ([[0, 1], [-1, 0]], [0, 1, 2, 3, 4]),  # negative interval
            ([[0, 1], [1, 0]], [0, 1, 300]),  # symbol past the letters
            ([[0, 1], [1, 0]], [0, -1, 2]),  # negative symbol
        ],
    )
    def test_values_outside_the_tables_raise_index_error_like_the_chain(
        self, intervals, symbols
    ):
        intervals = np.asarray(intervals, dtype=np.intp)
        symbols = np.asarray(symbols, dtype=np.int64)
        with pytest.raises(IndexError):
            chain(intervals, symbols, 3, 5)
        with pytest.raises(IndexError, match="alphabet column"):
            member_curve(intervals, symbols, 3, 5)

    def test_no_rows_is_an_empty_token_sequence(self):
        intervals = np.zeros((0, 3), dtype=np.intp)
        with pytest.raises(ValueError, match="empty token sequence"):
            chain(intervals, TABLE.symbol_column(3), 3, 5)
        with pytest.raises(ValueError, match="empty token sequence"):
            member_curve(intervals, TABLE.symbol_column(3), 3, 5)

    @pytest.mark.parametrize(
        "intervals, symbols, length, error",
        [
            (np.zeros((4, 3), dtype=np.int32), np.arange(5), 6, TypeError),
            (np.zeros((4, 3), dtype=np.intp), np.arange(5, dtype=np.int32), 6, TypeError),
            (np.zeros(4, dtype=np.intp), np.arange(5), 6, ValueError),
            (np.zeros((4, 3), dtype=np.intp)[:, ::2], np.arange(5), 6, ValueError),
            (np.zeros((4, 0), dtype=np.intp), np.arange(5), 6, ValueError),
            (np.zeros((4, 3), dtype=np.intp), np.arange(0), 6, ValueError),
            (np.zeros((4, 3), dtype=np.intp), np.arange(5), 0, ValueError),
        ],
    )
    def test_bad_inputs_raise_before_the_c_call(
        self, monkeypatch, intervals, symbols, length, error
    ):
        class NoCalls:
            def __getattr__(self, name):
                raise AssertionError(f"{name} was called")

        monkeypatch.setattr(_kernel, "_lib", NoCalls())
        with pytest.raises(error):
            member_curve(intervals, symbols, 3, length)

    def test_status_table_covers_every_stage(self):
        errors = _kernel._MEMBER_ERRORS
        assert errors[-2][0] is MemoryError
        assert errors[-5][0] is IndexError and errors[-6][0] is ValueError
        assert errors[-7][0] is IndexError and errors[-8][0] is ValueError
        assert errors[-3][0] is RuntimeError and errors[-4][0] is RuntimeError

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
    def test_allocation_failure_raises_memory_error(self):
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.grammar._kernel import member_curve

            intervals = np.zeros((1 << 21, 1), dtype=np.intp)
            column = np.arange(3, dtype=np.int64)
            with open("/proc/self/status") as status:
                size = next(int(line.split()[1]) for line in status if line.startswith("VmSize"))
            resource.setrlimit(resource.RLIMIT_AS, ((size << 10) + (32 << 20), resource.RLIM_INFINITY))
            try:
                member_curve(intervals, column, 4, 16)
                print("ran")
            except MemoryError:
                print("MemoryError")
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["MemoryError"]


def on_fresh_thread(function, *args, **kwargs):
    """``function(*args, **kwargs)`` on a new thread, which has no workspace yet."""
    out = {}

    def run():
        try:
            out["value"] = function(*args, **kwargs)
        except BaseException as error:  # re-raised on the caller
            out["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


def live_workspaces() -> int:
    return _kernel._lib.seq_space_live()


def retained_bytes() -> int:
    """Bytes the calling thread's workspace holds between members."""
    return _kernel._lib.seq_space_bytes(_kernel._workspace())


def random_member(seed, rows, width, alphabet, palette):
    rng = np.random.default_rng(seed)
    intervals = rng.integers(0, palette, size=(rows, width)).astype(np.intp)
    return intervals, TABLE.symbol_column(alphabet)


class TestWorkspace:
    """The per-thread workspace is invisible in the results and bounded."""

    def test_interleaved_members_equal_a_fresh_thread(self):
        # Very different sizes, widths, alphabets and both numerosity
        # strategies, so the arena, the row table and the scratch buffers
        # each shrink and grow between members.
        members = [
            (*random_member(1, 20_000, 3, 10, 17), 30, 20_029, False),
            (*random_member(2, 5, 1, 2, 2), 3, 7, True),
            (*random_member(3, 4_000, 10, 10, 4), 60, 4_059, True),
            (*random_member(4, 1, 1, 2, 1), 1, 1, True),
            (*random_member(5, 30_000, 2, 3, 3), 100, 30_099, True),
            (*random_member(6, 900, 8, 7, 12), 20, 919, False),
            (np.zeros((50, 4), dtype=np.intp), TABLE.symbol_column(4), 5, 54, True),
        ]
        for intervals, column, window, length, reduce in members * 2:
            curve, _, counts = member_curve(intervals, column, window, length, reduce=reduce)
            fresh, _, fresh_counts = on_fresh_thread(
                member_curve, intervals, column, window, length, reduce=reduce
            )
            assert curve.tobytes() == fresh.tobytes()
            assert counts == fresh_counts
        check(*members[2][:4])  # and the chain still agrees after all that

    def test_an_error_leaves_the_workspace_fit_for_the_next_member(self):
        intervals, column = random_member(7, 3_000, 4, 6, 9)
        expected = on_fresh_thread(member_curve, intervals, column, 40, 3_039)[0]
        member_curve(intervals, column, 40, 3_039)
        with pytest.raises(IndexError):
            member_curve(np.full((10, 4), 99, dtype=np.intp), column, 40, 49)
        with pytest.raises(ValueError, match="empty token sequence"):
            member_curve(np.zeros((0, 4), dtype=np.intp), column, 40, 49)
        assert member_curve(intervals, column, 40, 3_039)[0].tobytes() == expected.tobytes()

    def test_a_huge_member_leaves_no_more_than_the_bound(self):
        keep = _kernel.WORKSPACE_KEEP_BYTES
        assert keep == 4 << 20
        intervals, column = random_member(8, 2_000, 4, 6, 9)
        member_curve(intervals, column, 40, 2_039)
        warm = retained_bytes()
        assert 0 < warm <= keep  # a small member's buffers are kept
        # Every window a token: the arena and scratch alone pass the bound.
        huge, huge_column = random_member(9, 300_000, 1, 3, 3)
        member_curve(huge, huge_column, 10, 300_009, reduce=False)
        assert retained_bytes() <= keep
        assert member_curve(intervals, column, 40, 2_039)[0].tobytes() == (
            on_fresh_thread(member_curve, intervals, column, 40, 2_039)[0].tobytes()
        )
        assert 0 < retained_bytes() <= keep

    def test_a_thread_frees_its_workspace_when_it_ends(self):
        baseline = live_workspaces()
        during = []

        def run():
            member_curve(*random_member(10, 500, 3, 5, 6), 20, 519)
            during.append(live_workspaces())

        threads = [threading.Thread(target=run) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(count > baseline for count in during)
        deadline = time.monotonic() + 5
        while live_workspaces() != baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert live_workspaces() == baseline

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
    def test_the_next_member_after_an_allocation_failure_equals_the_oracle(self):
        """Fail mid-feed under an address-space cap, then run a small member
        on the same thread, still under the cap, against the oracle pipeline."""
        tests = Path(__file__).resolve().parent
        script = textwrap.dedent(
            f"""
            import resource, sys
            sys.path.insert(0, {str(tests)!r})
            import numpy as np
            from oracles import pipeline
            from repro.core.multiresolution import MultiResolutionDiscretizer
            from repro.grammar import _kernel
            from repro.grammar._kernel import member_curve

            series = np.cumsum(np.random.default_rng(3).standard_normal(1500))
            discretizer = MultiResolutionDiscretizer(series, 60, 6, 6)
            small = discretizer.interval_matrix(6), discretizer.alphabet_table.symbol_column(5)
            expected = pipeline.member_curve(series, 60, 6, 5)
            member_curve(*small, 60, len(series))  # warm this thread's workspace
            # Every row a token of 3 letters: the scratch fits, the arena does not.
            rng = np.random.default_rng(4)
            huge = rng.integers(0, 3, size=(1 << 20, 1)).astype(np.intp)
            column = np.arange(3, dtype=np.int64)
            with open("/proc/self/status") as status:
                size = next(int(line.split()[1]) for line in status if line.startswith("VmSize"))
            resource.setrlimit(resource.RLIMIT_AS, ((size << 10) + (48 << 20), resource.RLIM_INFINITY))
            try:
                member_curve(huge, column, 4, (1 << 20) + 3, reduce=False)
                print("ran")
            except MemoryError:
                print("MemoryError")
            print(_kernel._lib.seq_space_bytes(_kernel._workspace()) <= _kernel.WORKSPACE_KEEP_BYTES)
            curve = member_curve(*small, 60, len(series))[0]
            print(curve.tobytes() == expected.tobytes())
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["MemoryError", "True", "True"]
