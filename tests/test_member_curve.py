"""One native call per ensemble member: ``member_curve`` against the chain.

:func:`repro.grammar._kernel.member_curve` runs a batch member's whole
pipeline in C. Its contract is the chain it replaces —
``sax_tokens -> feed_many -> occurrence_spans ->
density_curve_from_token_spans`` — byte for byte, with the same error for
every bad input, with exact numerosity reduction and without. The chain's stages are native too and pinned against the
Python oracles by their own suites; real members of a series are also
checked against the whole oracle pipeline of ``tests/oracles/`` here.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pipeline
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.grammar import _kernel
from repro.grammar._kernel import FastSequitur, member_curve
from repro.grammar.density import density_curve_from_token_spans
from repro.sax._kernel import sax_tokens
from repro.sax.breakpoints import MultiResolutionAlphabet

TABLE = MultiResolutionAlphabet(10, 2)


def chain(intervals, symbols, window, length, reduce=True):
    """The four calls ``member_curve`` fuses, as the engine used to make them."""
    offsets, ids = sax_tokens(intervals, symbols, reduce=reduce)
    if not len(ids):
        raise ValueError("cannot induce a grammar from an empty token sequence")
    builder = FastSequitur()
    builder.feed_many(ids)
    firsts, lasts = builder.occurrence_spans()
    return density_curve_from_token_spans(offsets, window, firsts, lasts, length)


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
    expected = chain(intervals, column, window, length, reduce)
    curve, phase_ns = member_curve(intervals, column, window, length, reduce=reduce)
    assert curve.dtype == np.float64 and curve.shape == (length,)
    assert curve.tobytes() == expected.tobytes()
    assert len(phase_ns) == 4 and all(ns >= 0 for ns in phase_ns)


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
        curve, _ = member_curve(intervals, column, 60, len(series), reduce=reduce)
        expected = pipeline.member_curve(series, 60, width, alphabet, numerosity=numerosity)
        assert curve.tobytes() == expected.tobytes()

    def test_all_equal_rows_give_a_zero_curve(self):
        intervals = np.full((30, 4), 2, dtype=np.intp)
        curve, _ = member_curve(intervals, TABLE.symbol_column(5), 7, 36)
        assert curve.tobytes() == np.zeros(36).tobytes()


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
