"""The native streaming interner against its pure-Python oracle.

:class:`repro.sax.alphabet.WordInterner` is a handle on one row table of
``_sax.c``: one C pass per block does exact numerosity reduction (carrying
the row before the block) and interns the kept rows. Its ids go into
session snapshots, so the contract is stronger than equal equality
patterns: kept offsets, id *values* and the vocabulary must equal those of
``tests/oracles/interner.py``, block for block.
"""

from __future__ import annotations

import copy
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles.interner import StreamingOracleInterner
from oracles.interner import WordInterner as OracleInterner
from repro.sax.alphabet import WordInterner


@st.composite
def chunked_streams(draw):
    """``(symbols, chunk sizes, reduce, vocabulary reads)`` of one stream.

    Rows are drawn as runs over a small pool of distinct rows, so repeats
    (and all-equal blocks) are common at every width; chunk sizes include
    0 and 1, so empty and one-row blocks fall on run boundaries.
    """
    width = draw(st.integers(1, 20))
    letters = draw(st.integers(1, 26))
    row = st.lists(st.integers(0, letters - 1), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 8)), max_size=30))
    rows = [pool[index] for index, length in runs for _ in range(length)]
    symbols = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
    chunks = []
    left = len(rows)
    while left:
        size = draw(st.integers(0, left))
        chunks.append(size)
        left -= size
    chunks.insert(draw(st.integers(0, len(chunks))), 0)
    reads = draw(st.lists(st.booleans(), min_size=len(chunks), max_size=len(chunks)))
    return symbols, chunks, draw(st.booleans()), reads


def _run(interner, symbols, chunks, reduce, reads):
    """Feed ``symbols`` in ``chunks``; the concatenated ``(offset, id)`` rows."""
    out, previous, position = [], None, 0
    for size, read in zip(chunks, reads):
        block = symbols[position : position + size]
        kept = interner.intern_packed(block, previous, reduce=reduce)
        out.append(kept + [position, 0])
        if size:
            previous = block[-1]
        if read:
            _ = interner.vocabulary
        position += size
    return np.concatenate(out) if out else np.empty((0, 2), dtype=np.int64)


ALL_EQUAL = np.full((9, 4), 2, dtype=np.int64)


@given(chunked_streams())
@example((np.empty((0, 3), dtype=np.int64), [0, 0], True, [True, False]))
@example((ALL_EQUAL, [1, 0, 3, 1, 4], True, [False] * 5))
@example((ALL_EQUAL, [4, 5], False, [True, True]))
@example((np.arange(40, dtype=np.int64).reshape(2, 20) % 26, [1, 1], True, [False, True]))
@example((np.array([[0], [0], [1], [1], [0]], dtype=np.int64), [2, 0, 1, 2], True, [False] * 4))
def test_blocks_match_the_oracle(stream):
    symbols, chunks, reduce, reads = stream
    native, oracle = WordInterner(), StreamingOracleInterner()
    vocabulary = native.vocabulary
    got = _run(native, symbols, chunks, reduce, reads)
    want = _run(oracle, symbols, chunks, reduce, reads)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got[:, 0], want[:, 0])  # kept offsets
    assert np.array_equal(got[:, 1], want[:, 1])  # id values
    assert len(native) == len(oracle)
    assert native.vocabulary is vocabulary
    assert vocabulary == oracle.vocabulary
    # Round trip: the vocabulary alone rebuilds the same id space.
    restored = WordInterner.from_vocabulary(vocabulary)
    assert restored.vocabulary == vocabulary
    if len(symbols):
        assert np.array_equal(restored.intern_matrix(symbols), native.intern_matrix(symbols))
        assert len(restored) == len(native)
    if vocabulary:
        duplicated = vocabulary + [vocabulary[len(vocabulary) // 2]]
        with pytest.raises(ValueError, match="duplicate word"):
            WordInterner.from_vocabulary(duplicated)
        with pytest.raises(ValueError, match="duplicate word"):
            OracleInterner.from_vocabulary(duplicated)


def test_mixed_widths_share_one_id_space():
    native, oracle = WordInterner(), OracleInterner()
    rng = np.random.default_rng(3)
    for width in (3, 1, 13, 3, 20, 1, 13):
        rows = rng.integers(0, 2, (25, width))
        assert np.array_equal(native.intern_matrix(rows), oracle.intern_matrix(rows))
    assert native.vocabulary == oracle.vocabulary
    assert len({len(word) for word in native.vocabulary}) == 4


def test_from_vocabulary_keeps_ids_and_accepts_any_ascii():
    words = ["ab", "", "ba", "Q9", "abc"]
    interner = WordInterner.from_vocabulary(words)
    assert interner.vocabulary == words and len(interner) == 5
    fused = interner.intern_packed(np.array([[1, 0], [1, 0], [0, 1], [25, 25]]))
    assert fused.tolist() == [[0, 2], [2, 0], [3, 5]]
    assert interner.vocabulary == words + ["zz"]
    with pytest.raises(UnicodeEncodeError):
        WordInterner.from_vocabulary(["ab", "é"])


class TestHandle:
    def test_pickle_and_copies_rebuild_from_the_vocabulary(self):
        interner = WordInterner()
        interner.intern_packed(np.array([[0, 1], [2, 3], [0, 1]]))
        for clone in (
            pickle.loads(pickle.dumps(interner)),
            copy.copy(interner),
            copy.deepcopy(interner),
        ):
            assert type(clone) is WordInterner and clone is not interner
            assert clone.vocabulary == ["ab", "cd"]
            assert clone.intern_matrix(np.array([[2, 3], [4, 4]])).tolist() == [1, 2]
        assert len(interner) == 2  # the original is untouched

    @pytest.mark.parametrize(
        "rows, previous, error",
        [
            (np.array([[0, 1], [26, 0]]), None, IndexError),
            (np.array([[0, 1], [-1, 0]]), None, IndexError),
            (np.zeros(4, dtype=np.int64), None, ValueError),
            (np.zeros((4, 0), dtype=np.int64), None, ValueError),
            (np.zeros((4, 2), dtype=np.int64), np.zeros(3, dtype=np.int64), ValueError),
        ],
    )
    def test_bad_blocks_leave_the_table_unchanged(self, rows, previous, error):
        interner = WordInterner()
        interner.intern_packed(np.array([[5, 5]]))
        before = interner._export()[0]
        with pytest.raises(error):
            interner.intern_packed(rows, previous)
        assert interner._export()[0] == before
        assert interner.vocabulary == ["ff"]

    def test_a_bad_row_late_in_a_block_forgets_the_blocks_new_words(self):
        interner = WordInterner()
        interner.intern_packed(np.array([[5, 5]]))
        block = np.vstack([_distinct_rows(3000, 2)[1:], [[2, 26]]])
        with pytest.raises(IndexError):
            interner.intern_packed(block)
        assert len(interner) == 1 and interner.vocabulary == ["ff"]
        assert interner.intern_packed(block[:3]).tolist() == [[0, 1], [1, 2], [2, 3]]
        assert interner.intern_matrix(np.array([[5, 5], [0, 2]])).tolist() == [0, 2]
        assert interner.vocabulary == ["ff", "ab", "ac", "ad"]


def _distinct_rows(count: int, width: int) -> np.ndarray:
    """``count`` distinct rows: the base-26 digits of 0 .. count - 1."""
    numbers = np.arange(count, dtype=np.int64)[:, None]
    return (numbers // 26 ** np.arange(width - 1, -1, -1, dtype=np.int64)) % 26


class TestMemoryBytes:
    WORDS, WIDTH = 100_000, 5

    def test_native_part_is_the_table_capacity(self):
        """1 B per arena byte, 12 B per id slot and 4 B per bucket of the
        table's own capacity report; capacities only grow."""
        interner = WordInterner()
        assert interner.memory_bytes() == sys.getsizeof([])
        previous = 0
        rows = _distinct_rows(3000, 3)
        for block in np.array_split(rows, 60):
            interner.intern_packed(block)
            n_ids, id_cap, n_bytes, byte_cap, buckets = interner._export()[0]
            assert id_cap >= n_ids and byte_cap >= n_bytes == 3 * n_ids
            assert buckets >= 2 * n_ids and buckets & (buckets - 1) == 0
            native = byte_cap + 12 * id_cap + 4 * buckets
            assert interner.memory_bytes() == native + sys.getsizeof([])
            assert native >= previous
            previous = native

    def test_total_matches_tracemalloc_plus_native(self):
        rows = _distinct_rows(self.WORDS, self.WIDTH)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            interner = WordInterner()
            kept = interner.intern_packed(rows)
            assert len(kept) == len(interner) == self.WORDS
            del kept
            sizes = interner._export()[0]
            n_ids, id_cap, n_bytes, byte_cap, buckets = sizes
            # Doubling from 64 ids, 256 bytes and 1024 buckets.
            assert (id_cap, byte_cap, buckets) == (131_072, 524_288, 262_144)
            native = byte_cap + 12 * id_cap + 4 * buckets
            for read_vocabulary in (False, True):
                if read_vocabulary:
                    assert len(interner.vocabulary) == self.WORDS
                traced = tracemalloc.get_traced_memory()[0] - base
                assert interner._export()[0] == sizes
                reported = interner.memory_bytes()
                assert reported == pytest.approx(traced + native, rel=0.10)
        finally:
            tracemalloc.stop()
        assert reported > native + self.WORDS * (self.WIDTH + 49)
