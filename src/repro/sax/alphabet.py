"""SAX alphabet helpers: symbol set and word <-> index conversions."""

from __future__ import annotations

import ctypes
import sys

import numpy as np

from repro.sax._kernel import _ERRORS, _lib, _raise

#: The SAX symbol set, ordered by breakpoint region (lowest region = 'a').
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

#: Code point of the first symbol; symbol index ``i`` maps to ``chr(_BASE + i)``.
_BASE = ord("a")


def indices_to_word(indices: np.ndarray) -> str:
    """Convert an array of symbol indices (0-based) into a SAX word string."""
    codes = np.asarray(indices)
    if codes.size and (codes.min() < 0 or codes.max() >= len(ALPHABET)):
        raise ValueError(f"symbol indices must be in [0, {len(ALPHABET) - 1}]")
    return (codes.astype(np.uint8) + _BASE).tobytes().decode("ascii")


def word_to_indices(word: str) -> np.ndarray:
    """Convert a SAX word string back into an array of 0-based symbol indices."""
    codes = np.frombuffer(word.encode("ascii"), dtype=np.uint8).astype(np.int64) - _BASE
    if codes.size and (codes.min() < 0 or codes.max() >= len(ALPHABET)):
        raise ValueError(f"word {word!r} contains characters outside the SAX alphabet")
    return codes


def index_matrix_to_words(indices: np.ndarray) -> list[str]:
    """Convert a 2-D matrix of symbol indices into one word string per row.

    This is the hot path of sliding-window discretization, so it converts the
    whole matrix to bytes once and slices per row.
    """
    matrix = np.asarray(indices)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D index matrix, got shape {matrix.shape}")
    byte_matrix = (matrix.astype(np.uint8) + _BASE).tobytes()
    width = matrix.shape[1]
    return [
        byte_matrix[row * width : (row + 1) * width].decode("ascii")
        for row in range(matrix.shape[0])
    ]


class WordInterner:
    """Map symbol rows to stable integer token ids (streaming only).

    A handle on one native row table of ``_sax.c``: the distinct words seen
    so far, stored once each as ASCII bytes, with a dense id per word in
    first-seen order. Ids stay stable for the lifetime of the interner,
    which is what lets a streaming member keep one interner across drains
    and feed ids straight into an incremental grammar builder. Batch
    tokenization needs no such stability (each sequence is fed once), so
    ``sax_tokens`` runs a throwaway table of the same kind per member.

    Word strings exist in Python only once :attr:`vocabulary` is read (a
    poll that freezes a grammar, a snapshot export): the property decodes
    the words added since the last read from the native arena and appends
    them to one list that never changes identity, so callers that captured
    the list at construction time (grammar builders, generation routers)
    see the appended words, provided the property is read before they
    index a freshly allocated id.

    Two rows get the same id exactly when they are element-wise equal, so a
    grammar induced over ids is structurally identical to one induced over
    the corresponding word strings. Symbols must lie in ``[0, 26)``. The
    table is C ``malloc`` memory, invisible to tracemalloc;
    :meth:`memory_bytes` reports it from its capacities. Pickling and
    copying go through :meth:`from_vocabulary`.
    """

    __slots__ = ("_handle", "_vocabulary", "_word_bytes")

    def __init__(self) -> None:
        self._handle = _lib.sax_table_new()
        if not self._handle:
            raise MemoryError("cannot allocate a native word table")
        self._vocabulary: list[str] = []
        #: ``sys.getsizeof`` summed over the strings in :attr:`_vocabulary`.
        self._word_bytes = 0

    def __del__(self, _free=_lib.sax_table_free) -> None:  # bound early: globals die at exit
        if self._handle:
            _free(self._handle)

    def __reduce__(self):
        return WordInterner.from_vocabulary, (list(self.vocabulary),)

    def __len__(self) -> int:
        return _lib.sax_table_size(self._handle)

    @property
    def vocabulary(self) -> list[str]:
        """Word string of each token id, in id order.

        Callers may hold a reference; the list only ever grows (ids are
        never reassigned). Reading the property decodes the words interned
        since the last read.
        """
        words = self._vocabulary
        first = len(words)
        count = _lib.sax_table_size(self._handle)
        if first < count:
            _, (arena, ends_at) = self._export()
            # Copy the new word ends out: a ctypes array view would build a
            # new array type for every vocabulary size.
            lo = max(first - 1, 0)
            ends = np.empty(count - lo, dtype=np.int64)
            ctypes.memmove(ends.ctypes.data, ends_at + 8 * lo, ends.nbytes)
            base = int(ends[0]) if first else 0
            stops = ((ends[1:] if first else ends) - base).tolist()
            text = ctypes.string_at(arena + base, stops[-1]).decode("ascii")
            added = [text[a:b] for a, b in zip([0, *stops[:-1]], stops)]
            words.extend(added)
            self._word_bytes += sum(map(sys.getsizeof, added))
        return words

    @classmethod
    def from_vocabulary(cls, vocabulary) -> "WordInterner":
        """Rebuild an interner whose id space matches ``vocabulary`` exactly.

        The session-snapshot restore path: ids are first-seen-ordered and
        never reassigned, so a vocabulary list *is* the interner's full
        state: word ``vocabulary[i]`` gets id ``i`` again, and previously
        interned token-id sequences remain valid against the restored
        instance. A repeated word raises :class:`ValueError`.
        """
        interner = cls()
        words = list(vocabulary)
        if words:
            blob = "".join(words).encode("ascii")
            ends = np.cumsum([len(word) for word in words], dtype=np.int64)
            inserted = _lib.sax_table_insert(interner._handle, blob, ends.ctypes.data, len(words))
            if inserted < 0:
                _raise(inserted, _ERRORS)
            if inserted < len(words):
                raise ValueError(f"duplicate word {words[inserted]!r} in vocabulary")
        interner._vocabulary.extend(words)
        interner._word_bytes = sum(map(sys.getsizeof, words))
        return interner

    def intern_matrix(self, indices: np.ndarray) -> np.ndarray:
        """Token ids of every row of a 2-D symbol-index matrix (int64)."""
        return self._intern(indices, None, False)[1]

    def intern_packed(
        self, symbols: np.ndarray, previous=None, *, reduce: bool = True
    ) -> np.ndarray:
        """One native pass over a block of symbol rows: ``(offset, id)`` per kept row.

        ``symbols`` holds one symbol row per window. With ``reduce`` a row
        equal to the row before it is dropped (exact numerosity reduction);
        ``previous`` is the row before the block (the last row of the
        previous block), or ``None`` at the start of a stream. The rows
        are packed into ASCII words and interned in the same C pass. The
        result is a ``(kept, 2)`` int64 array: column 0 holds each kept
        row's index in the block, column 1 its id; new ids are allocated
        in first-occurrence order, exactly as :meth:`intern_matrix` would
        assign them to the kept rows.
        """
        return self._intern(symbols, previous, reduce).T

    def intern_log(
        self,
        log,
        intervals: np.ndarray,
        column: np.ndarray,
        first_start: int,
        reduce: bool,
        feed_ns: np.ndarray | None = None,
    ) -> int:
        """One drain block into a streaming member's token log, in one native call.

        :meth:`repro.grammar._kernel.TokenLog.ingest` on this table: symbol
        lookup through ``column``, numerosity reduction against the log's
        carried row when ``reduce``, interning, and appending the kept ids
        and offsets (window starts from ``first_start``) to ``log``, whose
        decay generations (if any) take them in the same call and add their
        feed time to ``feed_ns``. Returns the kept count.
        """
        return log.ingest(self._handle, intervals, column, first_start, reduce, feed_ns)

    def _intern(self, symbols, previous, reduce: bool) -> np.ndarray:
        """The ``(2, kept)`` offsets and ids of one ``sax_table_intern`` call."""
        rows = np.ascontiguousarray(symbols, dtype=np.intp)
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise ValueError(f"expected a 2-D matrix of non-empty rows, got shape {rows.shape}")
        count, width = rows.shape
        carry = None
        if previous is not None:
            carry = np.ascontiguousarray(previous, dtype=np.intp)
            if carry.shape != (width,):
                raise ValueError(f"previous row must hold {width} symbols, got shape {carry.shape}")
        out = np.empty((2, count), dtype=np.int64)
        offsets = out.ctypes.data
        kept = _lib.sax_table_intern(
            self._handle, rows.ctypes.data, count, width, None, 0,
            None if carry is None else carry.ctypes.data, bool(reduce),
            offsets, offsets + 8 * count,
        )
        if kept < 0:
            _raise(kept, _ERRORS)
        return out[:, :kept]

    def memory_bytes(self) -> int:
        """Bytes this interner holds.

        The native table, from its capacities: 1 B per arena byte, 12 B per
        id slot (word end and hash) and 4 B per bucket. On top, the word
        strings :attr:`vocabulary` has decoded so far and the list holding
        them, at their ``sys.getsizeof`` prices.
        """
        _, id_cap, _, byte_cap, buckets = self._export()[0]
        native = byte_cap + 12 * id_cap + 4 * buckets
        return native + sys.getsizeof(self._vocabulary) + self._word_bytes

    def _export(self) -> tuple[list[int], tuple[int | None, int | None]]:
        """One C call: ``(n_ids, id_cap, n_bytes, byte_cap, bucket_cap)`` and
        the addresses of the byte arena and the word-end array."""
        sizes = (ctypes.c_int64 * 5)()
        arrays = (ctypes.c_void_p * 2)()
        _lib.sax_table_export(self._handle, sizes, arrays)
        return list(sizes), (arrays[0], arrays[1])
