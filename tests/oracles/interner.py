"""Pure-Python oracle of :class:`repro.sax.alphabet.WordInterner`.

:class:`WordInterner` here is the dict-based interner over packed int64 word
codes that streaming members used before the native row table; it assigns
the same ids (dense, first-seen order) by construction, and
:class:`StreamingOracleInterner` puts it behind the native class's block
API (numerosity reduction with a carried row, then interning), exactly as
the streaming ingest ran it. ``tests/test_sax_interner.py`` compares the two
value for value, and ``tests/test_snapshot.py`` runs whole streaming
sessions on either.
"""

from __future__ import annotations

import numpy as np

from repro.sax.numerosity import kept_window_mask

#: Code point of the first symbol; symbol index ``i`` maps to ``chr(_BASE + i)``.
_BASE = ord("a")

#: Bits per symbol in a packed word code; 5 bits cover indices 0..25 (< 32).
_CODE_BITS = 5

#: Widest word packable into one length-tagged int64 code: the tag bit must
#: stay below bit 63, so ``5 * width + 1 <= 63``.
MAX_PACKED_WIDTH = 12


def pack_symbol_rows(indices: np.ndarray) -> np.ndarray | None:
    """Pack each symbol row into one length-tagged int64 code, or ``None``.

    ``code = (1 << 5·width) | Σ_j symbols[j] << 5·(width-1-j)`` — symbols
    occupy 5 bits each and the tag bit encodes the width, so codes are
    injective over ``(width, row)``: two codes are equal exactly when they
    pack equal-length, element-wise-equal rows. Returns ``None`` when the
    rows are too wide to pack (``width > 12``).
    """
    matrix = np.asarray(indices)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D index matrix, got shape {matrix.shape}")
    width = matrix.shape[1]
    if width > MAX_PACKED_WIDTH:
        return None
    codes = np.full(matrix.shape[0], np.int64(1) << (_CODE_BITS * width), dtype=np.int64)
    for column in range(width):
        codes |= matrix[:, column].astype(np.int64) << (_CODE_BITS * (width - 1 - column))
    return codes


def _pack_word_key(key: bytes) -> int:
    """Packed code of one ASCII word key (scalar :func:`pack_symbol_rows`)."""
    code = 0
    for byte in key:
        code = (code << _CODE_BITS) | (byte - _BASE)
    return code | (1 << (_CODE_BITS * len(key)))


class WordInterner:
    """Map symbol-matrix rows to stable integer token ids (pure-Python oracle).

    The string-deferral boundary of the streaming tokenizer: downstream of
    numerosity reduction the grammar kernels consume token *ids*, so word
    strings only exist once per *distinct* row — materialized into
    :attr:`vocabulary` (``vocabulary[id]`` is the word of ``id``). Ids are
    assigned in first-seen order and stay stable for the lifetime of the
    interner, which is what lets a streaming member keep one interner
    across drains and feed ids straight into an incremental grammar builder.

    The packed path (:meth:`intern_packed`) defers even the string: a new
    code costs one dict insert at ingest, and its word is decoded only when
    :attr:`vocabulary` is next read (a poll, a grammar freeze, a snapshot
    export). The property materializes any pending words first, and the
    underlying list object never changes identity, so callers that captured
    the list at construction time (grammar builders, generation routers)
    see the appended words — provided the property is read before they
    index a freshly allocated id.

    Two rows get the same id exactly when they are element-wise equal, so a
    grammar induced over ids is structurally identical to one induced over
    the corresponding word strings.
    """

    __slots__ = ("_ids", "_code_ids", "_pending", "_n_ids", "_vocabulary")

    def __init__(self) -> None:
        self._ids: dict[bytes, int] = {}
        #: Packed-code table (:func:`pack_symbol_rows` codes -> ids). Codes
        #: are length-tagged, so one table serves every word width. The
        #: invariant that keeps :meth:`intern_packed` to pure int work:
        #: every interned word of packable width has its code here, no
        #: matter which method interned it.
        self._code_ids: dict[int, int] = {}
        #: Packed codes whose word strings are not yet materialized, as
        #: ``(code, width)`` in id-allocation order; their ids are the
        #: dense suffix ``_n_ids - len(_pending) .. _n_ids`` of the id
        #: space, continuing straight after ``_vocabulary``.
        self._pending: list[tuple[int, int]] = []
        self._n_ids = 0
        self._vocabulary: list[str] = []

    def __len__(self) -> int:
        return self._n_ids

    @property
    def vocabulary(self) -> list[str]:
        """Word string of each token id, in id order.

        Callers may hold a reference; the list only ever grows (ids are
        never reassigned). Reading the property materializes any words the
        packed fast path deferred.
        """
        if self._pending:
            self._materialize()
        return self._vocabulary

    def _materialize(self) -> None:
        """Decode pending packed codes into the bytes table + vocabulary."""
        pending, self._pending = self._pending, []
        vocabulary = self._vocabulary
        table = self._ids
        total = len(pending)
        index = 0
        while index < total:
            # One vectorized decode per run of equal-width codes (a
            # streaming member has a single width; a multi-resolution
            # interner alternates in runs).
            width = pending[index][1]
            stop = index
            while stop < total and pending[stop][1] == width:
                stop += 1
            codes = np.asarray(
                [pending[i][0] for i in range(index, stop)], dtype=np.int64
            )
            shifts = _CODE_BITS * np.arange(width - 1, -1, -1, dtype=np.int64)
            symbols = (codes[:, None] >> shifts[None, :]) & ((1 << _CODE_BITS) - 1)
            byte_block = (symbols.astype(np.uint8) + _BASE).tobytes()
            for row in range(stop - index):
                key = byte_block[row * width : (row + 1) * width]
                table[key] = len(vocabulary)
                vocabulary.append(key.decode("ascii"))
            index = stop

    @classmethod
    def from_vocabulary(cls, vocabulary) -> "WordInterner":
        """Rebuild an interner whose id space matches ``vocabulary`` exactly.

        The session-snapshot restore path: ids are first-seen-ordered and
        never reassigned, so a vocabulary list *is* the interner's full
        state — word ``vocabulary[i]`` gets id ``i`` again, and previously
        interned token-id sequences remain valid against the restored
        instance.
        """
        interner = cls()
        table = interner._ids
        code_table = interner._code_ids
        words = interner._vocabulary
        for word in vocabulary:
            key = word.encode("ascii")
            if key in table:
                raise ValueError(f"duplicate word {word!r} in vocabulary")
            table[key] = len(words)
            if len(key) <= MAX_PACKED_WIDTH:
                code_table[_pack_word_key(key)] = len(words)
            words.append(word)
        interner._n_ids = len(words)
        return interner

    def intern_matrix(self, indices: np.ndarray) -> np.ndarray:
        """Token ids of every row of a 2-D symbol-index matrix (int64)."""
        matrix = np.asarray(indices)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D index matrix, got shape {matrix.shape}")
        if self._pending:
            # Direct appends need the dense vocabulary, and a pending
            # packed word must be findable under its bytes key.
            self._materialize()
        byte_matrix = (matrix.astype(np.uint8) + _BASE).tobytes()
        width = matrix.shape[1]
        packable = width <= MAX_PACKED_WIDTH
        ids = np.empty(matrix.shape[0], dtype=np.int64)
        table = self._ids
        get = table.get
        code_table = self._code_ids
        vocabulary = self._vocabulary
        for row in range(matrix.shape[0]):
            key = byte_matrix[row * width : (row + 1) * width]
            token_id = get(key)
            if token_id is None:
                token_id = len(vocabulary)
                table[key] = token_id
                if packable:
                    code_table[_pack_word_key(key)] = token_id
                vocabulary.append(key.decode("ascii"))
            ids[row] = token_id
        self._n_ids = len(vocabulary)
        return ids

    def intern_packed(self, codes: np.ndarray, width: int) -> np.ndarray:
        """Token ids of packed word codes; id-equal to :meth:`intern_matrix`.

        ``codes`` must come from :func:`pack_symbol_rows` over rows of
        ``width`` symbols. One ``np.unique`` collapses the block to its
        distinct codes, and a *new* distinct code costs one dict insert —
        the word string itself is deferred until :attr:`vocabulary` is next
        read. New ids are allocated in first-occurrence order, exactly as
        :meth:`intern_matrix`'s row loop would assign them.
        """
        codes = np.asarray(codes, dtype=np.int64)
        unique, first_index, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        get = self._code_ids.get
        # Plain-int iteration: numpy scalar unboxing dominates this loop
        # otherwise (the block is one drain's worth of kept tokens, and on
        # high-entropy streams most of them are distinct).
        unique_list = unique.tolist()
        ids_list = [get(code) for code in unique_list]
        missing = [position for position, t in enumerate(ids_list) if t is None]
        if missing:
            # Visit misses in first-occurrence order so fresh ids come out
            # exactly as intern_matrix's row loop would assign them. The
            # code-table invariant (every packable interned word has a code
            # entry) makes a code miss a true vocabulary miss, so no bytes
            # lookup is needed here.
            first_list = first_index.tolist()
            missing.sort(key=first_list.__getitem__)
            table = self._code_ids
            pending = self._pending
            token_id = self._n_ids
            for position in missing:
                code = unique_list[position]
                table[code] = token_id
                pending.append((code, width))
                ids_list[position] = token_id
                token_id += 1
            self._n_ids = token_id
        return np.asarray(ids_list, dtype=np.int64)[inverse]

    def memory_bytes(self) -> int:
        """Rough retained-bytes estimate (vocabulary + id tables).

        Pending (not yet materialized) words count at the same price as
        materialized ones: the estimate must not dip just because no poll
        has forced their strings into existence yet.
        """
        if not self._n_ids:
            return 0
        if self._vocabulary:
            width = len(self._vocabulary[0])
        else:
            width = self._pending[0][1]
        # bytes key + str value + two dict/list slots, per distinct word,
        # plus one packed-code dict entry per packable word.
        return self._n_ids * (2 * width + 120) + len(self._code_ids) * 60


class StreamingOracleInterner(WordInterner):
    """The oracle behind the native interner's block API.

    :meth:`intern_packed` reduces and interns one block the way streaming
    ingest did with the pure-Python interner: packed codes (or, past 12
    symbols, :func:`~repro.sax.numerosity.kept_window_mask` and byte keys)
    find the runs, ``previous`` carries the row before the block, and the
    kept rows are interned. It returns the native layout, ``(kept, 2)``
    rows of ``(offset in the block, id)``.

    :meth:`intern_log` is the list-based route a streaming member's native
    ingest call replaces: numpy symbol lookup through the alphabet column,
    :meth:`intern_packed` against the log's carried row, then the log's
    tokens plus the kept ones loaded back with the new carried row.
    """

    __slots__ = ()

    def intern_log(self, log, intervals, column, first_start, reduce, feed_ns=None) -> int:
        if len(intervals) == 0:
            return 0
        if np.min(intervals) < 0 or np.max(intervals) >= len(column):
            raise IndexError("an interval lies outside the alphabet column")
        symbols = np.asarray(column)[np.asarray(intervals)]
        kept = self.intern_packed(symbols, log.carry, reduce=reduce)
        ids, offsets = log.tokens()
        carry = symbols[-1] if reduce else log.carry
        log.load(
            np.concatenate([ids, kept[:, 1]]),
            np.concatenate([offsets, kept[:, 0] + first_start]),
            carry,
            log.pruned,
        )
        return len(kept)

    def intern_packed(self, symbols, previous=None, *, reduce=True) -> np.ndarray:
        symbols = np.asarray(symbols, dtype=np.int64)
        count = len(symbols)
        if count == 0:
            return np.empty((0, 2), dtype=np.int64)
        codes = pack_symbol_rows(symbols)
        if not reduce:
            kept = np.arange(count)
        elif codes is None:
            keep = kept_window_mask(symbols)
            if previous is not None:
                keep[0] = bool(np.any(symbols[0] != previous))
            kept = np.flatnonzero(keep)
        else:
            keep = np.ones(count, dtype=bool)
            keep[1:] = codes[1:] != codes[:-1]
            if previous is not None:
                keep[0] = codes[0] != pack_symbol_rows(np.asarray(previous)[None, :])[0]
            kept = np.flatnonzero(keep)
        if codes is None:
            ids = self.intern_matrix(symbols[kept])
        else:
            ids = WordInterner.intern_packed(self, codes[kept], symbols.shape[1])
        return np.stack([kept, ids], axis=1)
