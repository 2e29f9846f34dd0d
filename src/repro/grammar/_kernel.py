"""The native Sequitur core: the one grammar-induction backend.

:class:`FastSequitur` is a handle on the native arena of ``_sequitur.c``,
whose header comment documents the symbol encoding and the tail-only
reduction. Every caller (batch, streaming, baselines) builds its grammars
here; the object-graph reference Sequitur it is tested against lives with
the tests (``tests/oracles/sequitur.py``).

Build on first import: importing this module compiles the package's two
C files, ``_sequitur.c`` and ``repro/sax/_sax.c``, with Python's C
compiler (``sysconfig`` ``CC``) into one library in ``__pycache__/``,
named by a hash of both sources, the machine and the compile command, and
loads it with :mod:`ctypes` once, declaring every entry point from the one
:data:`_SIGNATURES` table. ``repro.sax._kernel`` binds the same handle.
The library carries the arena, the SAX front end (see
``repro.sax._kernel``), the two curve kernels ``seq_density`` and
``seq_median`` (which :func:`repro.grammar.density.density_curve_from_token_spans`
and :func:`repro.core.combiners.combine_curves` call),
:func:`member_curve`, one batch member in one call (every batch density
curve: ensemble members and the single-run detector, under either
numerosity strategy), and
:class:`TokenLog`, a streaming member's kept tokens and arena (or, under
the decay policy, its per-generation arenas and sealed spans), with one
call per drain block, horizon advance and poll under every policy
(:func:`poll_logs` polls the logs of a whole ensemble in one call).
Concurrent first imports are safe (write, then rename). A failed build
raises :class:`ImportError`; there is no Python fallback.

Every entry point is a ctypes ``CDLL`` call, which releases the GIL for its
duration; none keeps global state (beyond a count of live member
workspaces), so calls on distinct handles may run on any number of threads
at once. :func:`member_curve` gives each thread its own workspace handle.

Equivalence contract (pinned by ``tests/test_grammar_kernel.py`` against
the reference builder): for any token sequence the arena produces the
identical frozen :class:`~repro.grammar.rules.Grammar` (same rules, same
numbering, same refcounts) and the identical occurrence spans. Grammar
structure depends only on the *equality pattern* of the tokens, never on
id values, so interning is invisible to the result.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sysconfig
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.grammar.rules import Grammar, GrammarRule

#: The native arena's source; the library is built into ``__pycache__/`` next to it.
_SOURCE = Path(__file__).with_name("_sequitur.c")

#: Every native source of the package, compiled into one library.
_SOURCES = (_SOURCE, _SOURCE.parents[1] / "sax" / "_sax.c")

#: Status codes of ``_sequitur.c`` and what each raises.
_ERRORS = {
    -1: (ValueError, "token ids must lie in [0, 2**31) to fit the packed digram key"),
    -2: (MemoryError, "the native Sequitur arena could not grow"),
    -3: (RuntimeError, "tail reduction off R0's tail; the arena is unusable"),
    -4: (RuntimeError, "more rule occurrences than tokens; the arena is corrupt"),
}


def _raise(status: int, errors: dict = _ERRORS) -> None:
    """Raise what ``errors`` (a native status table) maps ``status`` to."""
    error, message = errors[status]
    raise error(message)


#: Compiler flags of every native source. ``-ffp-contract=off`` keeps the
#: compiler from fusing ``a*b + c`` into one FMA (it does on FMA targets such
#: as aarch64), which would break bitwise parity with the numpy reference.
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _build(
    sources: Sequence[Path],
    directory: Path,
    compiler: str | None = None,
    flags: Sequence[str] = _FLAGS,
) -> Path:
    """Compile the C file(s) ``sources`` into one library in ``directory``.

    Nothing is compiled when the library is already there. It is named
    after the first source and a hash of every source, the machine and the
    full compile command (compiler and flags), so changing any of them
    builds a new library instead of reusing a stale one.
    """
    sources = [Path(source) for source in sources]
    machine = platform.machine()
    compiler = compiler or sysconfig.get_config_var("CC") or "cc"
    command = [*shlex.split(compiler), *flags]
    digest = hashlib.sha256(
        b"\0".join(
            [*(source.read_bytes() for source in sources), machine.encode()]
            + [part.encode() for part in command]
        )
    ).hexdigest()[:16]
    target = Path(directory) / f"{sources[0].stem}.{machine}-{digest}.so"
    if target.is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    names = ", ".join(str(source) for source in sources)
    try:
        try:
            built = subprocess.run(
                [*command, "-o", str(temporary), *map(str, sources)],
                capture_output=True,
                text=True,
            )
        except OSError as error:
            raise ImportError(f"cannot run C compiler {compiler!r} on {names}: {error}") from None
        if built.returncode:
            raise ImportError(f"C compiler {compiler!r} failed on {names}:\n{built.stderr}")
        os.replace(temporary, target)
    finally:
        temporary.unlink(missing_ok=True)
    return target


def _load(path: Path, signatures) -> ctypes.CDLL:
    """Load a built library, declaring each ``(name, restype, argtypes)``."""
    lib = ctypes.CDLL(str(path))
    for name, restype, argtypes in signatures:
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


#: Every C entry point of the library: ``(name, restype, argtypes)``.
_SIGNATURES = (
    ("seq_new", ctypes.c_void_p, ()),
    ("seq_free", None, (ctypes.c_void_p,)),
    ("seq_feed", ctypes.c_int, (ctypes.c_void_p, ctypes.c_int64)),
    ("seq_feed_many", ctypes.c_int, (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64)),
    ("seq_n_tokens", ctypes.c_int64, (ctypes.c_void_p,)),
    ("seq_spans", ctypes.c_int64, (ctypes.c_void_p,) * 3 + (ctypes.c_int64,)),
    ("seq_export", None, (ctypes.c_void_p,) * 3),
    (
        "seq_density",
        ctypes.c_int,
        (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)
        + (ctypes.c_int64,) * 3
        + (ctypes.c_void_p,),
    ),
    (
        "seq_median",
        ctypes.c_int,
        (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p),
    ),
    ("seq_space_new", ctypes.c_void_p, ()),
    ("seq_space_free", None, (ctypes.c_void_p,)),
    ("seq_space_bytes", ctypes.c_int64, (ctypes.c_void_p,)),
    ("seq_space_live", ctypes.c_int64, ()),
    (
        "seq_member_curve",
        ctypes.c_int,
        (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
        + (ctypes.c_int64,) * 4
        + (ctypes.c_void_p,) * 2,
    ),
    ("seq_log_new", ctypes.c_void_p, (ctypes.c_int64, ctypes.c_int64)),
    ("seq_log_free", None, (ctypes.c_void_p,)),
    (
        "seq_log_ingest",
        ctypes.c_int64,
        (ctypes.c_void_p,) * 3
        + (ctypes.c_int64, ctypes.c_void_p)
        + (ctypes.c_int64,) * 3
        + (ctypes.c_void_p,),
    ),
    ("seq_log_forget", ctypes.c_int64, (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64)),
    (
        "seq_log_curves",
        ctypes.c_int,
        (ctypes.c_void_p,) + (ctypes.c_int64,) * 4 + (ctypes.c_void_p,) * 2,
    ),
    (
        "seq_log_load",
        ctypes.c_int,
        (ctypes.c_void_p,) * 3 + (ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64),
    ),
    ("seq_log_live", ctypes.c_int64, (ctypes.c_void_p,)),
    ("seq_log_copy", None, (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)),
    ("seq_log_export", None, (ctypes.c_void_p,) * 3),
    ("seq_log_generations", ctypes.c_int64, (ctypes.c_void_p,) * 3),
    # _sax.c
    (
        "sax_intervals",
        ctypes.c_int,
        (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
        + (ctypes.c_int64,) * 6
        + (ctypes.c_void_p,) * 6,
    ),
    ("sax_search_new", ctypes.c_void_p, (ctypes.c_void_p, ctypes.c_int64)),
    ("sax_search_free", None, (ctypes.c_void_p,)),
    (
        "sax_tokens",
        ctypes.c_int64,
        (ctypes.c_void_p,) * 2
        + (ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
        + (ctypes.c_int64,) * 2
        + (ctypes.c_void_p,) * 2,
    ),
    ("sax_table_new", ctypes.c_void_p, ()),
    ("sax_table_free", None, (ctypes.c_void_p,)),
    ("sax_table_size", ctypes.c_int64, (ctypes.c_void_p,)),
    ("sax_table_export", None, (ctypes.c_void_p,) * 3),
    (
        "sax_table_intern",
        ctypes.c_int64,
        (ctypes.c_void_p,) * 2
        + (ctypes.c_int64,) * 2
        + (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)
        + (ctypes.c_void_p,) * 2,
    ),
    (
        "sax_table_insert",
        ctypes.c_int64,
        (ctypes.c_void_p,) * 3 + (ctypes.c_int64,),
    ),
)

#: Status codes of the curve kernels ``seq_density`` and ``seq_median``.
_CURVE_ERRORS = {
    -2: (MemoryError, "no memory for the median's sort scratch"),
    -5: (IndexError, "an occurrence span's token index lies outside the offsets"),
    -6: (ValueError, "an occurrence span maps to an empty interval (end before start)"),
    -11: (ValueError, "rule density curves are non-negative by construction"),
}

#: Status codes of :func:`member_curve`: every stage's, plus its own two.
_MEMBER_ERRORS = {
    **_ERRORS,
    **_CURVE_ERRORS,
    -2: (MemoryError, "the native member pipeline could not allocate its buffers"),
    -7: (IndexError, "an interval or symbol lies outside the alphabet column"),
    -8: (ValueError, "cannot induce a grammar from an empty token sequence"),
}

#: Status codes of :class:`TokenLog`'s calls.
_LOG_ERRORS = {
    **_MEMBER_ERRORS,
    -2: (MemoryError, "the native token log or its arena could not grow"),
    -9: (
        RuntimeError,
        "a decay generation's token count differs from the live tokens in its "
        "range; horizon and generations are out of step",
    ),
    -10: (ValueError, "token offsets must be non-negative and non-decreasing"),
}

_lib = _load(_build(_SOURCES, _SOURCE.parent / "__pycache__"), _SIGNATURES)

#: Bytes a member workspace may keep after a call; above it, the call frees
#: all of it (``seq_space_keep`` in ``_sequitur.c``).
WORKSPACE_KEEP_BYTES = ctypes.c_int64.in_dll(_lib, "seq_space_keep").value


class _Workspace:
    """A native member workspace (``SeqSpace``), freed with its owner."""

    __slots__ = ("handle",)

    def __init__(self) -> None:
        self.handle = _lib.seq_space_new()
        if not self.handle:
            raise MemoryError("cannot allocate a native member workspace")

    def __del__(self, _free=_lib.seq_space_free) -> None:  # bound early: globals die at exit
        if getattr(self, "handle", None):
            _free(self.handle)


#: This thread's member workspace, made by its first :func:`member_curve`;
#: the thread's exit drops it, which frees the native memory.
_thread = threading.local()


def _workspace() -> int:
    """The handle of the calling thread's member workspace."""
    space = getattr(_thread, "space", None)
    if space is None:
        space = _thread.space = _Workspace()
    return space.handle


def _checked(array, dtype, ndim: int, name: str) -> None:
    """Raise unless ``array`` is a C-contiguous ``ndim``-D ``dtype`` array."""
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        raise TypeError(f"{name} must be a numpy {np.dtype(dtype)} array")
    if array.ndim != ndim or not array.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {ndim}-D array, got shape {array.shape}")


def member_curve(
    intervals: np.ndarray,
    symbols: np.ndarray,
    window: int,
    length: int,
    *,
    reduce: bool = True,
) -> tuple[np.ndarray, tuple[int, int, int, int], tuple[int, int]]:
    """One batch member in one native call: ``(curve, phase_ns, (kept, size))``.

    ``intervals`` is the member's interval matrix (``intp``, one row per
    window start) and ``symbols`` its alphabet column (int64); ``reduce``
    picks exact numerosity reduction (true) or none (every window a token).
    The call runs exactly the chain :func:`repro.sax._kernel.sax_tokens` ->
    :meth:`FastSequitur.feed_many` -> :meth:`FastSequitur.occurrence_spans`
    -> :func:`repro.grammar.density.density_curve_from_token_spans` and
    returns the same float64 curve of ``length`` points, byte for byte,
    with the GIL released throughout. It runs on the calling thread's
    workspace: a native arena, row table and scratch buffers made by the
    thread's first call, emptied (not freed) by each later one and freed
    when the thread ends. A call that leaves more than
    :data:`WORKSPACE_KEEP_BYTES` in it frees all of it, so no thread keeps
    more than that between members. ``phase_ns`` holds the nanoseconds
    spent tokenizing, feeding, walking the spans and accumulating the
    density, for the caller to charge to its stages: this function records
    nothing. ``kept`` is the number of tokens fed to Sequitur and ``size``
    the frozen grammar's :meth:`Grammar.grammar_size`.

    Raises what the chain raises: :class:`TypeError`/:class:`ValueError`
    for malformed inputs before the C call; :class:`IndexError` for a value
    outside the column (or a symbol outside the letters);
    :class:`ValueError` for an empty token sequence; :class:`MemoryError`.
    """
    _checked(intervals, np.intp, 2, "intervals")
    _checked(symbols, np.int64, 1, "symbols")
    rows, width = intervals.shape
    if width < 1 or not len(symbols):
        raise ValueError(f"need words of at least one symbol and a symbol table, got {width}")
    if length <= 0:
        raise ValueError(f"curve length must be positive, got {length}")
    curve = np.empty(length, dtype=np.float64)
    counters = (ctypes.c_int64 * 6)()
    status = _lib.seq_member_curve(
        _workspace(), intervals.ctypes.data, rows, width, symbols.ctypes.data, len(symbols),
        int(bool(reduce)), window, length, curve.ctypes.data, counters,
    )
    if status:
        _raise(status, _MEMBER_ERRORS)
    return curve, tuple(counters[:4]), tuple(counters[4:])


def make_builder() -> "FastSequitur":
    """A fresh Sequitur builder on the native arena (:class:`FastSequitur`).

    The one place grammar code creates builders, so the end-to-end
    benchmark's tracer (``perfbench/tracing.py``) can hook it by name.
    """
    return FastSequitur()


def current_kernel() -> str:
    """The grammar backend's name, always ``"fast"``: there is one.

    Kept because the end-to-end benchmark's runner (``perfbench/run.py``)
    imports it to label its reports.
    """
    return "fast"


class FastSequitur:
    """Sequitur on the native symbol arena of ``_sequitur.c``.

    A thin handle: every call below is one or two ctypes calls on an opaque
    arena pointer, freed when the builder is collected. The arena cannot be
    shared, so a builder cannot be pickled or copied either. Token ids must
    lie in ``[0, 2**31)`` so that two encoded symbols fit one packed digram
    key; others raise :class:`ValueError` before anything is fed.
    """

    __slots__ = ("_handle",)

    def __init__(self) -> None:
        self._handle = _lib.seq_new()
        if not self._handle:
            raise MemoryError("cannot allocate a native Sequitur arena")

    def __del__(self, _free=_lib.seq_free) -> None:  # bound early: globals die at exit
        if self._handle:
            _free(self._handle)

    def __reduce__(self):
        raise TypeError("a FastSequitur owns a native arena and cannot be pickled or copied")

    @property
    def n_tokens(self) -> int:
        """Number of tokens fed so far."""
        return _lib.seq_n_tokens(self._handle)

    def feed(self, token_id: int) -> None:
        """Append one interned token and restore the Sequitur invariants."""
        status = _lib.seq_feed(self._handle, token_id)
        if status:
            _raise(status)

    def feed_many(self, token_ids: Sequence[int]) -> None:
        """Feed a batch of token ids: the same arena as one :meth:`feed` each."""
        ids = np.ascontiguousarray(token_ids, dtype=np.int64)
        status = _lib.seq_feed_many(self._handle, ids.ctypes.data, ids.size)
        if status:
            _raise(status)

    def freeze(self, words: Sequence[str]) -> Grammar:
        """Snapshot into an immutable :class:`Grammar`, mapping ids to words.

        ``words[token_id]`` must be the word string of ``token_id`` (the
        interner's vocabulary). Rule numbering matches the oracle exactly:
        1..k in order of first reference during a pre-order walk from R0.
        """
        value, nxt, _, _, _, rule_guard, _ = self._arena()
        numbering: dict[int, int] = {}
        ordered: list[int] = []
        stack: list[int] = [nxt[rule_guard[0]]]
        while stack:
            symbol = stack.pop()
            while value[symbol] >= 0:
                v = value[symbol]
                if v & 1:
                    serial = (v - 1) >> 1
                    if serial not in numbering:
                        numbering[serial] = len(ordered) + 1
                        ordered.append(serial)
                        stack.append(nxt[symbol])
                        symbol = nxt[rule_guard[serial]]
                        continue
                symbol = nxt[symbol]

        def _rhs(serial: int) -> tuple[str | int, ...]:
            body: list[str | int] = []
            symbol = nxt[rule_guard[serial]]
            while value[symbol] >= 0:
                v = value[symbol]
                if v & 1:
                    body.append(numbering[(v - 1) >> 1])
                else:
                    body.append(words[v >> 1])
                symbol = nxt[symbol]
            return tuple(body)

        grammar_rules = [GrammarRule(0, _rhs(0))]
        grammar_rules.extend(
            GrammarRule(position + 1, _rhs(serial))
            for position, serial in enumerate(ordered)
        )
        return Grammar(tuple(grammar_rules))

    def occurrence_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Token spans of every rule occurrence except R0, as two arrays.

        Exactly ``Grammar.occurrence_spans()``, element by element, from one
        pre-order walk of R0's parse tree in C. Every rule body has at least
        two symbols, so there are fewer nodes than tokens.
        """
        cap = _lib.seq_n_tokens(self._handle)
        firsts = np.empty(cap, dtype=np.int64)
        lasts = np.empty(cap, dtype=np.int64)
        nodes = _lib.seq_spans(self._handle, firsts.ctypes.data, lasts.ctypes.data, cap)
        if nodes < 0:
            _raise(nodes)
        firsts.resize(nodes, refcheck=False)
        lasts.resize(nodes, refcheck=False)
        return firsts, lasts

    def memory_bytes(self) -> int:
        """Bytes the native arena holds, from its capacities.

        24 B per arena slot, 16 B per digram bucket, 16 B per rule and 16 B
        per level of the pending stack. The allocations are C ``malloc``
        calls, so tracemalloc does not see them.
        """
        sizes = self._export()[0]
        return _arena_bytes(sizes[1], sizes[3], sizes[4], sizes[5])

    def _export(self) -> tuple[list[int], ctypes.Array]:
        """One C call: ``(slots, slot_cap, rules, rule_cap, bucket_cap,
        pending_cap, n_tokens, status)`` and the arena's seven arrays."""
        sizes = (ctypes.c_int64 * 8)()
        arrays = (ctypes.POINTER(ctypes.c_int64) * 7)()
        _lib.seq_export(self._handle, sizes, arrays)
        if sizes[7]:
            _raise(sizes[7])
        return list(sizes), arrays

    def _arena(self) -> tuple:
        """``(value, next, prev, digrams, rule_count, rule_guard, n_tokens)``
        copied out of one export call; ``digrams`` maps packed key to owner."""
        (slots, _, rules, _, buckets, _, fed, _), arrays = self._export()

        def read(index: int, size: int) -> list[int]:
            # A copy, not an ``as_array`` view: a view builds a new ctypes
            # array type for every size.
            out = np.empty(size, dtype=np.int64)
            ctypes.memmove(out.ctypes.data, arrays[index], out.nbytes)
            return out.tolist()

        digrams = {
            key: owner for key, owner in zip(read(5, buckets), read(6, buckets)) if owner >= 0
        }
        arena = read(0, slots), read(1, slots), read(2, slots)
        return (*arena, digrams, read(4, rules), read(3, rules), fed)


def _arena_bytes(slot_cap: int, rule_cap: int, table_cap: int, pending_cap: int) -> int:
    """Bytes of a native arena with these capacities (0 for no arena)."""
    return 24 * slot_cap + 16 * (rule_cap + table_cap + pending_cap)


class TokenLog:
    """One streaming member's kept tokens and live grammar, in native memory.

    A thin handle on a ``SeqLog`` of ``_sequitur.c``: the kept token ids
    (int32) and their window offsets (int64), the carried symbol row of the
    last window, the live boundary, the prune counter and the member's
    persistent Sequitur arena. A member makes one call per drain block
    (:meth:`ingest`), one per horizon advance (:meth:`forget`) and one per
    poll (:meth:`curve`); each releases the GIL, and none touches another
    log, so the polls of distinct logs may run on distinct threads. One log
    must not be used by two threads at once.

    The arena is Sequitur over exactly the live ids as of the last poll,
    anchored at the prune counter it was built under. While that counter
    has not moved, the live ids only grew at the right end, where Sequitur
    is incremental, so a poll feeds the new suffix; once it has moved, the
    poll rebuilds the arena over the live ids. Unbounded members never
    prune, so they always take the incremental branch. Either way the
    arena's grammar is a function of the live ids alone, which is what
    makes the curve bitwise equal to re-inducing over the live tokens.

    With ``generation_size`` (the decay policy), each ingested token is
    also routed, in the same call, to the generation
    ``offset // generation_size``, whose own arena it feeds; the first token
    of a later generation seals the open one, keeping only its spans and
    rule counts. :meth:`forget` drops the sealed generations the horizon
    passed into the :attr:`retired` counters, and a poll sums one density
    curve per live generation (rules never span a generation boundary).
    """

    __slots__ = ("_handle", "width")

    def __init__(self, width: int, generation_size: int = 0) -> None:
        self.width = int(width)
        if self.width < 1:
            raise ValueError(f"words need at least one symbol, got width {self.width}")
        if generation_size < 0:
            raise ValueError(f"generation_size cannot be negative, got {generation_size}")
        self._handle = _lib.seq_log_new(self.width, int(generation_size))
        if not self._handle:
            raise MemoryError("cannot allocate a native token log")

    def __del__(self, _free=_lib.seq_log_free) -> None:  # bound early: globals die at exit
        if getattr(self, "_handle", None):
            _free(self._handle)

    def __reduce__(self):
        raise TypeError("a TokenLog owns native memory and cannot be pickled or copied")

    def _export(self) -> tuple[list[int], np.ndarray]:
        """One C call: ``(count, cap, live, kept, pruned, width, has_carry,
        slot_cap, rule_cap, table_cap, pending_cap, generation_size,
        generations, generation_cap, sealed_span_slots, retired_generations,
        retired_tokens, retired_rules, retired_rule_refs, open_count)`` and
        the carried row (int64; meaningful when ``has_carry``)."""
        sizes = (ctypes.c_int64 * 20)()
        carry = np.zeros(self.width, dtype=np.int64)
        _lib.seq_log_export(self._handle, sizes, carry.ctypes.data)
        return list(sizes), carry

    @property
    def n_tokens(self) -> int:
        """Live tokens."""
        return _lib.seq_log_live(self._handle)

    @property
    def stored(self) -> int:
        """Tokens held in memory: the live ones plus a not yet dropped dead prefix."""
        return self._export()[0][0]

    @property
    def kept(self) -> int:
        """Tokens ever kept."""
        return self._export()[0][3]

    @property
    def pruned(self) -> int:
        """Tokens ever pruned (their windows slid out of the horizon)."""
        return self._export()[0][4]

    @property
    def carry(self) -> np.ndarray | None:
        """A copy of the carried symbol row (int64), or ``None`` before one."""
        sizes, carry = self._export()
        return carry if sizes[6] else None

    @property
    def retired(self) -> tuple[int, int, int, int]:
        """Generations, tokens, rules (R0 excluded) and rule references that
        :meth:`forget` dropped with their generations (zeros without any)."""
        return tuple(self._export()[0][15:19])

    def generations(self) -> list[tuple[int, int, int, int, np.ndarray, np.ndarray]]:
        """``(index, count, rules, rule_refs, firsts, lasts)`` of every live
        generation, oldest first; empty without generations.

        ``firsts`` and ``lasts`` are the generation's occurrence spans
        (token indices within it), ``rules`` its rules other than R0 and
        ``rule_refs`` their summed reference counts. The open generation's
        are read off its arena now; the sealed ones' were kept when they
        sealed.
        """
        sizes = self._export()[0]
        count = sizes[12]
        if not count:
            return []
        info = np.empty((count, 5), dtype=np.int64)
        spans = np.empty(sizes[14] + 2 * sizes[19], dtype=np.int64)
        status = _lib.seq_log_generations(self._handle, info.ctypes.data, spans.ctypes.data)
        if status < 0:
            _raise(status, _LOG_ERRORS)
        out, position = [], 0
        for index, tokens, nodes, rules, refs in info.tolist():
            firsts = spans[position : position + nodes].copy()
            lasts = spans[position + nodes : position + 2 * nodes].copy()
            out.append((index, tokens, rules, refs, firsts, lasts))
            position += 2 * nodes
        return out

    def tokens(self, last: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the ids and offsets (both int64) of the live tokens.

        With ``last``, of only the newest ``last`` of them.
        """
        count = _lib.seq_log_live(self._handle)
        if last is not None:
            count = max(0, min(count, int(last)))
        ids = np.empty(count, dtype=np.int64)
        offsets = np.empty(count, dtype=np.int64)
        _lib.seq_log_copy(self._handle, count, ids.ctypes.data, offsets.ctypes.data)
        return ids, offsets

    def ingest(
        self,
        table,
        intervals: np.ndarray,
        column: np.ndarray,
        first_start: int,
        reduce: bool,
        feed_ns: np.ndarray | None = None,
    ) -> int:
        """Append one drain block's kept tokens; returns how many were kept.

        ``table`` is the handle of the member's native row table
        (:class:`repro.sax.alphabet.WordInterner`), ``intervals`` the
        block's interval matrix (``intp``, row ``r`` the window starting at
        ``first_start + r``) and ``column`` the member's alphabet column
        (int64). One call looks the symbols up, drops each row equal to the
        row before it when ``reduce`` (the last row of the previous block is
        carried), interns the kept rows and appends their ids and offsets.
        With generations, the same call routes the kept tokens to them and
        adds the nanoseconds that took to ``feed_ns[0]`` (a one-element
        int64 array), when given.
        A value outside the column raises :class:`IndexError` and appends
        nothing; :class:`MemoryError` when the log or table cannot grow.
        """
        _checked(intervals, np.intp, 2, "intervals")
        _checked(column, np.int64, 1, "column")
        rows, width = intervals.shape
        if width != self.width or not len(column) or not table:
            raise ValueError(
                f"need {self.width}-symbol rows, a symbol column and a row table, "
                f"got width {width}"
            )
        kept = _lib.seq_log_ingest(
            self._handle, table, intervals.ctypes.data, rows, column.ctypes.data, len(column),
            bool(reduce), first_start, None if feed_ns is None else feed_ns.ctypes.data,
        )
        if kept < 0:
            _raise(kept, _LOG_ERRORS)
        return kept

    def forget(self, start: int, slack: int) -> int:
        """Prune the tokens whose window starts before ``start``; returns how many.

        One bisection of the sorted offsets. The dead prefix is dropped from
        memory once it holds more than ``slack`` tokens and outweighs the
        live ones (amortized O(1) per token). Every sealed generation that
        ends at or before ``start`` is dropped into :attr:`retired`.
        """
        return _lib.seq_log_forget(self._handle, start, slack)

    def curve(
        self, window: int, horizon_start: int, length: int
    ) -> tuple[np.ndarray, tuple[int, int, int]]:
        """One poll: the rule density curve over the live tokens and ``phase_ns``.

        The curve covers ``length`` points from ``horizon_start``; with no
        live token it is all zeros. ``phase_ns`` holds the nanoseconds spent
        feeding (or rebuilding) the arena, walking its spans and
        accumulating the density, for the caller to charge: this method
        records nothing and touches no thread-local state. With generations
        nothing is fed (that happened at ingest), only the open generation's
        spans are walked, and a generation whose token count differs from
        the live tokens in its range raises :class:`RuntimeError`.
        """
        return poll_logs((self,), window, horizon_start, length)[0]

    def load(
        self, ids: np.ndarray, offsets: np.ndarray, carry: np.ndarray | None, pruned: int
    ) -> None:
        """Replace the stored tokens with live ones, after ``pruned`` slid out.

        The restore path of a session snapshot: ``ids`` and ``offsets`` are
        the live tokens, ``carry`` the carried row (or ``None``). The arena
        is rebuilt over them at the next poll; generations are rebuilt now,
        by routing the tokens again (offsets must then be non-negative and
        non-decreasing, else :class:`ValueError`), and :attr:`retired`
        restarts at zero.
        """
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if ids.shape != offsets.shape or ids.ndim != 1:
            raise ValueError(f"got {ids.shape} ids but {offsets.shape} offsets")
        if pruned < 0:
            raise ValueError(f"a pruned count cannot be negative, got {pruned}")
        row = None
        if carry is not None:
            row = np.ascontiguousarray(carry, dtype=np.intp)
            if row.shape != (self.width,):
                raise ValueError(f"carried row must hold {self.width} symbols, got {row.shape}")
        status = _lib.seq_log_load(
            self._handle, ids.ctypes.data, offsets.ctypes.data, len(ids),
            None if row is None else row.ctypes.data, int(pruned),
        )
        if status:
            _raise(status, _LOG_ERRORS)

    def memory_bytes(self) -> int:
        """Bytes the log holds, from its capacities.

        12 B per token slot (int32 id, int64 offset), the carried row, the
        arena (see :meth:`FastSequitur.memory_bytes`; the open generation's
        under decay), 48 B per generation slot and 8 B per sealed span
        bound. The allocations are C ``malloc`` calls, so tracemalloc does
        not see them.
        """
        sizes = self._export()[0]
        row = np.dtype(np.intp).itemsize * sizes[5]
        generations = 48 * sizes[13] + 8 * sizes[14]
        return 12 * sizes[1] + row + _arena_bytes(*sizes[7:11]) + generations


def poll_logs(
    logs: Sequence[TokenLog], window: int, horizon_start: int, length: int
) -> list[tuple[np.ndarray, tuple[int, int, int]]]:
    """The polls of several token logs over one horizon, in one native call.

    Returns ``(curve, phase_ns)`` per log, in order (see
    :meth:`TokenLog.curve`), or raises the error of the first log that
    failed. The logs share the window and horizon, as the members of one
    ensemble do; one call for all of them takes the GIL back once rather
    than once per log. Records nothing and touches no thread-local state.
    """
    if length <= 0:
        raise ValueError(f"curve length must be positive, got {length}")
    count = len(logs)
    curves = [np.empty(length, dtype=np.float64) for _ in range(count)]
    phase_ns = (ctypes.c_int64 * (3 * count))()
    status = _lib.seq_log_curves(
        (ctypes.c_void_p * count)(*[log._handle for log in logs]),
        count, window, horizon_start, length,
        (ctypes.c_void_p * count)(*[curve.ctypes.data for curve in curves]),
        phase_ns,
    )
    if status:
        _raise(status, _LOG_ERRORS)
    return [(curve, tuple(phase_ns[3 * i : 3 * i + 3])) for i, curve in enumerate(curves)]


__all__ = [
    "FastSequitur",
    "TokenLog",
    "current_kernel",
    "make_builder",
    "member_curve",
    "poll_logs",
]
