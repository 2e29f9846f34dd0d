"""Grammar-induction kernel seam: selectable Sequitur hot-path backends.

The object-graph :class:`~repro.grammar.sequitur._SequiturBuilder` is the
*reference oracle*: a faithful port of the canonical linked-list Sequitur,
easy to audit against the paper but interpreter-bound (every token allocates
symbols, every digram hashes a tuple of strings). This module puts the
fast backend behind one seam so every caller — batch, streaming, baselines
— picks up the same speedup without touching the public API:

- ``"python"`` — the reference object implementation (oracle).
- ``"fast"`` — :class:`FastSequitur` below: a handle on the native arena
  of ``_sequitur.c``, whose header comment documents the symbol encoding
  and the tail-only reduction.

Build on first import: importing this module compiles the package's two
C files, ``_sequitur.c`` and ``repro/sax/_sax.c``, with Python's C
compiler (``sysconfig`` ``CC``) into one library in ``__pycache__/``,
named by a hash of both sources, the machine and the compile command, and
loads it with :mod:`ctypes` once, declaring every entry point from the one
:data:`_SIGNATURES` table. ``repro.sax._kernel`` binds the same handle.
The library carries the arena, the SAX front end (see
``repro.sax._kernel``), the two curve kernels ``seq_density`` and
``seq_median`` (which :func:`repro.grammar.density.density_curve_from_token_spans`
and :func:`repro.core.combiners.combine_curves` call under either kernel)
and :func:`member_curve`, one batch ensemble member in one call.
Concurrent first imports are safe (write, then rename). A failed build
raises :class:`ImportError`; there is no Python fallback.

Every entry point is a ctypes ``CDLL`` call, which releases the GIL for its
duration; none keeps global state, so calls on distinct handles may run on
any number of threads at once.

Selection: the ``REPRO_KERNEL`` environment variable (read lazily on first
use, so test harnesses and CI matrices can set it per run), overridable
programmatically with :func:`set_kernel` / :func:`use_kernel`. The default
is ``"fast"``; the bitwise-parity suites run the whole test matrix under
both ``python`` and ``fast`` to keep the kernels interchangeable.

Kernel equivalence contract (pinned by ``tests/test_grammar_kernel.py``):
for any token sequence, both backends produce the identical frozen
:class:`~repro.grammar.rules.Grammar` (same rules, same numbering, same
refcounts) and the identical occurrence spans. Grammar structure depends
only on the *equality pattern* of the tokens, never on id values, so
interning is invisible to the result.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sysconfig
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

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
        (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p),
    ),
    (
        "seq_member_curve",
        ctypes.c_int,
        (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
        + (ctypes.c_int64,) * 3
        + (ctypes.c_void_p,) * 2,
    ),
    # _sax.c
    (
        "sax_intervals",
        ctypes.c_int,
        (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
        + (ctypes.c_int64,) * 6
        + (ctypes.c_void_p,) * 4
        + (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p),
    ),
    (
        "sax_tokens",
        ctypes.c_int64,
        (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)
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
}

#: Status codes of :func:`member_curve`: every stage's, plus its own two.
_MEMBER_ERRORS = {
    **_ERRORS,
    **_CURVE_ERRORS,
    -2: (MemoryError, "the native member pipeline could not allocate its buffers"),
    -7: (IndexError, "an interval or symbol lies outside the alphabet column"),
    -8: (ValueError, "cannot induce a grammar from an empty token sequence"),
}

_lib = _load(_build(_SOURCES, _SOURCE.parent / "__pycache__"), _SIGNATURES)


def _checked(array, dtype, ndim: int, name: str) -> None:
    """Raise unless ``array`` is a C-contiguous ``ndim``-D ``dtype`` array."""
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        raise TypeError(f"{name} must be a numpy {np.dtype(dtype)} array")
    if array.ndim != ndim or not array.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {ndim}-D array, got shape {array.shape}")


def member_curve(
    intervals: np.ndarray, symbols: np.ndarray, window: int, length: int
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """One batch ensemble member in one native call: ``(curve, phase_ns)``.

    ``intervals`` is the member's interval matrix (``intp``, one row per
    window start) and ``symbols`` its alphabet column (int64). The call runs
    exactly the chain :func:`repro.sax._kernel.sax_tokens` ->
    :meth:`FastSequitur.feed_many` -> :meth:`FastSequitur.occurrence_spans`
    -> :func:`repro.grammar.density.density_curve_from_token_spans` and
    returns the same float64 curve of ``length`` points, byte for byte,
    with the GIL released throughout. ``phase_ns`` holds the nanoseconds
    spent tokenizing, feeding, walking the spans and accumulating the
    density, for the caller to charge to its stages: this function records
    nothing.

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
    phase_ns = (ctypes.c_int64 * 4)()
    status = _lib.seq_member_curve(
        intervals.ctypes.data, rows, width, symbols.ctypes.data, len(symbols),
        window, length, curve.ctypes.data, phase_ns,
    )
    if status:
        _raise(status, _MEMBER_ERRORS)
    return curve, tuple(phase_ns)


#: Recognized kernel names, in documentation order.
KERNELS = ("python", "fast")

#: Kernel used when ``REPRO_KERNEL`` is unset.
DEFAULT_KERNEL = "fast"

#: Environment variable consulted (lazily) for the kernel choice.
KERNEL_ENV = "REPRO_KERNEL"

#: Programmatic override; ``None`` defers to the environment.
_override: str | None = None


def _validate_kernel(name: str) -> str:
    name = str(name)
    if name not in KERNELS:
        raise ValueError(f"unknown grammar kernel {name!r}; expected one of {KERNELS}")
    return name


def current_kernel() -> str:
    """The active kernel name (override, else ``REPRO_KERNEL``, else fast)."""
    if _override is not None:
        return _override
    env = os.environ.get(KERNEL_ENV)
    if env is None or env == "":
        return DEFAULT_KERNEL
    return _validate_kernel(env)


def set_kernel(name: str | None) -> str | None:
    """Override the kernel programmatically; returns the previous override.

    ``None`` removes the override, deferring to ``REPRO_KERNEL`` again.
    """
    global _override
    previous = _override
    _override = None if name is None else _validate_kernel(name)
    return previous


@contextmanager
def use_kernel(name: str | None) -> Iterator[None]:
    """Context manager scoping a kernel override (tests and benchmarks)."""
    previous = set_kernel(name)
    try:
        yield
    finally:
        set_kernel(previous)


def make_builder(kernel: str | None = None) -> "FastSequitur":
    """Instantiate the id-based builder for ``kernel`` (default: current).

    Only the ``"fast"`` kernel is constructible here; the ``"python"``
    oracle consumes words, not ids, and its callers keep using
    :class:`~repro.grammar.sequitur._SequiturBuilder` directly.
    """
    kernel = current_kernel() if kernel is None else _validate_kernel(kernel)
    if kernel == "fast":
        return FastSequitur()
    raise ValueError(
        "the python kernel has no id-based builder; use _SequiturBuilder "
        "with word tokens"
    )


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
        return 24 * sizes[1] + 16 * (sizes[3] + sizes[4] + sizes[5])

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
            return np.ctypeslib.as_array(arrays[index], shape=(size,)).tolist()

        digrams = {
            key: owner for key, owner in zip(read(5, buckets), read(6, buckets)) if owner >= 0
        }
        arena = read(0, slots), read(1, slots), read(2, slots)
        return (*arena, digrams, read(4, rules), read(3, rules), fed)


__all__ = [
    "DEFAULT_KERNEL",
    "FastSequitur",
    "KERNELS",
    "KERNEL_ENV",
    "current_kernel",
    "make_builder",
    "member_curve",
    "set_kernel",
    "use_kernel",
]
