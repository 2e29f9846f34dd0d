"""Grammar-induction kernel seam: selectable Sequitur hot-path backends.

The object-graph :class:`~repro.grammar.sequitur._SequiturBuilder` is the
*reference oracle*: a faithful port of the canonical linked-list Sequitur,
easy to audit against the paper but interpreter-bound (every token allocates
symbols, every digram hashes a tuple of strings). This module puts the
fast backend behind one seam so every caller — batch, streaming, baselines
— picks up the same speedup without touching the public API:

- ``"python"`` — the reference object implementation (oracle).
- ``"fast"`` — :class:`FastSequitur` below: the same algorithm transliterated
  onto an array-backed symbol arena (parallel ``next``/``prev``/``value``
  lists indexed by integer slot) with a packed-int digram table. No symbol
  objects, no tuple keys; terminals are interned integer token ids.

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

Encoding of the symbol arena (``FastSequitur``):

- ``value >= 0`` and even — a terminal with token id ``value >> 1``;
- ``value >= 1`` and odd — a non-terminal referencing the rule with serial
  ``(value - 1) >> 1``;
- ``value < 0`` — the guard of the rule with serial ``-value - 1``.

A digram key packs the two adjacent values into one int
(``left << 32 | right``); guards never enter the table (negative values are
checked first), and rule serials are never reused, so stale table entries
can never collide — the same ownership discipline as the oracle's
``digrams.get(key) is symbol`` identity check, with arena indices playing
the role of object identity (slots are never recycled).

Tail-only reduction: the builder is append-only, so every digram match
starts at the tail of R0 — the digram a new token forms with R0's last
symbol — and a replacement there can only cascade through the
non-terminal it just put at the tail. ``FastSequitur._reduce_tail`` runs
the oracle's whole match/substitute/cleanup/expand chain as one loop under
that precondition (``next[next[new]]`` is R0's guard), which makes most of
the generic chain's branches dead; the comment above it lists which and
why. The property suite asserts the precondition on every call.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.grammar.rules import Grammar, GrammarRule

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
    """Sequitur on an array-backed symbol arena keyed by integer token ids.

    A 1:1 transliteration of the oracle's linked-list algorithm: arena slot
    ``i`` is a symbol, ``_next[i]``/``_prev[i]`` are its neighbours (``-1``
    for unlinked), ``_value[i]`` encodes terminal/non-terminal/guard (see
    the module docstring). Rules live in parallel lists indexed by serial:
    ``_rule_guard[s]`` is the guard slot, ``_rule_count[s]`` the reference
    count. Slots are never recycled, so a stale digram-table entry can
    never be mistaken for a live occurrence (the arena-index analogue of
    the oracle's object-identity ownership check).
    """

    __slots__ = ("_next", "_prev", "_value", "_digrams", "_rule_guard", "_rule_count", "_fed")

    def __init__(self) -> None:
        self._next: list[int] = []
        self._prev: list[int] = []
        self._value: list[int] = []
        #: Packed digram key -> arena index of its registered occurrence.
        self._digrams: dict[int, int] = {}
        self._rule_guard: list[int] = []
        self._rule_count: list[int] = []
        self._fed = 0
        self._new_rule()  # serial 0 = R0

    # ------------------------------------------------------------------
    # Arena primitives.
    # ------------------------------------------------------------------

    def _new_symbol(self, value: int) -> int:
        self._value.append(value)
        self._next.append(-1)
        self._prev.append(-1)
        return len(self._value) - 1

    def _new_rule(self) -> int:
        serial = len(self._rule_guard)
        guard = self._new_symbol(-serial - 1)
        self._rule_guard.append(guard)
        self._rule_count.append(0)
        self._next[guard] = guard
        self._prev[guard] = guard
        return serial

    @property
    def n_tokens(self) -> int:
        """Number of tokens fed so far."""
        return self._fed

    # ------------------------------------------------------------------
    # Core Sequitur step: tail-only reduction.
    #
    # Appending a token creates exactly one digram, the last two symbols of
    # R0, and replacing a digram there creates exactly one more: the anchor
    # before it and the non-terminal now at the tail. So every match the
    # oracle's _check/_process_match/_substitute/_cleanup/_join/_expand
    # chain handles is a tail match, and _reduce_tail(new, match) runs that
    # chain under one precondition, nxt[nxt[new]] == R0's guard. The
    # branches it drops, and why they are dead:
    #
    # - Tail site (anchor, new, second, guard). Both right-hand
    #   triple-repetition fixes compare a symbol against R0's guard and
    #   never fire; the digram starting at `second` ends at the guard, so
    #   it was never registered; the inserted non-terminal is followed by
    #   the guard, so neither the stale-digram delete after it nor
    #   _check(nonterminal) can do anything. Only _check(anchor) remains,
    #   and a match there is again a tail match (anchor, N, guard): the
    #   oracle's recursion becomes this function's loop.
    # - Earlier occurrence (new rules only). The cleanup keeps its generic
    #   triple fixes, but _check(anchor) and _check(nonterminal) can only
    #   register: both keys hold the brand-new rule's serial, so no entry
    #   can exist yet. The clones' reference-count increments cancel the
    #   cleanup's decrements and are skipped.
    # - Stale-entry deletes keyed on the anchor's new neighbour. Every
    #   table entry is owned by a linked symbol that starts that digram
    #   now (an entry is deleted before its owner's next link changes), so
    #   the anchor can only own the entry of the digram it starts at the
    #   time, which the cleanup already removed.
    # - Post-work. What the oracle runs after its recursive call returns
    #   (registering a new rule's body digram, then rule utility) is kept
    #   per level on a stack and run innermost first. In a rule-utility
    #   expansion both _joins are plain link writes: the first starts at a
    #   rule guard; in the second, the inlined body's last symbol is
    #   followed by its own guard, and the symbol it is joined to follows
    #   the sole reference to the inlined rule, so no delete or triple fix
    #   can fire.
    #
    # What remains updates the digram table in the oracle's order, which
    # the output grammar depends on; the property suite compares grammars,
    # spans and digram tables with the oracle and asserts the precondition
    # and the table invariant on every call.
    # ------------------------------------------------------------------

    def _reduce_tail(self, new: int, match: int) -> None:
        """Replace the tail digram at ``new`` and its earlier ``match``."""
        nxt, prv, value = self._next, self._prev, self._value
        digrams = self._digrams
        get = digrams.get
        rule_guard, rule_count = self._rule_guard, self._rule_count
        tail_guard = rule_guard[0]
        pending: list[int] = []
        while True:
            anchor, second = prv[match], nxt[match]
            after = nxt[second]
            av, fv = value[anchor], value[after]
            if av < 0 and fv < 0:
                # The match is the entire body of an existing rule: reuse it.
                serial = -av - 1
                first = -1
            else:
                # New rule from clones of the digram, substituted at the
                # earlier occurrence (anchor, match, second, after) first.
                # The clones' reference counts and the cleanup's cancel out.
                serial = len(rule_guard)
                guard = len(value)
                first = guard + 1
                v1, v2 = value[match], value[second]
                encoded = (serial << 1) | 1
                value += (-serial - 1, v1, v2, encoded)
                nxt += (first, first + 1, guard, after)
                prv += (first + 1, guard, first, anchor)
                rule_guard.append(guard)
                rule_count.append(1)
                # _cleanup(match): joins anchor -> second.
                if av >= 0 and get((av << 32) | v1, -1) == anchor:
                    del digrams[(av << 32) | v1]
                if v1 == v2 and fv == v2:
                    digrams[(v2 << 32) | v2] = second
                if av >= 0 and v1 == av and value[prv[anchor]] == av:
                    digrams[(av << 32) | av] = prv[anchor]
                prv[second] = anchor
                if get((v1 << 32) | v2, -1) == match:
                    del digrams[(v1 << 32) | v2]
                # _cleanup(second): joins anchor -> after.
                if fv >= 0 and v2 == fv and value[nxt[after]] == fv:
                    digrams[(fv << 32) | fv] = after
                if av >= 0 and v2 == av and value[prv[anchor]] == av:
                    digrams[(av << 32) | av] = prv[anchor]
                if fv >= 0 and get((v2 << 32) | fv, -1) == second:
                    del digrams[(v2 << 32) | fv]
                # Inserting N joins the anchor to it while the anchor is
                # still followed by `after`: the oracle's _join runs its
                # left triple fix over (anchor.prev, anchor, after).
                if av >= 0 and fv == av and value[prv[anchor]] == av:
                    digrams[(av << 32) | av] = prv[anchor]
                nxt[anchor] = prv[after] = guard + 3
                if av >= 0:
                    digrams[(av << 32) | encoded] = anchor
                if fv >= 0:
                    digrams[(encoded << 32) | fv] = guard + 3
            # Tail site: (anchor, new, second, guard) -> (anchor, N, guard).
            anchor, second = prv[new], nxt[new]
            av, v, sv = value[anchor], value[new], value[second]
            if av >= 0:
                if get((av << 32) | v, -1) == anchor:
                    del digrams[(av << 32) | v]
                if v == av and value[prv[anchor]] == av:
                    digrams[(av << 32) | av] = prv[anchor]
            prv[second] = anchor
            if get((v << 32) | sv, -1) == new:
                del digrams[(v << 32) | sv]
            if v & 1:
                rule_count[(v - 1) >> 1] -= 1
            if av >= 0 and sv == av and value[prv[anchor]] == av:
                digrams[(av << 32) | av] = prv[anchor]
            if sv & 1:
                rule_count[(sv - 1) >> 1] -= 1
            nonterminal = len(value)
            encoded = (serial << 1) | 1
            value.append(encoded)
            nxt.append(tail_guard)
            prv.append(anchor)
            rule_count[serial] += 1
            nxt[anchor] = prv[tail_guard] = nonterminal
            # _check(anchor): register, skip an overlap, or cascade.
            if av < 0:
                break
            key = (av << 32) | encoded
            found = get(key, -1)
            if found == -1:
                digrams[key] = anchor
                break
            if nxt[found] == anchor:
                break
            pending += (first, serial)
            new, match = anchor, found
        while True:
            if first != -1:
                digrams[(value[first] << 32) | value[nxt[first]]] = first
            # Rule utility: the replacement may have dropped another rule's
            # reference count to one, in which case it is inlined.
            first_of_rule = nxt[rule_guard[serial]]
            head = value[first_of_rule]
            if head > 0 and head & 1 and rule_count[(head - 1) >> 1] == 1:
                inner = (head - 1) >> 1
                left, right = prv[first_of_rule], nxt[first_of_rule]
                inner_guard = rule_guard[inner]
                inner_first, inner_last = nxt[inner_guard], prv[inner_guard]
                if value[right] >= 0 and get((head << 32) | value[right], -1) == first_of_rule:
                    del digrams[(head << 32) | value[right]]
                nxt[left] = inner_first
                prv[inner_first] = left
                nxt[inner_last] = right
                prv[right] = inner_last
                digrams[(value[inner_last] << 32) | value[right]] = inner_last
                rule_count[inner] = 0
                nxt[inner_guard] = inner_guard
                prv[inner_guard] = inner_guard
            if not pending:
                return
            serial = pending.pop()
            first = pending.pop()

    # ------------------------------------------------------------------
    # Public builder API.
    # ------------------------------------------------------------------

    def feed(self, token_id: int) -> None:
        """Append one interned token and restore the Sequitur invariants.

        The common case — a fresh digram at the end of R0 — is fully
        inlined: one arena append, two link writes, one dict probe.
        """
        nxt, prv, value = self._next, self._prev, self._value
        guard = self._rule_guard[0]
        last = prv[guard]
        encoded = token_id << 1
        # _insert_after(root.last(), terminal): both joins reduce to plain
        # link writes (the fresh terminal has no neighbours yet, and the
        # digram ending at the guard is never registered).
        terminal = len(value)
        value.append(encoded)
        nxt.append(guard)
        prv.append(last)
        nxt[last] = prv[guard] = terminal
        self._fed += 1
        # _check(terminal.prev), inlined for the no-match fast path.
        last_value = value[last]
        if last_value < 0:
            return
        key = (last_value << 32) | encoded
        found = self._digrams.get(key, -1)
        if found == -1:
            self._digrams[key] = last
        elif nxt[found] != last:
            self._reduce_tail(last, found)

    def feed_many(self, token_ids: Sequence[int]) -> None:
        """Feed a batch of token ids — the streaming layer's bulk entry.

        The :meth:`feed` fast path is inlined into the loop body with every
        container bound to a local and R0's last symbol carried in locals:
        the common no-match token costs three list appends, two link writes
        and one dict probe with no method-call frame at all. Only a digram
        match leaves the loop.
        """
        if isinstance(token_ids, np.ndarray):
            # Unbox once: numpy scalars are slower than ints in the arena
            # (and heavier to keep in the value list).
            token_ids = token_ids.tolist()
        nxt, prv, value = self._next, self._prev, self._value
        append_n, append_p, append_v = nxt.append, prv.append, value.append
        digrams = self._digrams
        digram_get = digrams.get
        guard = self._rule_guard[0]
        reduce_tail = self._reduce_tail
        last = prv[guard]
        last_value = value[last]
        for token_id in token_ids:
            encoded = token_id << 1
            terminal = len(value)
            append_v(encoded)
            append_n(guard)
            append_p(last)
            nxt[last] = prv[guard] = terminal
            if last_value >= 0:
                key = (last_value << 32) | encoded
                found = digram_get(key, -1)
                if found == -1:
                    digrams[key] = last
                elif nxt[found] != last:
                    reduce_tail(last, found)
                    last = prv[guard]
                    last_value = value[last]
                    continue
            last, last_value = terminal, encoded
        self._fed += len(token_ids)

    def freeze(self, words: Sequence[str]) -> Grammar:
        """Snapshot into an immutable :class:`Grammar`, mapping ids to words.

        ``words[token_id]`` must be the word string of ``token_id`` (the
        interner's vocabulary). Rule numbering matches the oracle exactly:
        1..k in order of first reference during a pre-order walk from R0.
        """
        nxt, value = self._next, self._value
        rule_guard = self._rule_guard
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

        The fused-density entry point: one in-order walk of R0's parse tree
        emitting ``(first_token, last_token)`` per non-terminal node —
        exactly ``Grammar.occurrence_spans()``, element by element, without
        materializing a Grammar, occurrence objects, or per-occurrence
        tuples. A node's first token is known on entry (pre-order); its last
        is written when the walk returns from the rule's guard, so no
        separate expanded-length pass is needed.
        """
        nxt, value = self._next, self._value
        rule_guard = self._rule_guard
        firsts: list[int] = []
        lasts: list[int] = []
        append_first = firsts.append
        append_last = lasts.append
        position = 0
        # Open nodes, innermost last: the symbol to resume at after the
        # node's rule body, then the node's index into firsts/lasts.
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        symbol = nxt[rule_guard[0]]
        while True:
            v = value[symbol]
            if v < 0:
                if not stack:
                    break
                lasts[pop()] = position - 1
                symbol = pop()
                continue
            if v & 1:
                push(nxt[symbol])
                push(len(firsts))
                append_first(position)
                append_last(position)
                symbol = nxt[rule_guard[(v - 1) >> 1]]
            else:
                position += 1
                symbol = nxt[symbol]
        return (
            np.asarray(firsts, dtype=np.int64),
            np.asarray(lasts, dtype=np.int64),
        )

    def memory_bytes(self) -> int:
        """O(1) estimate of the arena's retained bytes.

        Three Python-int lists plus the digram table; used by the streaming
        layer's session memory accounting.
        """
        slots = len(self._value)
        return slots * (3 * 8 + 3 * 28) + len(self._digrams) * 100


__all__ = [
    "DEFAULT_KERNEL",
    "FastSequitur",
    "KERNELS",
    "KERNEL_ENV",
    "current_kernel",
    "make_builder",
    "set_kernel",
    "use_kernel",
]
