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
    # Core Sequitur steps.
    #
    # The oracle's _check/_process_match/_substitute/_cleanup/_join call
    # chain is flattened into _check (light probe) and _match (one
    # straight-line function over local aliases): on the hot path the
    # attribute lookups and method-call frames of the 1:1 transliteration
    # cost more than the algorithm itself. The control flow — including
    # the exact order of digram-table updates, which the output grammar
    # depends on — mirrors the oracle statement for statement; the
    # property suite pins the equivalence.
    # ------------------------------------------------------------------

    def _check(self, symbol: int) -> bool:
        nxt, value = self._next, self._value
        after = nxt[symbol]
        if value[symbol] < 0 or after == -1 or value[after] < 0:
            return False
        key = (value[symbol] << 32) | value[after]
        found = self._digrams.get(key, -1)
        if found == -1:
            self._digrams[key] = symbol
            return False
        if nxt[found] != symbol:
            self._match(symbol, found)
        return True

    def _match(self, new: int, match: int) -> None:
        nxt, prv, value = self._next, self._prev, self._value
        digrams = self._digrams
        rule_guard, rule_count = self._rule_guard, self._rule_count
        match_prev = prv[match]
        if value[match_prev] < 0 and value[nxt[nxt[match]]] < 0:
            # The match is the entire body of an existing rule: reuse it.
            serial = -value[match_prev] - 1
            site = new
            other_site = -1
            first = -1
        else:
            # New rule from clones of the digram (oracle _process_match).
            serial = len(rule_guard)
            guard = len(value)
            value.append(-serial - 1)
            nxt.append(-1)
            prv.append(-1)
            rule_guard.append(guard)
            rule_count.append(0)
            v1 = value[new]
            v2 = value[nxt[new]]
            first = guard + 1
            second = guard + 2
            value.append(v1)
            nxt.append(-1)
            prv.append(-1)
            value.append(v2)
            nxt.append(-1)
            prv.append(-1)
            if v1 & 1:
                rule_count[(v1 - 1) >> 1] += 1
            if v2 & 1:
                rule_count[(v2 - 1) >> 1] += 1
            nxt[guard] = first
            prv[first] = guard
            nxt[first] = second
            prv[second] = first
            nxt[second] = guard
            prv[guard] = second
            site = match
            other_site = new
        while site != -1:
            # ---- oracle _substitute(site, serial) ----------------------
            anchor = prv[site]
            victim = site
            second_victim = nxt[site]
            # _cleanup(victim) for victim in (site, site.next)
            while True:
                v = value[victim]
                if v >= 0:
                    # _join(prev, next) with digram maintenance
                    left, right = prv[victim], nxt[victim]
                    if nxt[left] != -1:
                        lv = value[left]
                        la = nxt[left]
                        if lv >= 0 and la != -1 and value[la] >= 0:
                            k = (lv << 32) | value[la]
                            if digrams.get(k, -1) == left:
                                del digrams[k]
                        rp, rn = prv[right], nxt[right]
                        rv = value[right]
                        if rp != -1 and rn != -1 and rv >= 0 and value[rp] == rv and value[rn] == rv:
                            digrams[(rv << 32) | rv] = right
                        lp, ln = prv[left], nxt[left]
                        lv = value[left]
                        if lp != -1 and ln != -1 and lv >= 0 and value[ln] == lv and value[lp] == lv:
                            digrams[(lv << 32) | lv] = lp
                    nxt[left] = right
                    prv[right] = left
                    # _delete_digram(victim): reads victim's (stale) next
                    va = nxt[victim]
                    if va != -1 and value[va] >= 0:
                        k = (v << 32) | value[va]
                        if digrams.get(k, -1) == victim:
                            del digrams[k]
                    if v & 1:
                        rule_count[(v - 1) >> 1] -= 1
                if victim == second_victim:
                    break
                victim = second_victim
            # _insert_after(anchor, NonTerminal(serial))
            nonterminal = len(value)
            value.append((serial << 1) | 1)
            nxt.append(-1)
            prv.append(-1)
            rule_count[serial] += 1
            after_anchor = nxt[anchor]
            # _join(nonterminal, anchor.next): fresh symbol, plain links.
            nxt[nonterminal] = after_anchor
            prv[after_anchor] = nonterminal
            # _join(anchor, nonterminal): anchor.next was just relinked, so
            # only anchor's own stale digram needs deleting; the triple fix
            # cannot fire (the fresh non-terminal has no prev yet at the
            # oracle's equivalent point, and anchor.next is the fresh one).
            av = value[anchor]
            if av >= 0 and value[after_anchor] >= 0:
                k = (av << 32) | value[after_anchor]
                if digrams.get(k, -1) == anchor:
                    del digrams[k]
            nxt[anchor] = nonterminal
            prv[nonterminal] = anchor
            # if not _check(anchor): _check(anchor.next)
            if not self._check(anchor):
                self._check(nxt[anchor])
            site = other_site
            other_site = -1
        if first != -1:
            digrams[(value[first] << 32) | value[nxt[first]]] = first
        # Rule utility: the replacement may have dropped another rule's
        # reference count to one, in which case it is inlined (_expand).
        first_of_rule = nxt[rule_guard[serial]]
        head = value[first_of_rule]
        if head > 0 and head & 1 and rule_count[(head - 1) >> 1] == 1:
            inner = (head - 1) >> 1
            left = prv[first_of_rule]
            right = nxt[first_of_rule]
            inner_guard = rule_guard[inner]
            inner_first = nxt[inner_guard]
            inner_last = prv[inner_guard]
            # _delete_digram(nonterminal being expanded)
            fa = nxt[first_of_rule]
            if fa != -1 and value[fa] >= 0:
                k = (head << 32) | value[fa]
                if digrams.get(k, -1) == first_of_rule:
                    del digrams[k]
            self._join(left, inner_first)
            self._join(inner_last, right)
            digrams[(value[inner_last] << 32) | value[nxt[inner_last]]] = inner_last
            rule_count[inner] = 0
            nxt[inner_guard] = inner_guard
            prv[inner_guard] = inner_guard

    def _join(self, left: int, right: int) -> None:
        """Oracle ``_join`` (cold path: only rule expansion uses it now)."""
        nxt, prv, value = self._next, self._prev, self._value
        digrams = self._digrams
        if nxt[left] != -1:
            lv = value[left]
            la = nxt[left]
            if lv >= 0 and la != -1 and value[la] >= 0:
                k = (lv << 32) | value[la]
                if digrams.get(k, -1) == left:
                    del digrams[k]
            # Triple-repetition fix: when unlinking inside a run of identical
            # symbols (e.g. ``aaa``) the overlapping digram that becomes
            # primary must be (re-)registered.
            rp, rn = prv[right], nxt[right]
            rv = value[right]
            if rp != -1 and rn != -1 and rv >= 0 and value[rp] == rv and value[rn] == rv:
                digrams[(rv << 32) | rv] = right
            lp, ln = prv[left], nxt[left]
            lv = value[left]
            if lp != -1 and ln != -1 and lv >= 0 and value[ln] == lv and value[lp] == lv:
                digrams[(lv << 32) | lv] = lp
        nxt[left] = right
        prv[right] = left

    # ------------------------------------------------------------------
    # Public builder API.
    # ------------------------------------------------------------------

    def feed(self, token_id: int) -> None:
        """Append one interned token and restore the Sequitur invariants.

        The common case — a fresh digram at the end of R0 — is fully
        inlined: one arena append, two link writes, one dict probe.
        """
        nxt, prv, value = self._next, self._prev, self._value
        encoded = token_id << 1
        value.append(encoded)
        nxt.append(-1)
        prv.append(-1)
        terminal = len(value) - 1
        guard = self._rule_guard[0]
        last = prv[guard]
        # _insert_after(root.last(), terminal): both joins reduce to plain
        # link writes (the fresh terminal has no neighbours yet, and the
        # digram ending at the guard is never registered).
        nxt[terminal] = guard
        prv[guard] = terminal
        nxt[last] = terminal
        prv[terminal] = last
        self._fed += 1
        # _check(terminal.prev), inlined for the no-match fast path.
        last_value = value[last]
        if last_value < 0:
            return
        key = (last_value << 32) | encoded
        digrams = self._digrams
        found = digrams.get(key, -1)
        if found == -1:
            digrams[key] = last
            return
        if nxt[found] != last:
            self._match(last, found)

    def feed_many(self, token_ids: Sequence[int]) -> None:
        """Feed a batch of token ids — the streaming layer's bulk entry.

        The :meth:`feed` fast path is inlined into the loop body with every
        container bound to a local: the common no-match token costs a few
        list appends and one dict probe with no method-call frame at all.
        Only a digram match (and the structural repairs it may cascade
        into) leaves the loop.
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
        match = self._match
        fed = self._fed
        for token_id in token_ids:
            encoded = token_id << 1
            append_v(encoded)
            append_n(guard)
            append_p(-1)
            terminal = len(value) - 1
            last = prv[guard]
            prv[guard] = terminal
            nxt[last] = terminal
            prv[terminal] = last
            fed += 1
            last_value = value[last]
            if last_value < 0:
                continue
            key = (last_value << 32) | encoded
            found = digram_get(key, -1)
            if found == -1:
                digrams[key] = last
            elif nxt[found] != last:
                match(last, found)
        self._fed = fed

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
