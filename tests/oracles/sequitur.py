"""Pure-Python Sequitur: the reference the native arena is tested against.

Sequitur (Nevill-Manning & Witten 1997; paper Section 5.1) reads a token
sequence left to right and maintains two invariants:

- **Digram uniqueness** — no pair of adjacent symbols occurs more than once
  in the grammar; a repeated digram is replaced by a (possibly new)
  non-terminal.
- **Rule utility** — every rule is referenced at least twice; a rule whose
  reference count drops to one is inlined and deleted.

:class:`SequiturBuilder` follows the canonical linked-list design of the
reference implementation: each rule body is a circular doubly-linked list
anchored by a *guard* symbol, and a hash table maps digram keys to their
single current occurrence. It is fed word strings and freezes into the
same :class:`~repro.grammar.rules.Grammar` that
:class:`repro.grammar._kernel.FastSequitur` builds from interned ids.

:func:`induce_grammar` is the word-fed twin of
:func:`repro.grammar.sequitur.induce_grammar`, and
:class:`GenerationalOracle` the word-fed twin of the decay generations of
:class:`repro.grammar._kernel.TokenLog` (the decay policy's grammar
forgetting), with the same routing, sealing and retirement stats.
"""

from __future__ import annotations

from typing import Iterable

from repro.grammar.rules import Grammar, GrammarRule

#: Type of a digram-table key: a pair of per-symbol keys (see ``_Symbol.key``).
_DigramKey = tuple[object, object]


class _Rule:
    """A grammar rule under construction: circular list body + refcount."""

    __slots__ = ("guard", "count", "serial")

    def __init__(self, serial: int) -> None:
        self.serial = serial
        self.count = 0
        self.guard = _Guard(self)
        self.guard.next = self.guard
        self.guard.prev = self.guard

    def first(self) -> "_Symbol":
        return self.guard.next

    def last(self) -> "_Symbol":
        return self.guard.prev


class _Symbol:
    """Base node of a rule body's doubly-linked list."""

    __slots__ = ("prev", "next")

    is_guard = False
    is_nonterminal = False

    def __init__(self) -> None:
        self.prev: _Symbol | None = None
        self.next: _Symbol | None = None

    @property
    def key(self) -> object:
        raise NotImplementedError

    def clone(self) -> "_Symbol":
        raise NotImplementedError


class _Terminal(_Symbol):
    __slots__ = ("word",)

    def __init__(self, word: str) -> None:
        super().__init__()
        self.word = word

    @property
    def key(self) -> object:
        return self.word

    def clone(self) -> "_Terminal":
        return _Terminal(self.word)


class _NonTerminal(_Symbol):
    __slots__ = ("rule",)

    is_nonterminal = True

    def __init__(self, rule: _Rule) -> None:
        super().__init__()
        self.rule = rule
        rule.count += 1

    @property
    def key(self) -> object:
        # Rules are identified by serial number; serials are never reused,
        # so stale digram-table entries for deleted rules can never collide.
        return self.rule.serial

    def clone(self) -> "_NonTerminal":
        return _NonTerminal(self.rule)


class _Guard(_Symbol):
    __slots__ = ("rule",)

    is_guard = True

    def __init__(self, rule: _Rule) -> None:
        super().__init__()
        self.rule = rule

    @property
    def key(self) -> object:
        # A guard participates in no digram; a unique key guarantees that.
        return self

    def clone(self) -> "_Symbol":
        raise TypeError("guards are never cloned")


class SequiturBuilder:
    """Incremental Sequitur: feed tokens, then freeze into a Grammar."""

    def __init__(self) -> None:
        self._digrams: dict[_DigramKey, _Symbol] = {}
        self._serial = 0
        self.root = self._new_rule()

    def _new_rule(self) -> _Rule:
        rule = _Rule(self._serial)
        self._serial += 1
        return rule

    # ------------------------------------------------------------------
    # Linked-list primitives (ports of the reference implementation).
    # ------------------------------------------------------------------

    def _digram_key(self, symbol: _Symbol) -> _DigramKey:
        return (symbol.key, symbol.next.key)

    def _delete_digram(self, symbol: _Symbol) -> None:
        """Drop the digram starting at ``symbol`` from the table, if it owns it."""
        if symbol.is_guard or symbol.next is None or symbol.next.is_guard:
            return
        key = self._digram_key(symbol)
        if self._digrams.get(key) is symbol:
            del self._digrams[key]

    def _join(self, left: _Symbol, right: _Symbol) -> None:
        """Link ``left -> right``, maintaining the digram table.

        Includes the triple-repetition fix from the reference implementation:
        when unlinking inside a run of identical symbols (e.g. ``aaa``), the
        overlapping digram that becomes primary must be (re-)registered.
        """
        if left.next is not None:
            self._delete_digram(left)
            if (
                right.prev is not None
                and right.next is not None
                and not right.is_guard
                and not right.prev.is_guard
                and not right.next.is_guard
                and right.key == right.prev.key
                and right.key == right.next.key
            ):
                self._digrams[self._digram_key(right)] = right
            if (
                left.prev is not None
                and left.next is not None
                and not left.is_guard
                and not left.prev.is_guard
                and not left.next.is_guard
                and left.key == left.next.key
                and left.key == left.prev.key
            ):
                self._digrams[self._digram_key(left.prev)] = left.prev
        left.next = right
        right.prev = left

    def _insert_after(self, anchor: _Symbol, new: _Symbol) -> None:
        self._join(new, anchor.next)
        self._join(anchor, new)

    def _cleanup(self, symbol: _Symbol) -> None:
        """Unlink ``symbol`` from its rule body, updating table and refcounts."""
        if symbol.is_guard:
            return
        self._join(symbol.prev, symbol.next)
        self._delete_digram(symbol)
        if symbol.is_nonterminal:
            symbol.rule.count -= 1

    # ------------------------------------------------------------------
    # Core Sequitur steps.
    # ------------------------------------------------------------------

    def _check(self, symbol: _Symbol) -> bool:
        """Enforce digram uniqueness for the digram starting at ``symbol``.

        Returns True when the digram matched an existing occurrence (whether
        or not a replacement happened — overlapping matches are skipped, as
        in the reference implementation).
        """
        if symbol.is_guard or symbol.next is None or symbol.next.is_guard:
            return False
        key = self._digram_key(symbol)
        found = self._digrams.get(key)
        if found is None:
            self._digrams[key] = symbol
            return False
        if found.next is not symbol:
            self._process_match(symbol, found)
        return True

    def _process_match(self, new: _Symbol, match: _Symbol) -> None:
        """Replace both occurrences of a repeated digram by a non-terminal."""
        if match.prev.is_guard and match.next.next.is_guard:
            # The matching occurrence is the entire body of an existing rule:
            # reuse that rule instead of creating a new one.
            rule = match.prev.rule
            self._substitute(new, rule)
        else:
            rule = self._new_rule()
            first = new.clone()
            second = new.next.clone()
            rule.guard.next = first
            first.prev = rule.guard
            first.next = second
            second.prev = first
            second.next = rule.guard
            rule.guard.prev = second
            self._substitute(match, rule)
            self._substitute(new, rule)
            self._digrams[self._digram_key(first)] = first
        # Rule utility: the replacement may have dropped another rule's
        # reference count to one, in which case it is inlined.
        first_of_rule = rule.first()
        if first_of_rule.is_nonterminal and first_of_rule.rule.count == 1:
            self._expand(first_of_rule)

    def _substitute(self, symbol: _Symbol, rule: _Rule) -> None:
        """Replace the digram starting at ``symbol`` with ``NonTerminal(rule)``."""
        anchor = symbol.prev
        self._cleanup(symbol)
        self._cleanup(symbol.next)
        self._insert_after(anchor, _NonTerminal(rule))
        if not self._check(anchor):
            self._check(anchor.next)

    def _expand(self, nonterminal: _NonTerminal) -> None:
        """Inline a once-referenced rule at its sole remaining use site."""
        rule = nonterminal.rule
        left = nonterminal.prev
        right = nonterminal.next
        first = rule.first()
        last = rule.last()
        # Remove the table entries owned by the disappearing digrams around
        # the non-terminal before relinking.
        self._delete_digram(nonterminal)
        self._join(left, first)
        self._join(last, right)
        self._digrams[self._digram_key(last)] = last
        rule.count = 0
        rule.guard.next = rule.guard
        rule.guard.prev = rule.guard

    # ------------------------------------------------------------------
    # Public builder API.
    # ------------------------------------------------------------------

    def feed(self, word: str) -> None:
        """Append one token to the sequence and restore the invariants."""
        terminal = _Terminal(word)
        self._insert_after(self.root.last(), terminal)
        self._check(terminal.prev)

    def freeze(self) -> Grammar:
        """Snapshot the builder into an immutable :class:`Grammar`.

        Rules are renumbered 1..k in the order of first reference during a
        pre-order walk from R0, so output numbering is deterministic and
        deleted rules leave no gaps.
        """
        numbering: dict[int, int] = {}
        ordered_rules: list[_Rule] = []
        # Pre-order walk with an explicit stack: deep grammars must not hit
        # the interpreter recursion limit.
        stack: list[_Symbol] = [self.root.first()]
        while stack:
            symbol = stack.pop()
            while not symbol.is_guard:
                if symbol.is_nonterminal and symbol.rule.serial not in numbering:
                    numbering[symbol.rule.serial] = len(ordered_rules) + 1
                    ordered_rules.append(symbol.rule)
                    stack.append(symbol.next)
                    symbol = symbol.rule.first()
                    continue
                symbol = symbol.next

        def _rhs(rule: _Rule) -> tuple[str | int, ...]:
            body: list[str | int] = []
            symbol = rule.first()
            while not symbol.is_guard:
                if symbol.is_nonterminal:
                    body.append(numbering[symbol.rule.serial])
                else:
                    body.append(symbol.word)
                symbol = symbol.next
            return tuple(body)

        grammar_rules = [GrammarRule(0, _rhs(self.root))]
        grammar_rules.extend(
            GrammarRule(index + 1, _rhs(rule)) for index, rule in enumerate(ordered_rules)
        )
        return Grammar(tuple(grammar_rules))


def induce_grammar(tokens: Iterable[str]) -> Grammar:
    """Feed ``tokens`` (word strings) to a fresh builder and freeze it."""
    builder = SequiturBuilder()
    fed = False
    for word in tokens:
        if not isinstance(word, str):
            raise TypeError(f"tokens must be strings, got {type(word).__name__}")
        builder.feed(word)
        fed = True
    if not fed:
        raise ValueError("cannot induce a grammar from an empty token sequence")
    return builder.freeze()


class GenerationalOracle:
    """Word-fed builders per ``generation_size``-point generation.

    A token goes to the generation ``offset // generation_size``; the first
    token of a later generation seals (freezes) the current one, and
    :meth:`drop_before` retires every sealed generation that ends at or
    before an offset, counting its tokens, rules and rule references.
    """

    def __init__(self, generation_size: int) -> None:
        self.generation_size = int(generation_size)
        self._sealed: dict[int, tuple[Grammar, int]] = {}
        self._current: tuple[int, SequiturBuilder] | None = None
        self._current_count = 0
        self.retired_generations = 0
        self.retired_tokens = 0
        self.retired_rules = 0
        self.retired_rule_refs = 0

    def feed(self, word: str, offset: int) -> None:
        index = int(offset) // self.generation_size
        if self._current is not None and index < self._current[0]:
            raise ValueError("token offsets must be non-decreasing")
        if self._current is None or index != self._current[0]:
            if self._current is not None:
                self._sealed[self._current[0]] = (
                    self._current[1].freeze(),
                    self._current_count,
                )
            self._current = (index, SequiturBuilder())
            self._current_count = 0
        self._current[1].feed(word)
        self._current_count += 1

    def drop_before(self, offset: int) -> int:
        dropped = 0
        for index in sorted(self._sealed):
            if (index + 1) * self.generation_size > int(offset):
                break
            grammar, count = self._sealed.pop(index)
            self.retired_generations += 1
            self.retired_tokens += count
            self.retired_rules += grammar.n_rules - 1
            self.retired_rule_refs += sum(grammar.rule_refcounts())
            dropped += 1
        return dropped

    def live_grammars(self) -> list[tuple[int, Grammar, int]]:
        """``(generation_index, grammar, token_count)``, oldest first."""
        live = [(index, grammar, count) for index, (grammar, count) in sorted(self._sealed.items())]
        if self._current is not None:
            index, builder = self._current
            live.append((index, builder.freeze(), self._current_count))
        return live
