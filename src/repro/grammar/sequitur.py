"""Sequitur grammar induction (Nevill-Manning & Witten 1997; paper Section 5.1).

Sequitur reads a token sequence left to right and maintains two invariants:

- **Digram uniqueness** — no pair of adjacent symbols occurs more than once
  in the grammar; a repeated digram is replaced by a (possibly new)
  non-terminal.
- **Rule utility** — every rule is referenced at least twice; a rule whose
  reference count drops to one is inlined and deleted.

Grammars are built on the native arena of :mod:`repro.grammar._kernel`
(amortized O(1) per input token). The public entry points here are
:func:`induce_grammar`, which returns a frozen
:class:`repro.grammar.rules.Grammar`, and :class:`GenerationalSequitur`,
the generation-segmented variant whose old generations can be retired
wholesale (the streaming eviction layer's grammar forgetting). The
canonical linked-list Sequitur they are tested against, a port of the
reference implementation, is ``tests/oracles/sequitur.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.grammar import _kernel
from repro.grammar.rules import Grammar


class GenerationalSequitur:
    """Generation-segmented Sequitur with wholesale rule retirement.

    The streaming eviction layer's grammar-forgetting backend for the
    ``"decay"`` policy: tokens are routed by their window offset into fixed
    ``generation_size``-point generations, each owning an independent
    Sequitur builder. A generation is *sealed* (frozen into an immutable
    :class:`~repro.grammar.rules.Grammar`, its builder discarded) as soon as
    the first token of the next generation arrives, and
    :meth:`drop_before` retires whole sealed generations once the eviction
    horizon passes them — their rules are reference-counted into the
    retirement stats and forgotten wholesale, which is what keeps a live
    grammar's memory proportional to the horizon instead of the stream.

    The relaxation relative to a single grammar over the same tokens: rules
    never span a generation boundary, so repeated structure crossing a
    boundary is not compressed (and contributes less rule density there).
    The sliding policy avoids this by re-inducing over the live tokens
    instead; see :mod:`repro.core.streaming`.

    Each generation's builder is a native arena
    (:func:`repro.grammar._kernel.make_builder`), which interns words
    internally (:meth:`feed`) or accepts pre-interned ids against a
    caller-owned vocabulary (:meth:`feed_id`, the streaming layer's path).
    Sealing a generation always frees the builder arena — only the frozen
    :class:`Grammar` (plain word strings, no token-array references) and
    its occurrence spans are retained, which :meth:`memory_bytes` makes
    observable.
    """

    def __init__(
        self,
        generation_size: int,
        *,
        vocabulary: Sequence[str] | None = None,
    ) -> None:
        generation_size = int(generation_size)
        if generation_size < 1:
            raise ValueError(f"generation_size must be positive, got {generation_size}")
        self.generation_size = generation_size
        #: Caller-owned vocabulary for :meth:`feed_id` (``vocabulary[id]`` is
        #: the word of token id ``id``; it may keep growing between calls).
        self._vocabulary = vocabulary
        #: Internal interner backing :meth:`feed`.
        self._own_vocabulary: list[str] = []
        self._own_ids: dict[str, int] = {}
        #: Sealed generations: ``{generation_index: (grammar, token_count)}``.
        self._sealed: dict[int, tuple[Grammar, int]] = {}
        #: Sealed generations' occurrence spans, extracted once at seal time
        #: — what makes decay polls amortized: a sealed
        #: grammar never changes, so its spans never need re-walking.
        self._sealed_spans: dict[int, tuple] = {}
        self._current_index: int | None = None
        self._current_builder = None
        self._current_count = 0
        #: Snapshot caches of the (still growing) current generation.
        self._current_frozen: tuple[int, Grammar] | None = None
        self._current_spans: tuple[int, tuple] | None = None
        self.retired_generations = 0
        self.retired_tokens = 0
        #: Rules (excluding R0) dropped wholesale with their generation.
        self.retired_rules = 0
        #: Total rule references those retired rules had (each >= 2 by the
        #: rule-utility invariant; see :meth:`Grammar.rule_refcounts`).
        self.retired_rule_refs = 0

    @classmethod
    def replay(
        cls,
        tokens: Iterable[tuple[int, int]],
        *,
        generation_size: int,
        vocabulary: Sequence[str] | None = None,
    ) -> "GenerationalSequitur":
        """Rebuild generation-segmented grammar state from live tokens.

        The session-snapshot restore path: ``tokens`` is the live
        ``(token_id, offset)`` stream (offsets non-decreasing, ids against
        ``vocabulary``). Generation routing is a pure function of the
        offsets (``offset // generation_size``) and each generation's
        grammar a pure function of its token ids, so replaying the live
        tokens reconstructs every live generation bitwise — sealed ones
        re-seal at the same boundaries, and the newest keeps growing.
        Retirement statistics are *not* live state and restart at zero.
        """
        instance = cls(generation_size, vocabulary=vocabulary)
        feed_id = instance.feed_id
        for token_id, offset in tokens:
            feed_id(token_id, offset)
        return instance

    def generation_of(self, offset: int) -> int:
        """Generation index owning the window offset ``offset``."""
        return int(offset) // self.generation_size

    def _freeze_current(self) -> Grammar:
        vocabulary = self._vocabulary if self._vocabulary is not None else self._own_vocabulary
        return self._current_builder.freeze(vocabulary)

    def _seal_current(self) -> None:
        if self._current_builder is None:
            return
        # The frozen Grammar holds word strings only; dropping the builder
        # here releases the generation's symbol arena and digram table —
        # sealed generations must not pin retired token storage.
        self._sealed[self._current_index] = (
            self._freeze_current(),
            self._current_count,
        )
        # Spans are two small int arrays per generation — kept so decay
        # polls never re-walk a sealed grammar (see live_spans).
        self._sealed_spans[self._current_index] = self._current_builder.occurrence_spans()
        self._current_builder = None
        self._current_frozen = None
        self._current_spans = None
        self._current_count = 0

    def _route(self, offset: int) -> None:
        index = self.generation_of(offset)
        if self._current_index is not None and index < self._current_index:
            raise ValueError(
                f"token offsets must be non-decreasing: generation {index} "
                f"after generation {self._current_index}"
            )
        if index != self._current_index:
            self._seal_current()
            self._current_index = index
        if self._current_builder is None:
            self._current_builder = _kernel.make_builder()

    def feed(self, word: str, offset: int) -> None:
        """Route one token (with its window offset) to its generation.

        Offsets must be fed in increasing order — they are window start
        positions of a numerosity-reduced stream, which is naturally
        monotone.
        """
        self._route(offset)
        token_id = self._own_ids.get(word)
        if token_id is None:
            token_id = len(self._own_vocabulary)
            self._own_ids[word] = token_id
            self._own_vocabulary.append(word)
        self._current_builder.feed(token_id)
        self._current_count += 1
        self._current_frozen = None
        self._current_spans = None

    def feed_id(self, token_id: int, offset: int) -> None:
        """Route one pre-interned token id to its generation.

        Requires the ``vocabulary`` constructor argument (the caller's
        interner owns the id space); the streaming layer uses this entry so
        ids flow straight from the discretizer without materializing words
        per token. Must not be mixed with :meth:`feed` on the same instance.
        """
        if self._vocabulary is None:
            raise ValueError("feed_id requires a vocabulary at construction")
        self._route(offset)
        self._current_builder.feed(token_id)
        self._current_count += 1
        self._current_frozen = None
        self._current_spans = None

    def drop_before(self, offset: int) -> int:
        """Retire every sealed generation ending at or before ``offset``.

        Returns the number of generations dropped. Only *sealed* generations
        are eligible (the current one is still growing and, with the decay
        policy's aligned horizon, never expired).
        """
        boundary = int(offset)
        dropped = 0
        for index in sorted(self._sealed):
            if (index + 1) * self.generation_size > boundary:
                break
            grammar, count = self._sealed.pop(index)
            self._sealed_spans.pop(index, None)
            self.retired_generations += 1
            self.retired_tokens += count
            self.retired_rules += grammar.n_rules - 1
            self.retired_rule_refs += sum(grammar.rule_refcounts())
            dropped += 1
        return dropped

    def live_grammars(self) -> list[tuple[int, Grammar, int]]:
        """``(generation_index, grammar, token_count)`` of every live generation.

        Sealed generations return their cached frozen grammar; the current
        generation is frozen on demand (cached until the next token).
        Generations are returned oldest first.
        """
        live: list[tuple[int, Grammar, int]] = [
            (index, grammar, count) for index, (grammar, count) in sorted(self._sealed.items())
        ]
        if self._current_builder is not None:
            if self._current_frozen is None or self._current_frozen[0] != self._current_count:
                self._current_frozen = (self._current_count, self._freeze_current())
            live.append((self._current_index, self._current_frozen[1], self._current_count))
        return live

    def live_spans(self) -> list[tuple[int, "object", "object", int]]:
        """``(index, firsts, lasts, count)`` of every live generation.

        The span-level twin of :meth:`live_grammars`: sealed generations
        return occurrence spans extracted once at seal time (their grammars
        never change again), and only the growing generation reads its live
        builder arena (cached until the next token). No frozen grammars,
        rule objects, or word strings are built — the decay snapshot path
        feeds these straight into the fused density scatter. Oldest
        generation first, matching :meth:`live_grammars` so accumulated
        curves stay bitwise equal.
        """
        live = [
            (index, *self._sealed_spans[index], self._sealed[index][1])
            for index in sorted(self._sealed)
        ]
        if self._current_builder is not None:
            if self._current_spans is None or self._current_spans[0] != self._current_count:
                self._current_spans = (
                    self._current_count,
                    self._current_builder.occurrence_spans(),
                )
            firsts, lasts = self._current_spans[1]
            live.append((self._current_index, firsts, lasts, self._current_count))
        return live

    def memory_bytes(self) -> int:
        """Estimate of bytes retained by live grammar state.

        The growing generation is charged its builder arena (exactly, from
        the native capacities); sealed generations are charged only their
        frozen rules and spans. The decay soak
        asserts this stays bounded as generations retire — the accounting
        that catches a sealed generation accidentally pinning its builder.
        """
        total = 0
        if self._current_builder is not None:
            total += self._current_builder.memory_bytes()
        for grammar, _count in self._sealed.values():
            total += 64 * grammar.grammar_size()
        for firsts, lasts in self._sealed_spans.values():
            total += firsts.nbytes + lasts.nbytes
        return total


def induce_grammar(tokens: Iterable[str] | Sequence[str]) -> Grammar:
    """Run Sequitur over ``tokens`` and return the induced grammar.

    Parameters
    ----------
    tokens:
        The (numerosity-reduced) SAX words, or any iterable of hashable
        strings.

    Returns
    -------
    Grammar
        Frozen grammar with ``rules[0]`` being R0 (the compressed sequence).

    Example
    -------
    The paper's Eq. (4) token sequence compresses to
    ``R0 -> R2 cc ca R2`` with ``R2 -> ab bc aa`` (Table 2):

    >>> grammar = induce_grammar(["ab", "bc", "aa", "cc", "ca", "ab", "bc", "aa"])
    >>> grammar.rules[0].rhs
    (1, 'cc', 'ca', 1)
    >>> grammar.rules[1].rhs
    ('ab', 'bc', 'aa')
    """
    # Intern words on the fly, feed integer ids, map back at freeze time.
    # Grammar structure depends only on the equality pattern of the tokens,
    # so the result is the one the words themselves would induce.
    ids: dict[str, int] = {}
    vocabulary: list[str] = []
    id_builder = _kernel.make_builder()
    feed = id_builder.feed
    fed = False
    for word in tokens:
        if not isinstance(word, str):
            raise TypeError(f"tokens must be strings, got {type(word).__name__}")
        token_id = ids.get(word)
        if token_id is None:
            token_id = len(vocabulary)
            ids[word] = token_id
            vocabulary.append(word)
        feed(token_id)
        fed = True
    if not fed:
        raise ValueError("cannot induce a grammar from an empty token sequence")
    return id_builder.freeze(vocabulary)
