"""Sequitur grammar induction (Nevill-Manning & Witten 1997; paper Section 5.1).

Sequitur reads a token sequence left to right and maintains two invariants:

- **Digram uniqueness** — no pair of adjacent symbols occurs more than once
  in the grammar; a repeated digram is replaced by a (possibly new)
  non-terminal.
- **Rule utility** — every rule is referenced at least twice; a rule whose
  reference count drops to one is inlined and deleted.

Grammars are built on the native arena of :mod:`repro.grammar._kernel`
(amortized O(1) per input token). The public entry point here is
:func:`induce_grammar`, which returns a frozen
:class:`repro.grammar.rules.Grammar`. Streaming members never freeze a
grammar: their arenas, including the decay policy's per-generation ones,
live in the native token log (:class:`repro.grammar._kernel.TokenLog`).
The canonical linked-list Sequitur they are tested against, a port of the
reference implementation, is ``tests/oracles/sequitur.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.grammar import _kernel
from repro.grammar.rules import Grammar


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
