"""Numerosity reduction (Section 4.2).

Neighbouring sliding windows differ by one sample, so consecutive SAX words
are frequently identical; feeding them all to Sequitur yields an explosion
of trivial-match rules. Numerosity reduction keeps only the *first* word of
each run of consecutive identical words, together with its window offset —
exactly the ``ba1, dc4, aa6, ac7`` compression of the paper's Eq. (3).

The offsets are what later lets a grammar-rule occurrence be mapped back to
a time-series interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Supported reduction strategies. ``"exact"`` collapses runs of identical
#: words (the paper's method); ``"none"`` keeps every word.
STRATEGIES = ("exact", "none")


@dataclass(frozen=True)
class TokenSequence:
    """A discretized, numerosity-reduced token sequence.

    Attributes
    ----------
    words:
        The kept SAX words, in order.
    offsets:
        ``offsets[i]`` is the sliding-window start position (into the
        original series) of ``words[i]``.
    n_windows:
        Number of sliding windows before reduction (needed to recover the
        time span of the final token).
    window:
        The sliding-window length ``n`` used at discretization.
    """

    words: tuple[str, ...]
    offsets: np.ndarray = field(repr=False)
    n_windows: int
    window: int

    def __post_init__(self) -> None:
        if len(self.words) != len(self.offsets):
            raise ValueError(
                f"words and offsets must align, got {len(self.words)} words "
                f"and {len(self.offsets)} offsets"
            )
        if len(self.offsets) and self.n_windows <= int(self.offsets[-1]):
            raise ValueError("n_windows must exceed the last offset")

    def __len__(self) -> int:
        return len(self.words)

    def token_span(self, first_token: int, last_token: int) -> tuple[int, int]:
        """Time-series interval covered by tokens ``first_token..last_token``.

        Follows the GrammarViz convention the paper builds on: the span runs
        from the first token's window start to the end of the last token's
        window, i.e. the inclusive point interval
        ``(offsets[first_token], offsets[last_token] + window - 1)``.
        """
        if not 0 <= first_token <= last_token < len(self.words):
            raise IndexError(
                f"token span [{first_token}, {last_token}] out of range "
                f"for {len(self.words)} tokens"
            )
        start = int(self.offsets[first_token])
        end = int(self.offsets[last_token]) + self.window - 1
        return start, end


@dataclass(frozen=True)
class TokenIdSequence:
    """A numerosity-reduced token sequence carried as integer ids.

    The id-native counterpart of :class:`TokenSequence`, produced by the
    batch tokenizer path
    (:meth:`repro.core.multiresolution.MultiResolutionDiscretizer.token_ids`).
    Two tokens share an id exactly when their words are equal; the id
    values themselves mean nothing outside the sequence, and it carries no
    vocabulary, so building one never decodes a word string. Grammar
    kernels feed on :attr:`ids` directly.
    """

    ids: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    n_windows: int
    window: int

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.offsets):
            raise ValueError(
                f"ids and offsets must align, got {len(self.ids)} ids "
                f"and {len(self.offsets)} offsets"
            )
        if len(self.offsets) and self.n_windows <= int(self.offsets[-1]):
            raise ValueError("n_windows must exceed the last offset")

    def __len__(self) -> int:
        return len(self.ids)


def kept_window_mask(symbols: np.ndarray) -> np.ndarray:
    """Exact-numerosity keep mask over a symbol-index matrix.

    ``mask[i]`` is True when row ``i`` differs from row ``i - 1`` (row 0 is
    always kept): exactly the windows :func:`numerosity_reduction` keeps,
    decided on integer symbol rows — two windows share a word iff their
    symbol rows are equal — without materializing any strings.
    """
    matrix = np.asarray(symbols)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D symbol matrix, got shape {matrix.shape}")
    keep = np.ones(len(matrix), dtype=bool)
    keep[1:] = np.any(matrix[1:] != matrix[:-1], axis=1)
    return keep


def numerosity_reduction(
    words: list[str],
    window: int,
    strategy: str = "exact",
) -> TokenSequence:
    """Apply numerosity reduction to a full sliding-window word list.

    Parameters
    ----------
    words:
        One SAX word per window start (output of :func:`repro.sax.discretize`).
    window:
        The sliding-window length used to produce ``words``.
    strategy:
        ``"exact"`` (collapse runs, the paper's choice) or ``"none"``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not words:
        raise ValueError("cannot reduce an empty word list")
    if strategy == "none":
        offsets = np.arange(len(words), dtype=np.int64)
        return TokenSequence(tuple(words), offsets, len(words), window)
    kept_words: list[str] = []
    kept_offsets: list[int] = []
    previous: str | None = None
    for position, word in enumerate(words):
        if word != previous:
            kept_words.append(word)
            kept_offsets.append(position)
            previous = word
    return TokenSequence(
        tuple(kept_words),
        np.asarray(kept_offsets, dtype=np.int64),
        len(words),
        window,
    )


def expand_tokens(tokens: TokenSequence) -> list[str]:
    """Invert numerosity reduction: reconstruct the full word-per-window list.

    ``numerosity_reduction`` is lossless given the offsets, per Section 4.2
    ("S_NR contains all information needed to retrieve the original token
    sequence"); this is the inverse used by the property tests.
    """
    expanded: list[str] = []
    boundaries = list(tokens.offsets) + [tokens.n_windows]
    for word, start, stop in zip(tokens.words, boundaries[:-1], boundaries[1:]):
        expanded.extend([word] * (stop - start))
    return expanded
