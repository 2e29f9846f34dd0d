"""Numerosity reduction (Section 4.2): strategies and the token record.

Neighbouring sliding windows differ by one sample, so consecutive SAX words
are frequently identical; feeding them all to Sequitur yields an explosion
of trivial-match rules. Numerosity reduction keeps only the *first* word of
each run of consecutive identical words, together with its window offset —
exactly the ``ba1, dc4, aa6, ac7`` compression of the paper's Eq. (3).

The reduction itself runs natively on symbol rows
(:func:`repro.sax._kernel.sax_tokens`, which also assigns the token ids).
This module names the strategies and holds :class:`TokenSequence`, the kept
words with their offsets, which is what lets a grammar-rule occurrence be
mapped back to a time-series interval.
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
