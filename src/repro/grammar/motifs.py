"""Grammar-based motif discovery (GrammarViz [10, 19]; Gao & Lin [6, 7]).

The flip side of grammar-based anomaly detection: where anomalies are the
*incompressible* parts, motifs — frequently repeating variable-length
patterns — are the grammar rules with the most occurrences. The paper
leans on this machinery (its Section 3.1 motivates compressibility for
motif discovery), and the ensemble's member grammars expose motifs for
free; this module extracts them (:func:`discover_motifs` through
:class:`repro.core.detector.GrammarAnomalyDetector`'s native token ids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grammar.rules import Grammar
from repro.sax.numerosity import TokenSequence
from repro.utils.validation import ensure_time_series, validate_window


@dataclass(frozen=True)
class Motif:
    """A repeating variable-length pattern found via grammar induction.

    Attributes
    ----------
    rule_index:
        The grammar rule whose expansions are the motif instances.
    occurrences:
        ``(start, end)`` inclusive time intervals, one per instance.
    word_length:
        Length of the rule's expansion in tokens (pattern complexity).
    """

    rule_index: int
    occurrences: tuple[tuple[int, int], ...]
    word_length: int

    def __post_init__(self) -> None:
        if len(self.occurrences) < 2:
            raise ValueError("a motif needs at least two occurrences")

    @property
    def count(self) -> int:
        return len(self.occurrences)

    @property
    def mean_length(self) -> float:
        return float(np.mean([end - start + 1 for start, end in self.occurrences]))


def motifs_from_grammar(
    grammar: Grammar,
    tokens: TokenSequence,
    series_length: int,
    *,
    min_occurrences: int = 2,
    min_token_length: int = 2,
) -> list[Motif]:
    """Extract motifs from an induced grammar, most frequent first.

    Parameters
    ----------
    grammar, tokens:
        The grammar and the token sequence it was induced from.
    series_length:
        Used to clip interval ends.
    min_occurrences:
        Keep only rules occurring at least this often (rule utility already
        guarantees 2).
    min_token_length:
        Drop rules whose expansion is shorter than this many tokens —
        single-digram rules are usually trivial patterns.
    """
    lengths = grammar.expanded_lengths()
    by_rule: dict[int, list[tuple[int, int]]] = {}
    for occurrence in grammar.rule_occurrences():
        start, end = tokens.token_span(occurrence.first_token, occurrence.last_token)
        by_rule.setdefault(occurrence.rule_index, []).append(
            (start, min(end, series_length - 1))
        )
    found = [
        Motif(rule_index=rule, occurrences=tuple(sorted(intervals)), word_length=lengths[rule])
        for rule, intervals in by_rule.items()
        if len(intervals) >= min_occurrences and lengths[rule] >= min_token_length
    ]
    # Most frequent first; longer patterns break ties (more informative).
    found.sort(key=lambda motif: (-motif.count, -motif.word_length, motif.rule_index))
    return found


def discover_motifs(
    series: np.ndarray,
    window: int,
    paa_size: int = 4,
    alphabet_size: int = 4,
    *,
    k: int = 5,
    min_token_length: int = 2,
) -> list[Motif]:
    """End-to-end motif discovery on a raw series.

    Example
    -------
    >>> import numpy as np
    >>> series = np.tile(np.sin(np.linspace(0, 2 * np.pi, 100)), 20)
    >>> motifs = discover_motifs(series, window=100, paa_size=5, alphabet_size=4)
    >>> motifs[0].count >= 2
    True
    """
    from repro.core.detector import GrammarAnomalyDetector  # repro.core imports us

    series = ensure_time_series(series, name="series", min_length=2)
    window = validate_window(window, len(series))
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    grammar, tokens = GrammarAnomalyDetector(window, paa_size, alphabet_size)._induce(series)
    return motifs_from_grammar(
        grammar, tokens, len(series), min_token_length=min_token_length
    )[:k]
