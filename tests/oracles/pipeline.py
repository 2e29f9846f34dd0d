"""The detector's pipeline composed from the pure-Python oracles.

A member's curve here is the paper's pipeline (Section 5) with every stage
that runs natively in ``src/`` replaced by its reference:
:func:`~oracles.sax.sliding_paa_matrix` rows, a ``np.searchsorted`` over
the member's own breakpoint table, word strings, numerosity reduction,
the word-fed :class:`~oracles.sequitur.SequiturBuilder`, and then the
production :func:`~repro.grammar.density.rule_density_curve`. Selection,
normalization and the combiner are the production functions too: the
parity suites compare curves, member selection and anomalies, float bit
for float bit.

Streaming polls are rebuilt from scratch from every point seen so far: the
live tokens are the full token stream restricted to window starts at or
after the horizon, an unbounded or sliding member's grammar is induced over
exactly those, and a decay member's is one grammar per generation
(:class:`~oracles.sequitur.GenerationalOracle`), summed oldest first.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from oracles.sax import interval_rows_from, sliding_paa_matrix
from oracles.sequitur import GenerationalOracle, induce_grammar
from repro.core.anomaly import Anomaly, extract_candidates
from repro.core.combiners import combine_curves
from repro.core.selection import normalize_curve, select_by_std
from repro.grammar.density import rule_density_curve
from repro.sax.alphabet import index_matrix_to_words
from repro.sax.breakpoints import gaussian_breakpoints
from repro.sax.numerosity import TokenSequence, numerosity_reduction
from repro.sax.paa import CumulativeStats
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD


def member_tokens(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    *,
    znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    numerosity: str = "exact",
) -> TokenSequence:
    """One member's numerosity-reduced SAX words over the whole ``series``."""
    rows = sliding_paa_matrix(CumulativeStats(series), window, paa_size, znorm_threshold)
    symbols = interval_rows_from(rows, gaussian_breakpoints(alphabet_size))
    return numerosity_reduction(index_matrix_to_words(symbols), window, numerosity)


def member_curve(series: np.ndarray, window: int, paa_size: int, alphabet_size: int, **kwargs):
    """One batch member's rule density curve."""
    tokens = member_tokens(series, window, paa_size, alphabet_size, **kwargs)
    return rule_density_curve(induce_grammar(tokens.words), tokens, len(series))


class Ensemble(NamedTuple):
    """Algorithm 1 on oracle member curves."""

    member_curves: list[np.ndarray]
    kept: tuple[int, ...]
    curve: np.ndarray


def combine(curves: Sequence[np.ndarray], selectivity: float, combiner: str) -> Ensemble:
    """Std selection, max normalization and the combiner (production code)."""
    kept = tuple(select_by_std(curves, selectivity))
    curve = combine_curves([normalize_curve(curves[i]) for i in kept], combiner)
    return Ensemble(list(curves), kept, curve)


def batch_ensemble(detector, series: np.ndarray, parameters: Sequence[tuple[int, int]]):
    """The ensemble of ``detector``'s configuration over ``parameters``."""
    curves = [
        member_curve(
            series, detector.window, w, a,
            znorm_threshold=detector.znorm_threshold, numerosity=detector.numerosity,
        )
        for w, a in parameters
    ]
    return combine(curves, detector.selectivity, detector.combiner)


def anomalies(curve: np.ndarray, window: int, k: int, horizon_start: int = 0) -> list[Anomaly]:
    """Top-``k`` minima of ``curve``, in absolute stream positions."""
    found = extract_candidates(curve, window, k, minimize=True)
    return [replace(a, position=a.position + horizon_start) for a in found]


def stream_member_curve(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    *,
    horizon_start: int = 0,
    generation_size: int | None = None,
    **kwargs,
) -> np.ndarray:
    """A streaming member's poll after ``series`` (every point fed so far).

    The curve covers ``[horizon_start, len(series))``. ``generation_size``
    selects the decay policy's one grammar per generation.
    """
    tokens = member_tokens(series, window, paa_size, alphabet_size, **kwargs)
    offsets = np.asarray(tokens.offsets, dtype=np.int64)
    live = offsets >= horizon_start
    words = [word for word, keep in zip(tokens.words, live) if keep]
    offsets = offsets[live]
    length = len(series) - horizon_start
    curve = np.zeros(length, dtype=np.float64)
    if not words:
        return curve
    if generation_size is None:
        live_tokens = TokenSequence(tuple(words), offsets, tokens.n_windows, window)
        return rule_density_curve(
            induce_grammar(words), live_tokens, length, horizon_start=horizon_start
        )
    generations = GenerationalOracle(generation_size)
    for word, offset in zip(words, offsets.tolist()):
        generations.feed(word, offset)
    for index, grammar, _ in generations.live_grammars():
        mine = offsets // generation_size == index
        part = TokenSequence(
            tuple(w for w, keep in zip(words, mine) if keep),
            offsets[mine],
            tokens.n_windows,
            window,
        )
        curve += rule_density_curve(grammar, part, length, horizon_start=horizon_start)
    return curve


def stream_ensemble(detector, series: np.ndarray) -> Ensemble:
    """A :class:`~repro.core.streaming.StreamingEnsembleDetector` poll after
    ``series``, at the detector's current horizon."""
    curves = [
        stream_member_curve(
            series, detector.window, w, a,
            horizon_start=detector.horizon_start,
            generation_size=detector.state.generation_size,
            znorm_threshold=detector.znorm_threshold,
            numerosity=detector.numerosity,
        )
        for w, a in detector.parameters
    ]
    return combine(curves, detector.selectivity, detector.combiner)
