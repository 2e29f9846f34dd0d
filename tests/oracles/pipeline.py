"""The detector's pipeline composed from the pure-Python oracles.

A member's curve here is the paper's pipeline (Section 5) with every stage
that runs natively in ``src/`` replaced by its reference:
:func:`~oracles.sax.sliding_paa_matrix` rows, a ``np.searchsorted`` over
the member's own breakpoint table, word strings, numerosity reduction,
the word-fed :class:`~oracles.sequitur.SequiturBuilder`, and then
:func:`rule_density_curve` over the production span-to-curve pass
(:func:`~repro.grammar.density.density_curve_from_token_spans`). Selection,
normalization and the combiner are the production functions too: the
parity suites compare curves, member selection and anomalies, float bit
for float bit.

The detectors that need a grammar or words rather than a curve have their
word-path forms here too: GI-Select's grid search
(:func:`select_parameters`), RRA's candidate intervals with the per-point
gap scan (:func:`rule_intervals`), motif discovery's grammar
(:func:`grammar_and_tokens`) and HOT SAX bucketing windows by word string
(:func:`hotsax_discords`).

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

from oracles.sax import discretize, numerosity_reduction
from oracles.sequitur import GenerationalOracle, induce_grammar
from repro.core.anomaly import Anomaly, extract_candidates
from repro.core.combiners import combine_curves
from repro.core.selection import normalize_curve, select_by_std
from repro.discord.discords import Discord
from repro.discord.hotsax import _find_single_discord, _normalized_subsequences
from repro.discord.matrix_profile import default_exclusion
from repro.grammar.density import density_from_intervals
from repro.grammar.rra import RuleInterval
from repro.utils.rng import ensure_rng
from repro.grammar.density import density_curve_from_token_spans
from repro.grammar.rules import Grammar
from repro.sax.numerosity import TokenSequence
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD


def rule_density_curve(
    grammar: Grammar,
    tokens: TokenSequence,
    series_length: int,
    *,
    horizon_start: int = 0,
) -> np.ndarray:
    """Rule density curve of a series from its grammar and token sequence.

    Every occurrence of every rule except R0 (R0 spans the whole sequence
    and carries no locality information) is mapped back to the time-series
    interval recorded at numerosity reduction,
    ``[offsets[first_token], offsets[last_token] + window - 1]``. Curve
    index ``i`` covers stream point ``horizon_start + i`` (a streaming
    member's live horizon); token spans are shifted and clipped to it.
    """
    expected = grammar.expanded_lengths()[0]
    if expected != len(tokens):
        raise ValueError(
            f"grammar expands to {expected} tokens but the token sequence "
            f"has {len(tokens)}; they must come from the same discretization"
        )
    firsts, lasts = grammar.occurrence_spans()
    return density_curve_from_token_spans(
        np.asarray(tokens.offsets, dtype=np.int64),
        tokens.window,
        firsts,
        lasts,
        series_length,
        horizon_start=int(horizon_start),
    )


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
    words = discretize(series, window, paa_size, alphabet_size, znorm_threshold)
    return numerosity_reduction(words, window, numerosity)


def grammar_and_tokens(
    series: np.ndarray, window: int, paa_size: int, alphabet_size: int, **kwargs
) -> tuple[Grammar, TokenSequence]:
    """One member's word-fed grammar and the tokens it was induced from."""
    tokens = member_tokens(series, window, paa_size, alphabet_size, **kwargs)
    return induce_grammar(tokens.words), tokens


def member_curve(series: np.ndarray, window: int, paa_size: int, alphabet_size: int, **kwargs):
    """One batch member's rule density curve."""
    grammar, tokens = grammar_and_tokens(series, window, paa_size, alphabet_size, **kwargs)
    return rule_density_curve(grammar, tokens, len(series))


def select_parameters(
    sample: np.ndarray, window: int, *, max_paa_size: int = 10, max_alphabet_size: int = 10
) -> tuple[int, int]:
    """GI-Select's ``(w, a)``: one word-fed grammar per grid cell, ranked by
    (uncovered fraction, grammar size / token count), first cell on ties."""
    best = None
    for paa_size in range(2, min(max_paa_size, window) + 1):
        for alphabet_size in range(2, max_alphabet_size + 1):
            grammar, tokens = grammar_and_tokens(sample, window, paa_size, alphabet_size)
            curve = rule_density_curve(grammar, tokens, len(sample))
            cost = (float(np.mean(curve == 0.0)), grammar.grammar_size() / max(len(tokens), 1))
            if best is None or cost < best[0]:
                best = (cost, (paa_size, alphabet_size))
    return best[1]


def rule_intervals(
    grammar: Grammar, tokens: TokenSequence, series_length: int
) -> list[RuleInterval]:
    """RRA's candidates: every rule occurrence, then each maximal uncovered
    run of at least one window, found point by point."""
    occurrences = grammar.rule_occurrences()
    counts: dict[int, int] = {}
    for occurrence in occurrences:
        counts[occurrence.rule_index] = counts.get(occurrence.rule_index, 0) + 1
    intervals = []
    spans = []
    for occurrence in occurrences:
        start, end = tokens.token_span(occurrence.first_token, occurrence.last_token)
        end = min(end, series_length - 1)
        intervals.append(
            RuleInterval(start, end, occurrence.rule_index, counts[occurrence.rule_index])
        )
        spans.append((start, end))
    uncovered = density_from_intervals(spans, series_length) == 0
    position = 0
    while position < series_length:
        if uncovered[position]:
            gap_start = position
            while position < series_length and uncovered[position]:
                position += 1
            if position - gap_start >= tokens.window:
                intervals.append(RuleInterval(gap_start, position - 1, -1, 0))
        else:
            position += 1
    return intervals


def hotsax_buckets_and_order(
    series: np.ndarray, window: int, paa_size: int, alphabet_size: int, rng
) -> tuple[list[str], dict[str, list[int]], list[int]]:
    """HOT SAX's words, each word's window positions and the outer order:
    rarest words first, one ``rng.random()`` per window breaking ties."""
    words = discretize(series, window, paa_size, alphabet_size)
    buckets: dict[str, list[int]] = {}
    for position, word in enumerate(words):
        buckets.setdefault(word, []).append(position)
    order = sorted(range(len(words)), key=lambda i: (len(buckets[words[i]]), rng.random()))
    return words, buckets, order


def hotsax_discords(
    series: np.ndarray,
    window: int,
    k: int = 1,
    *,
    paa_size: int = 3,
    alphabet_size: int = 3,
    seed=0,
) -> list[Discord]:
    """HOT SAX with windows bucketed by their word strings: the buckets,
    the outer order and the generator's draws the production search gets
    from token ids, fed to the same search loop."""
    exclusion = default_exclusion(window)
    rng = ensure_rng(seed)
    words, buckets, order = hotsax_buckets_and_order(series, window, paa_size, alphabet_size, rng)
    normalized, constant = _normalized_subsequences(series, window)
    excluded = np.zeros(len(words), dtype=bool)
    discords: list[Discord] = []
    for _ in range(k):
        found = _find_single_discord(
            normalized, constant, window, exclusion, order, buckets, words, excluded, rng
        )
        if found is None:
            break
        discords.append(found)
        excluded[max(0, found.position - window + 1) : found.position + window] = True
    return discords


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
