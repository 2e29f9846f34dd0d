"""Bounded-memory streaming: eviction, grammar forgetting, and parity.

The contract under test (see ``repro/core/streaming.py``):

- the bounded state's prefix sums and window discretization are **bitwise
  identical** to the unbounded path for every window inside the horizon;
- the sliding policy's live tokens are exactly the unbounded token stream
  restricted to ``offset >= horizon_start``, and its density curve is
  bitwise equal to re-inducing over those tokens — across every executor
  backend;
- the decay policy advances the horizon monotonically in generation steps,
  bounds retention by ``capacity + generation_size - 1``, and retires whole
  generations (rules included, by refcount);
- memory-model invariants: buffer allocation stays O(capacity + chunk),
  token lists stay O(live tokens).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SharedStreamState
from repro.core.executors import as_executor
from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector
from repro.grammar.density import rule_density_curve
from repro.grammar.sequitur import GenerationalSequitur, induce_grammar
from repro.sax.numerosity import TokenSequence


@pytest.fixture
def long_series(rng) -> np.ndarray:
    series = np.sin(np.linspace(0, 160 * np.pi, 8000))
    series += 0.05 * rng.standard_normal(8000)
    series[6500:6600] = np.sin(np.linspace(0, 10 * np.pi, 100))
    return series


def _feed(detector, series, splits):
    previous = 0
    for split in list(splits) + [len(series)]:
        detector.extend(series[previous:split])
        previous = split


def _restricted_tokens(member: StreamingGrammarDetector, start: int):
    """Unbounded member's kept tokens restricted to ``offset >= start``."""
    tokens = member.tokens()
    keep = tokens.offsets >= start
    words = tuple(w for w, k in zip(tokens.words, keep) if k)
    return words, tokens.offsets[keep], tokens.n_windows


def _reference_curve(member: StreamingGrammarDetector, start: int, length: int):
    """Re-induce over the unbounded member's live-restricted tokens."""
    words, offsets, n_windows = _restricted_tokens(member, start)
    tokens = TokenSequence(words, offsets, n_windows, member.window)
    return rule_density_curve(induce_grammar(words), tokens, length, horizon_start=start)


class TestStateEviction:
    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SharedStreamState(capacity=0)
        with pytest.raises(ValueError, match="eviction policy"):
            SharedStreamState(capacity=100, policy="lru")
        with pytest.raises(ValueError, match="segments"):
            SharedStreamState(capacity=100, segments=0)

    def test_unbounded_trim_is_noop(self, rng):
        state = SharedStreamState()
        state.extend(rng.standard_normal(100))
        assert state.trim() == 0
        assert state.start == 0
        assert state.live_length == 100

    def test_sliding_trim_hits_exact_horizon(self, rng):
        state = SharedStreamState(capacity=50)
        for _ in range(4):
            state.extend(rng.standard_normal(30))
            state.trim()
            assert state.start == max(0, len(state) - 50)
            assert state.live_length == min(len(state), 50)

    def test_decay_trim_advances_in_generation_steps(self, rng):
        state = SharedStreamState(capacity=100, policy="decay", segments=4)
        assert state.generation_size == 25
        starts = []
        for _ in range(20):
            state.extend(rng.standard_normal(17))
            state.trim()
            starts.append(state.start)
            assert state.start % 25 == 0
            assert state.start <= state.horizon_start
            assert state.live_length <= 100 + 25 - 1 + 17  # capacity + step + pre-trim chunk
        assert starts == sorted(starts)
        assert starts[-1] > 0

    def test_evict_to_is_monotone_and_validated(self, rng):
        state = SharedStreamState(capacity=20)
        state.extend(rng.standard_normal(40))
        assert state.evict_to(25) == 25
        assert state.evict_to(10) == 25  # backwards is a no-op
        with pytest.raises(ValueError, match="evict"):
            state.evict_to(100)

    def test_live_prefix_sums_bitwise_equal_unbounded(self, rng):
        values = rng.standard_normal(500) * 1e3
        bounded = SharedStreamState(capacity=120, initial_capacity=8)
        unbounded = SharedStreamState()
        for start in range(0, 500, 37):
            chunk = values[start : start + 37]
            bounded.extend(chunk)
            unbounded.extend(chunk)
            bounded.trim()
        start = bounded.start
        assert np.array_equal(bounded.values, unbounded.values[start:])
        assert np.array_equal(bounded.prefix_sum, unbounded.prefix_sum[start:])
        assert np.array_equal(bounded.prefix_sq, unbounded.prefix_sq[start:])

    def test_paa_rows_bitwise_equal_for_live_windows(self, rng):
        values = np.cumsum(rng.standard_normal(900))
        bounded = SharedStreamState(capacity=300, initial_capacity=4)
        unbounded = SharedStreamState()
        for start in range(0, 900, 111):
            chunk = values[start : start + 111]
            bounded.extend(chunk)
            unbounded.extend(chunk)
            bounded.trim()
        for window, paa_size in [(50, 4), (23, 5), (300, 7)]:
            first = max(bounded.start, 0)
            expected = unbounded.paa_rows(first, window, paa_size)
            assert np.array_equal(bounded.paa_rows(first, window, paa_size), expected)

    def test_paa_rows_before_horizon_raises(self, rng):
        state = SharedStreamState(capacity=100)
        state.extend(rng.standard_normal(250))
        state.trim()
        with pytest.raises(ValueError, match="horizon"):
            state.paa_rows(0, 10, 4)

    def test_paa_rows_stop_bound_tiles_full_matrix(self, rng):
        state = SharedStreamState()
        state.extend(np.cumsum(rng.standard_normal(200)))
        full = state.paa_rows(0, 20, 5)
        blocks = [state.paa_rows(i, 20, 5, stop=i + 48) for i in range(0, 181, 48)]
        assert np.array_equal(np.vstack(blocks), full)

    def test_allocation_stays_bounded(self, rng):
        """The compacting buffer is O(capacity + chunk), not O(stream)."""
        capacity, chunk = 512, 64
        state = SharedStreamState(capacity=capacity, initial_capacity=64)
        for _ in range(400):  # 25,600 points through a 512-point horizon
            state.extend(rng.standard_normal(chunk))
            state.trim()
        assert len(state) == 400 * chunk
        assert state.live_length == capacity
        assert len(state._values) <= 4 * (capacity + chunk)

    def test_append_point_by_point_with_eviction(self, rng):
        values = rng.standard_normal(300)
        bounded = SharedStreamState(capacity=64, initial_capacity=4)
        for value in values:
            bounded.append(float(value))
            bounded.trim()
        assert bounded.live_length == 64
        assert np.array_equal(bounded.values, values[-64:])
        reference = np.concatenate(([0.0], np.cumsum(values)))
        assert np.array_equal(bounded.prefix_sum, reference[-65:])


class TestCapacityBoundaryValidation:
    def test_member_capacity_smaller_than_window_raises(self):
        with pytest.raises(ValueError, match="smaller than one window"):
            StreamingGrammarDetector(window=100, capacity=99)

    def test_ensemble_capacity_smaller_than_window_raises(self):
        with pytest.raises(ValueError, match="smaller than one window"):
            StreamingEnsembleDetector(window=100, ensemble_size=4, seed=0, capacity=50)

    def test_shared_state_capacity_smaller_than_window_raises(self):
        state = SharedStreamState(capacity=50)
        with pytest.raises(ValueError, match="smaller than one"):
            StreamingGrammarDetector(window=100, state=state)

    def test_member_capacity_with_shared_state_rejected(self):
        state = SharedStreamState(capacity=500)
        with pytest.raises(ValueError, match="inherits"):
            StreamingGrammarDetector(window=100, capacity=500, state=state)

    def test_member_policy_or_segments_with_shared_state_rejected(self):
        """A shared state governs eviction: asking the member for a policy it
        cannot honour must fail loudly, not silently fall back."""
        state = SharedStreamState(capacity=500)
        with pytest.raises(ValueError, match="inherits"):
            StreamingGrammarDetector(window=100, policy="decay", state=state)
        with pytest.raises(ValueError, match="inherits"):
            StreamingGrammarDetector(window=100, segments=8, state=state)

    def test_capacity_exactly_one_window(self, long_series):
        """The horizon edge: capacity == window leaves exactly one live window."""
        member = StreamingGrammarDetector(window=100, paa_size=4, alphabet_size=4, capacity=100)
        member.extend(long_series)
        assert member.state.live_length == 100
        assert member.horizon_start == len(long_series) - 100
        curve = member.density_curve()
        assert len(curve) == 100
        candidates = member.detect(3)
        assert len(candidates) == 1  # only one non-overlapping window fits
        assert candidates[0].position == member.horizon_start


class TestSlidingParity:
    def test_tokens_match_unbounded_restriction(self, long_series):
        unbounded = StreamingGrammarDetector(window=100, paa_size=5, alphabet_size=5)
        bounded = StreamingGrammarDetector(
            window=100, paa_size=5, alphabet_size=5, capacity=2500
        )
        _feed(unbounded, long_series, [3000, 3001, 5500])
        _feed(bounded, long_series, [1234, 4096, 7999])  # different chunking
        start = bounded.horizon_start
        assert start == len(long_series) - 2500
        words, offsets, _ = _restricted_tokens(unbounded, start)
        live = bounded.tokens()
        assert live.words == words
        assert np.array_equal(live.offsets, offsets)

    def test_curve_bitwise_equals_reference_inside_horizon(self, long_series):
        unbounded = StreamingGrammarDetector(window=100, paa_size=5, alphabet_size=5)
        bounded = StreamingGrammarDetector(
            window=100, paa_size=5, alphabet_size=5, capacity=3000
        )
        _feed(unbounded, long_series, [4000])
        _feed(bounded, long_series, [777, 2048, 6000])
        start = bounded.horizon_start
        reference = _reference_curve(unbounded, start, bounded.state.live_length)
        assert np.array_equal(bounded.density_curve(), reference)

    def test_equals_unbounded_before_any_eviction(self, long_series):
        unbounded = StreamingGrammarDetector(window=50, paa_size=4, alphabet_size=4)
        bounded = StreamingGrammarDetector(
            window=50, paa_size=4, alphabet_size=4, capacity=len(long_series)
        )
        _feed(unbounded, long_series, [2500])
        _feed(bounded, long_series, [2500])
        assert bounded.horizon_start == 0
        assert np.array_equal(bounded.density_curve(), unbounded.density_curve())

    def test_snapshot_mid_stream_then_continue(self, long_series):
        """Mid-stream snapshots must not perturb later bounded results."""
        continuous = StreamingGrammarDetector(window=100, capacity=2000)
        interrupted = StreamingGrammarDetector(window=100, capacity=2000)
        continuous.extend(long_series)
        interrupted.extend(long_series[:4000])
        interrupted.density_curve()  # snapshot mid-stream
        interrupted.detect(2)
        interrupted.extend(long_series[4000:])
        assert np.array_equal(continuous.density_curve(), interrupted.density_curve())

    def test_detect_positions_are_absolute(self, long_series):
        bounded = StreamingGrammarDetector(window=100, paa_size=5, alphabet_size=5, capacity=2000)
        bounded.extend(long_series)
        for anomaly in bounded.detect(3):
            assert anomaly.position >= bounded.horizon_start
            assert anomaly.position + anomaly.length <= len(long_series)

    def test_constant_stream_prunes_to_zero_tokens(self):
        """One run spanning the whole horizon: its token expires, density 0."""
        member = StreamingGrammarDetector(window=10, paa_size=2, alphabet_size=2, capacity=20)
        for _ in range(30):
            member.extend(np.zeros(10))
        assert member.n_tokens == 0
        assert np.array_equal(member.density_curve(), np.zeros(20))
        with pytest.raises(ValueError, match="no live tokens"):
            member.tokens()

    def test_token_lists_stay_bounded(self, rng):
        """The memory claim at the member level: the pruned token log does not grow."""
        member = StreamingGrammarDetector(window=20, paa_size=4, alphabet_size=6, capacity=200)
        for _ in range(100):
            member.extend(np.cumsum(rng.standard_normal(100)))
        assert member._log.stored <= member.n_tokens + 2 * 1024 + 1
        assert member.retired_tokens > 0


class TestDecayPolicy:
    def test_monotone_horizon_and_bounded_retention(self, rng):
        detector = StreamingGrammarDetector(
            window=50, paa_size=4, alphabet_size=4, capacity=400, policy="decay", segments=4
        )
        step = detector.state.generation_size
        assert step == 100
        starts = []
        for _ in range(60):
            detector.extend(rng.standard_normal(37))
            starts.append(detector.horizon_start)
            assert detector.state.live_length <= 400 + step - 1
            assert detector.horizon_start % step == 0
        assert starts == sorted(starts)
        assert starts[-1] > 0

    def test_generations_dropped_wholesale(self, rng):
        detector = StreamingGrammarDetector(
            window=50, paa_size=4, alphabet_size=5, capacity=300, policy="decay", segments=3
        )
        for _ in range(40):
            detector.extend(np.cumsum(rng.standard_normal(100)))
        forgetter = detector._generations
        assert forgetter.retired_generations > 0
        assert forgetter.retired_tokens == detector.retired_tokens
        # Rule utility: every retired rule was referenced at least twice.
        if forgetter.retired_rules:
            assert forgetter.retired_rule_refs >= 2 * forgetter.retired_rules
        # No live token predates the horizon, none was lost.
        live = detector.tokens()
        assert int(live.offsets[0]) >= detector.horizon_start

    def test_single_generation_matches_unbounded(self, rng):
        """Until the first seal, decay is the plain incremental grammar."""
        series = np.cumsum(rng.standard_normal(190))
        unbounded = StreamingGrammarDetector(window=20, paa_size=4, alphabet_size=4)
        decay = StreamingGrammarDetector(
            window=20, paa_size=4, alphabet_size=4, capacity=200, policy="decay", segments=1
        )
        _feed(unbounded, series, [60, 130])
        _feed(decay, series, [45])
        assert np.array_equal(decay.density_curve(), unbounded.density_curve())

    def test_chunking_invariance(self, long_series):
        a = StreamingEnsembleDetector(
            window=100, ensemble_size=5, seed=2, capacity=2000, policy="decay"
        )
        b = StreamingEnsembleDetector(
            window=100, ensemble_size=5, seed=2, capacity=2000, policy="decay"
        )
        _feed(a, long_series, [50, 1024, 1025, 4567])
        _feed(b, long_series, [7000])
        assert a.horizon_start == b.horizon_start
        assert np.array_equal(a.density_curve(), b.density_curve())


class TestGenerationalSequitur:
    def test_validation_and_ordering(self):
        with pytest.raises(ValueError, match="generation_size"):
            GenerationalSequitur(0)
        forgetter = GenerationalSequitur(10)
        forgetter.feed("ab", 15)
        with pytest.raises(ValueError, match="non-decreasing"):
            forgetter.feed("cd", 3)

    def test_seal_and_drop_accounting(self):
        forgetter = GenerationalSequitur(4)
        words = ["ab", "cd", "ab", "cd", "ab", "cd", "ef", "gh"]
        for offset, word in enumerate(words):
            forgetter.feed(word, offset)
        live = forgetter.live_grammars()
        assert [index for index, _, _ in live] == [0, 1]
        assert [count for _, _, count in live] == [4, 4]
        dropped = forgetter.drop_before(4)
        assert dropped == 1
        assert forgetter.retired_generations == 1
        assert forgetter.retired_tokens == 4
        assert forgetter.drop_before(4) == 0  # idempotent
        # The still-growing current generation is never dropped.
        assert forgetter.drop_before(100) == 0
        assert [index for index, _, _ in forgetter.live_grammars()] == [1]

    def test_rules_never_span_generations(self):
        """The decay relaxation: a repeat crossing the boundary is not a rule."""
        single = induce_grammar(["ab", "cd", "ab", "cd"])
        assert single.n_rules > 1  # the repeat compresses in one grammar
        forgetter = GenerationalSequitur(2)
        for offset, word in enumerate(["ab", "cd", "ab", "cd"]):
            forgetter.feed(word, offset)
        for _, grammar, _ in forgetter.live_grammars():
            assert grammar.n_rules == 1  # each generation saw the pair once


class TestEnsembleEvictionParity:
    def _reference_ensemble_curve(self, series, seed, capacity, window=100, size=6):
        """Algorithm 1 over the unbounded members' live-restricted tokens."""
        from repro.core.combiners import combine_curves
        from repro.core.selection import normalize_curve, select_by_std

        unbounded = StreamingEnsembleDetector(window=window, ensemble_size=size, seed=seed)
        unbounded.extend(series)
        start = max(0, len(series) - capacity)
        length = len(series) - start
        curves = [_reference_curve(member, start, length) for member in unbounded.members]
        kept = select_by_std(curves, unbounded.selectivity)
        return combine_curves([normalize_curve(curves[i]) for i in kept])

    def test_sliding_parity_across_executors(self, long_series, executor_kind):
        reference = self._reference_ensemble_curve(long_series, seed=7, capacity=2500)
        with as_executor(executor_kind, 2) as executor:
            bounded = StreamingEnsembleDetector(
                window=100, ensemble_size=6, seed=7, capacity=2500, executor=executor
            )
            _feed(bounded, long_series, [123, 4096, 4097])
            curve = bounded.density_curve()
            anomalies = bounded.detect(3)
        assert np.array_equal(curve, reference)
        for anomaly in anomalies:
            assert anomaly.position >= bounded.horizon_start

    def test_decay_parity_across_executors(self, long_series, executor_kind):
        serial = StreamingEnsembleDetector(
            window=100, ensemble_size=5, seed=9, capacity=2000, policy="decay"
        )
        serial.extend(long_series)
        reference = serial.density_curve()
        with as_executor(executor_kind, 2) as executor:
            bounded = StreamingEnsembleDetector(
                window=100, ensemble_size=5, seed=9, capacity=2000, policy="decay",
                executor=executor,
            )
            _feed(bounded, long_series, [999, 5000])
            curve = bounded.density_curve()
        assert np.array_equal(curve, reference)

    def test_members_share_the_bounded_state(self, long_series):
        detector = StreamingEnsembleDetector(
            window=100, ensemble_size=6, seed=0, capacity=1500
        )
        detector.extend(long_series)
        assert all(member.state is detector.state for member in detector.members)
        assert detector.state.live_length == 1500
        assert all(member.horizon_start == detector.horizon_start for member in detector.members)

    def test_detect_reports_absolute_positions(self, long_series):
        detector = StreamingEnsembleDetector(
            window=100, ensemble_size=8, seed=1, capacity=2500
        )
        detector.extend(long_series)
        anomalies = detector.detect(3)
        assert anomalies
        for anomaly in anomalies:
            assert detector.horizon_start <= anomaly.position
            assert anomaly.position + anomaly.length <= len(long_series)
