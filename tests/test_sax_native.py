"""The native SAX front end (``repro/sax/_sax.c``) against the numpy reference.

``sax_intervals`` must give, bit for bit, the rows of
:func:`~repro.sax.paa.sliding_paa_rows` and the intervals of
``np.searchsorted(..., side="right")`` over them: integer and fractional
segment widths, ring-buffer ``origin`` offsets, constant and near-constant
windows, ``paa_size`` up to ``window``, alphabets up to 26 and values sitting
exactly on a breakpoint. ``sax_tokens`` (through
``MultiResolutionDiscretizer.token_ids``) must keep the windows the reference
:meth:`~repro.core.multiresolution.MultiResolutionDiscretizer.tokens` keeps,
with ids whose equality pattern is the words', at any word width, so the
grammar spans are identical. The ctypes wrappers check their inputs before
any C call.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.grammar._kernel import FastSequitur
from repro.grammar.sequitur import induce_grammar
from repro.sax import _kernel
from repro.sax.breakpoints import MultiResolutionAlphabet, gaussian_breakpoints
from repro.sax.paa import sliding_paa_rows

FLAVORS = ("walk", "constant", "near_constant", "plateaus")


def make_series(seed: int, n: int, flavor: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if flavor == "constant":
        return np.full(n, float(rng.normal(scale=10.0)))
    if flavor == "near_constant":
        # Deviations around the relative constancy cutoff (1e-8 * max(1, |mean|)).
        level = float(rng.choice([0.0, 3.0, -250.0]))
        return level + rng.choice([1e-10, 1e-8, 1e-6]) * rng.standard_normal(n)
    series = np.cumsum(rng.standard_normal(n))
    if flavor == "plateaus":
        for start in range(0, n, max(4, n // 5)):
            series[start : start + max(2, n // 12)] = series[start]
    return series


def reference_block(series, start, stop, window, paa_size, threshold, origin, table):
    """Rows and intervals of the numpy reference over a buffer from ``origin``."""
    prefix = np.concatenate(([0.0], np.cumsum(series)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(series**2)))
    buffers = (prefix[origin:], prefix_sq[origin:], series[origin:])
    with np.errstate(all="ignore"):  # threshold 0.0 divides constant windows by 0
        rows = sliding_paa_rows(*buffers, start, stop, window, paa_size, threshold, origin=origin)
    return buffers, rows, np.searchsorted(table, rows, side="right")


def native_block(buffers, start, stop, window, paa_size, threshold, origin, table):
    prefix, prefix_sq, values = buffers
    stats = _kernel.window_stats(
        prefix, prefix_sq, start, stop, window, threshold, origin=origin
    )
    return _kernel.sax_intervals(
        prefix, values, start, stop, window, paa_size, stats, table, origin=origin, rows=True
    )


def assert_bitwise(native, reference):
    assert native.dtype == reference.dtype and native.shape == reference.shape
    assert np.array_equal(native.view(np.int64), reference.view(np.int64))


@st.composite
def blocks(draw):
    n = draw(st.integers(2, 160))
    window = draw(st.integers(1, n))
    if draw(st.booleans()):  # integer stride: window % paa_size == 0
        paa_size = draw(st.sampled_from([d for d in range(1, window + 1) if window % d == 0]))
    else:
        paa_size = draw(st.integers(1, window))
    last = n - window  # last window start
    origin = draw(st.integers(0, last))
    start = draw(st.integers(origin, last))
    stop = draw(st.integers(start, last + 1))
    return dict(
        series=make_series(draw(st.integers(0, 2**32 - 1)), n, draw(st.sampled_from(FLAVORS))),
        window=window,
        paa_size=paa_size,
        origin=origin,
        start=start,
        stop=stop,
        threshold=draw(st.sampled_from([0.0, 1e-8, 1e-4])),
        alphabet=draw(st.integers(2, 26)),
        merged=draw(st.booleans()),
    )


class TestSaxIntervals:
    @given(blocks())
    def test_rows_and_intervals_match_the_reference_bitwise(self, block):
        a = block["alphabet"]
        table = (
            MultiResolutionAlphabet(a).merged_breakpoints
            if block["merged"]
            else gaussian_breakpoints(a)
        )
        args = (
            block["start"], block["stop"], block["window"], block["paa_size"],
            block["threshold"], block["origin"], table,
        )
        buffers, rows, intervals = reference_block(block["series"], *args)
        native_rows, native_intervals = native_block(buffers, *args)
        assert_bitwise(native_rows, rows)
        assert native_intervals.dtype == intervals.dtype
        assert np.array_equal(native_intervals, intervals)

    @pytest.mark.parametrize("window, paa_size", [(30, 30), (30, 7), (30, 10), (29, 29), (1, 1)])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_full_width_and_largest_alphabet(self, window, paa_size, flavor):
        series = make_series(window + paa_size, 120, flavor)
        table = MultiResolutionAlphabet(26).merged_breakpoints
        args = (5, 120 - window + 1, window, paa_size, 1e-8, 5, table)
        buffers, rows, intervals = reference_block(series, *args)
        native_rows, native_intervals = native_block(buffers, *args)
        assert_bitwise(native_rows, rows)
        assert np.array_equal(native_intervals, intervals)

    def test_outputs_are_optional(self):
        series = make_series(3, 50, "walk")
        table = gaussian_breakpoints(5)
        buffers, rows, intervals = reference_block(series, 0, 41, 10, 3, 1e-8, 0, table)
        prefix, prefix_sq, values = buffers
        stats = _kernel.window_stats(prefix, prefix_sq, 0, 41, 10)
        only_rows = _kernel.sax_intervals(prefix, values, 0, 41, 10, 3, stats, rows=True)
        only_intervals = _kernel.sax_intervals(prefix, values, 0, 41, 10, 3, stats, table)
        assert only_rows[1] is None and only_intervals[0] is None
        assert_bitwise(only_rows[0], rows)
        assert np.array_equal(only_intervals[1], intervals)
        empty = _kernel.sax_intervals(prefix, values, 7, 7, 10, 3, _kernel.window_stats(
            prefix, prefix_sq, 7, 7, 10), table, rows=True)
        assert empty[0].shape == empty[1].shape == (0, 3)

    @pytest.mark.parametrize("alphabet_size", [2, 3, 4, 5, 8, 10, 16, 20, 26])
    def test_breakpoint_tie_golden_vectors(self, alphabet_size):
        """A coefficient exactly on a breakpoint lands in the interval above.

        With ``window == paa_size == 1``, zero means and unit stds, the row of
        a window starting at ``2i`` is ``prefix[2i + 1] - prefix[2i]``, so a
        prefix array alternating ``0, probe`` feeds each probe through the
        native pass unchanged.
        """
        table = gaussian_breakpoints(alphabet_size)
        probes = np.concatenate([
            table,
            np.nextafter(table, -np.inf),
            np.nextafter(table, np.inf),
            [-np.inf, -10.0, 0.0, -0.0, 10.0, np.inf, np.nan],
        ])
        prefix = np.zeros(2 * len(probes) + 1)
        prefix[1::2] = probes
        count = 2 * len(probes)
        stats = (np.zeros(count), np.ones(count), np.zeros(count, dtype=bool))
        rows, intervals = _kernel.sax_intervals(
            prefix, np.zeros(count), 0, count, 1, 1, stats, table, rows=True
        )
        # Equal as values (the pass adds a zero, so -0.0 comes back as 0.0).
        np.testing.assert_array_equal(rows[::2, 0], probes)
        expected = np.searchsorted(table, probes, side="right")
        assert np.array_equal(intervals[::2, 0], expected)
        assert np.array_equal(
            intervals[: 2 * (alphabet_size - 1) : 2, 0], np.arange(1, alphabet_size)
        )
        assert intervals[-2, 0] == alphabet_size - 1  # NaN sorts past every break


def reference_ids(discretizer, w, a):
    """The python oracle's words and token ids for the same member."""
    with _kernel.use_kernel("python"):
        oracle = MultiResolutionDiscretizer(
            discretizer.series, discretizer.window, discretizer.max_paa_size,
            discretizer.max_alphabet_size,
        )
    tokens, ids = oracle.tokens(w, a), oracle.token_ids(w, a)
    assert np.array_equal(ids.offsets, tokens.offsets)
    return tokens, ids.ids


def same_pattern(ids, words) -> bool:
    """``ids[i] == ids[j]`` exactly when ``words[i] == words[j]``."""
    pairs = set(zip(ids.tolist(), words))
    return len(ids) == len(words) and len(pairs) == len(set(ids.tolist())) == len(set(words))


def spans(ids):
    builder = FastSequitur()
    builder.feed_many(ids)
    return builder.occurrence_spans()


class TestSaxTokens:
    @given(
        seed=st.integers(0, 2**32 - 1),
        flavor=st.sampled_from(FLAVORS),
        window=st.integers(8, 40),
        w=st.integers(2, 20),
        a=st.integers(2, 26),
    )
    def test_token_ids_match_the_reference_tokens(self, seed, flavor, window, w, a):
        w = min(w, window)
        series = make_series(seed, 200, flavor)
        with _kernel.use_kernel("fast"):
            fast = MultiResolutionDiscretizer(series, window, w, 26)
            ids = fast.token_ids(w, a)
        tokens, expected = reference_ids(fast, w, a)
        assert np.array_equal(ids.offsets, tokens.offsets)
        assert (ids.n_windows, ids.window) == (tokens.n_windows, tokens.window)
        # First-occurrence numbering of the same equality pattern is the
        # same sequence, so the ids equal the oracle's ids outright, and the
        # native grammar over them has the word grammar's spans.
        assert same_pattern(ids.ids, tokens.words)
        assert ids.ids.dtype == np.int64 and np.array_equal(ids.ids, expected)
        with _kernel.use_kernel("python"):
            reference_spans = induce_grammar(list(tokens.words)).occurrence_spans()
        assert all(np.array_equal(x, y) for x, y in zip(spans(ids.ids), reference_spans))

    @pytest.mark.parametrize("w", [12, 13, 16, 20])
    def test_wide_words_are_not_a_special_case(self, w):
        """Widths above 12 (too wide for one packed int64 code) hash like any other."""
        series = np.tile(np.sin(np.linspace(0, 2 * np.pi, 40)), 15)
        series += 0.05 * np.random.default_rng(w).standard_normal(len(series))
        with _kernel.use_kernel("fast"):
            fast = MultiResolutionDiscretizer(series, 40, 20, 6)
            ids = fast.token_ids(w, 6)
        tokens, expected = reference_ids(fast, w, 6)
        assert len(set(ids.ids.tolist())) < len(ids)  # some word repeats
        assert np.array_equal(ids.offsets, tokens.offsets)
        assert same_pattern(ids.ids, tokens.words)
        assert np.array_equal(ids.ids, expected)

    def test_ids_are_dense_first_occurrence(self):
        intervals = np.asarray([[3, 1], [3, 1], [0, 2], [3, 1], [2, 2], [0, 2]], dtype=np.intp)
        symbols = np.asarray([0, 0, 1, 1], dtype=np.int64)  # intervals 0,1 -> a; 2,3 -> b
        offsets, ids = _kernel.sax_tokens(intervals, symbols)
        # Symbol rows: ba ba ab ba bb ab -> runs kept at 0, 2, 3, 4, 5.
        assert offsets.tolist() == [0, 2, 3, 4, 5]
        assert ids.tolist() == [0, 1, 0, 2, 1]
        empty = _kernel.sax_tokens(np.empty((0, 2), dtype=np.intp), symbols)
        assert [len(part) for part in empty] == [0, 0]


class _NoCalls:
    """Stands in for the loaded library: any C call fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was called")


class TestNativeGuards:
    @pytest.fixture
    def good(self):
        series = make_series(0, 60, "walk")
        prefix = np.concatenate(([0.0], np.cumsum(series)))
        prefix_sq = np.concatenate(([0.0], np.cumsum(series**2)))
        stats = _kernel.window_stats(prefix, prefix_sq, 0, 51, 10)
        return dict(prefix=prefix, values=series, stats=stats, table=gaussian_breakpoints(4))

    def call(self, good, **changes):
        args = {**good, **changes}
        return _kernel.sax_intervals(
            args["prefix"], args["values"], args.get("start", 0), args.get("stop", 51),
            args.get("window", 10), args.get("paa_size", 5), args["stats"], args["table"],
            origin=args.get("origin", 0),
        )

    @pytest.mark.parametrize(
        "changes, error",
        [
            (lambda g: {"prefix": g["prefix"].astype(np.float32)}, TypeError),
            (lambda g: {"values": g["values"].tolist()}, TypeError),
            (lambda g: {"table": g["table"].astype(np.int64)}, TypeError),
            (lambda g: {"stats": (g["stats"][0], g["stats"][1], g["stats"][2].astype(np.uint8))},
             TypeError),
            (lambda g: {"prefix": g["prefix"][::2]}, ValueError),
            (lambda g: {"table": g["table"][None, :]}, ValueError),
            (lambda g: {"stats": g["stats"][:2]}, ValueError),
            (lambda g: {"stats": tuple(part[:-1] for part in g["stats"])}, ValueError),
            (lambda g: {"prefix": g["prefix"][:-1]}, ValueError),
            (lambda g: {"values": g["values"][:-2]}, ValueError),
            (lambda g: {"origin": 1}, ValueError),
            (lambda g: {"start": 3, "stop": 2}, ValueError),
            (lambda g: {"paa_size": 11}, ValueError),
            (lambda g: {"paa_size": 0}, ValueError),
        ],
    )
    def test_bad_interval_inputs_raise_before_any_c_call(self, good, monkeypatch, changes, error):
        self.call(good)  # the unchanged call is fine
        monkeypatch.setattr(_kernel, "_lib", _NoCalls())
        with pytest.raises(error):
            self.call(good, **changes(good))

    @pytest.mark.parametrize(
        "intervals, symbols, error",
        [
            (np.zeros((4, 3), dtype=np.int32), np.arange(5), TypeError),
            (np.zeros((4, 3), dtype=np.intp), np.arange(5, dtype=np.int32), TypeError),
            (np.zeros(4, dtype=np.intp), np.arange(5), ValueError),
            (np.zeros((4, 3), dtype=np.intp)[:, ::2], np.arange(5), ValueError),
            (np.zeros((4, 0), dtype=np.intp), np.arange(5), ValueError),
            (np.zeros((4, 3), dtype=np.intp), np.arange(0), ValueError),
        ],
    )
    def test_bad_token_inputs_raise_before_any_c_call(
        self, monkeypatch, intervals, symbols, error
    ):
        monkeypatch.setattr(_kernel, "_lib", _NoCalls())
        with pytest.raises(error):
            _kernel.sax_tokens(intervals, symbols)

    @pytest.mark.parametrize(
        "intervals, symbols",
        [
            ([[0, 1], [5, 0]], [0, 1, 2, 3, 4]),  # interval past the table
            ([[0, 1], [-1, 0]], [0, 1, 2, 3, 4]),  # negative interval
            ([[0, 1], [1, 0]], [0, 1, 300]),  # symbol does not fit a byte
        ],
    )
    def test_indices_outside_the_tables_are_refused_in_c(self, intervals, symbols):
        with pytest.raises(IndexError):
            _kernel.sax_tokens(
                np.asarray(intervals, dtype=np.intp), np.asarray(symbols, dtype=np.int64)
            )

    def test_native_state_never_crosses_a_pickle(self):
        """The library and its entry points refuse pickling, so a worker
        process loads its own copy; what the passes return is plain numpy
        and ships to workers and back unchanged."""
        with pytest.raises((AttributeError, TypeError, ValueError, pickle.PicklingError)):
            pickle.dumps(_kernel._lib)
        with pytest.raises((TypeError, ValueError, pickle.PicklingError)):
            pickle.dumps(_kernel._lib.sax_tokens)
        series = make_series(1, 300, "walk")
        ids = MultiResolutionDiscretizer(series, 30, 6, 6).token_ids(6, 6)
        restored = pickle.loads(pickle.dumps(ids))
        assert np.array_equal(restored.ids, ids.ids)
        assert np.array_equal(restored.offsets, ids.offsets)
