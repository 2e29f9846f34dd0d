"""SAX property battery: the shared discretization plan versus the scalar path.

The contract pinned here is *bitwise* equality: the
:class:`~repro.sax.plan.DiscretizationPlan` sweep must reproduce, bit for
bit, what the per-member scalar pipeline (``fast_paa`` per window start,
``symbol_indices`` per coefficient, ``sax_word`` per subsequence) produces —
including the awkward corners: zero-variance windows, fully constant series,
``window == len(series)``, fractional PAA segment boundaries, and streaming
ring buffers whose arrays start at a nonzero global ``origin``.

The numpy reference of ``tests/oracles/sax.py`` (sliding PAA rows, then
``np.searchsorted``) is the oracle; the native sweep must match it exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.interner import MAX_PACKED_WIDTH, pack_symbol_rows
from oracles.interner import WordInterner as OracleInterner
from oracles.sax import interval_rows_from, kept_window_mask, sliding_paa_rows
from repro.core.engine import SharedStreamState
from repro.sax.alphabet import WordInterner, index_matrix_to_words
from repro.sax.breakpoints import gaussian_breakpoints, symbol_indices
from repro.sax.numerosity import numerosity_reduction
from repro.sax.paa import CumulativeStats
from repro.sax.plan import DiscretizationPlan
from repro.sax.sax import discretize, sax_word

def make_series(seed: int, n: int, flavor: str = "mixed") -> np.ndarray:
    rng = np.random.default_rng(seed)
    if flavor == "constant":
        return np.full(n, float(rng.normal()))
    series = np.sin(np.linspace(0.0, 8.0 * np.pi, n)) + 0.3 * rng.standard_normal(n)
    if flavor == "mixed":
        # Plant exactly-constant stretches so some windows are zero-variance.
        flat = n // 4
        series[flat : flat + max(3, n // 8)] = series[flat]
    return series


def scalar_symbol_matrix(
    series: np.ndarray, window: int, paa_size: int, alphabet_size: int, threshold: float
) -> np.ndarray:
    """The per-window scalar oracle: fast_paa + symbol_indices, one row each."""
    stats = CumulativeStats(series)
    rows = [
        symbol_indices(stats.fast_paa(start, window, paa_size, threshold), alphabet_size)
        for start in range(len(series) - window + 1)
    ]
    return np.asarray(rows, dtype=np.int64)


# ----------------------------------------------------------------------
# Plan sweep vs the scalar per-window path.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_sweep_matches_scalar_path_random_configs(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(6):
        n = int(rng.integers(30, 160))
        window = int(rng.integers(4, min(40, n) + 1))
        series = make_series(int(rng.integers(1 << 30)), n)
        configs = [
            (int(rng.integers(2, window // 2 + 2)), int(rng.integers(2, 11)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        configs = [(min(w, window), a) for w, a in configs]
        threshold = float(rng.choice([1e-8, 1e-4, 0.05]))
        plan = DiscretizationPlan(window, configs, znorm_threshold=threshold)
        sweep = plan.sweep_series(CumulativeStats(series))
        for w, a in configs:
            expected = scalar_symbol_matrix(series, window, w, a, threshold)
            assert np.array_equal(sweep.symbol_rows(w, a), expected)


def test_sweep_paa_rows_match_reference_rows():
    series = make_series(7, 120)
    stats = CumulativeStats(series)
    window, threshold = 24, 1e-8
    plan = DiscretizationPlan(window, [(5, 4), (7, 6), (24, 3)], znorm_threshold=threshold)
    sweep = plan.sweep_series(stats)
    for w in (5, 7, 24):
        reference = sliding_paa_rows(
            stats.prefix_sum, stats.prefix_sq, series,
            0, len(series) - window + 1, window, w, threshold,
        )
        assert np.array_equal(sweep.paa_rows(w), reference)


def test_constant_series_matches_reference_bitwise():
    # A constant series is the nastiest z-norm corner: prefix-sum
    # cancellation can leave stds a hair above the relative constancy
    # cutoff, so some rows are "zero / tiny" rather than exactly zero.
    # The contract is not "all zeros" — it is bitwise agreement with the
    # reference row computation, tiny residuals included.
    series = make_series(3, 64, flavor="constant")
    stats = CumulativeStats(series)
    plan = DiscretizationPlan(20, [(4, 5), (3, 2)])
    sweep = plan.sweep_series(stats)
    for w, a in ((4, 5), (3, 2)):
        reference = sliding_paa_rows(
            stats.prefix_sum, stats.prefix_sq, series, 0, 45, 20, w, 1e-8
        )
        assert np.array_equal(sweep.paa_rows(w), reference)
        expected = scalar_symbol_matrix(series, 20, w, a, 1e-8)
        assert np.array_equal(sweep.symbol_rows(w, a), expected)
    # An exactly-zero-valued constant series does hit the constant branch.
    zeros = np.zeros(64)
    sweep = plan.sweep_series(CumulativeStats(zeros))
    assert np.all(sweep.paa_rows(4) == 0.0)


def test_zero_variance_windows_inside_noisy_series():
    series = make_series(11, 90, flavor="mixed")
    window = 8  # small enough to fit inside the planted flat stretch
    plan = DiscretizationPlan(window, [(4, 4), (5, 7)])
    sweep = plan.sweep_series(CumulativeStats(series))
    for w, a in ((4, 4), (5, 7)):
        expected = scalar_symbol_matrix(series, window, w, a, 1e-8)
        assert np.array_equal(sweep.symbol_rows(w, a), expected)
    # Sanity: the flat stretch actually produced zero-variance windows.
    stats = CumulativeStats(series)
    stds = stats.sliding_means_stds(window)[1]
    assert np.any(stds == 0.0)


def test_window_equals_series_length():
    series = make_series(5, 37)
    window = len(series)
    plan = DiscretizationPlan(window, [(6, 5)])
    sweep = plan.sweep_series(CumulativeStats(series))
    assert len(sweep) == 1
    assert np.array_equal(
        sweep.symbol_rows(6, 5), scalar_symbol_matrix(series, window, 6, 5, 1e-8)
    )


def test_fractional_paa_boundaries():
    # window % paa_size != 0 exercises the fractional-prefix path (the
    # native pass's non-integer-stride branch).
    series = make_series(13, 101)
    window = 23
    configs = [(4, 3), (5, 6), (7, 9), (22, 4)]
    plan = DiscretizationPlan(window, configs)
    sweep = plan.sweep_series(CumulativeStats(series))
    for w, a in configs:
        assert window % w != 0 or w == window
        expected = scalar_symbol_matrix(series, window, w, a, 1e-8)
        assert np.array_equal(sweep.symbol_rows(w, a), expected)


def test_sweep_words_match_sax_word_oracle():
    series = make_series(17, 80)
    window, w, a = 16, 5, 6
    plan = DiscretizationPlan(window, [(w, a)])
    sweep = plan.sweep_series(CumulativeStats(series))
    words = index_matrix_to_words(sweep.symbol_rows(w, a))
    expected = [
        sax_word(series[p : p + window], w, a) for p in range(len(series) - window + 1)
    ]
    assert words == expected
    assert words == discretize(series, window, w, a)


# ----------------------------------------------------------------------
# Ring-buffer origin offsets (streaming eviction).
# ----------------------------------------------------------------------


def test_sweep_with_ring_buffer_origin_matches_unbounded():
    series = make_series(29, 400)
    window = 30
    configs = [(6, 5), (10, 8)]
    plan = DiscretizationPlan(window, configs, max_alphabet_size=8)
    bounded = SharedStreamState(capacity=120)
    for offset in range(0, len(series), 70):
        bounded.extend(series[offset : offset + 70])
        bounded.trim()
    assert bounded.start > 0  # eviction actually moved the horizon
    first = max(bounded.start, bounded.n_windows(window) - 50)
    stop = bounded.n_windows(window)
    stats = CumulativeStats(series)
    sweep = bounded.sweep(plan, first, stop=stop)
    unbounded = plan.sweep(
        stats.prefix_sum, stats.prefix_sq, stats.series, first, stop
    )
    for w, a in configs:
        assert np.array_equal(sweep.paa_rows(w), unbounded.paa_rows(w))
        assert np.array_equal(
            sweep.symbol_rows(w, a), unbounded.symbol_rows(w, a)
        )
        expected = scalar_symbol_matrix(series, window, w, a, 1e-8)[first:stop]
        assert np.array_equal(sweep.symbol_rows(w, a), expected)


# ----------------------------------------------------------------------
# Native sweep against the numpy reference rows and intervals.
# ----------------------------------------------------------------------


def test_native_sweep_bitwise_equal_to_the_numpy_reference():
    rng = np.random.default_rng(31)
    for trial in range(8):
        n = int(rng.integers(40, 200))
        window = int(rng.integers(4, min(48, n) + 1))
        series = make_series(int(rng.integers(1 << 30)), n,
                             flavor="mixed" if trial % 3 else "constant")
        configs = [
            (int(rng.integers(2, window + 1)), int(rng.integers(2, 11)))
            for _ in range(3)
        ]
        plan = DiscretizationPlan(window, configs)
        stats = CumulativeStats(series)
        table = plan.alphabet_table
        sweep = plan.sweep_series(stats)
        for w, a in configs:
            rows = sliding_paa_rows(
                stats.prefix_sum, stats.prefix_sq, series, 0, n - window + 1, window, w
            )
            intervals = interval_rows_from(rows, table.merged_breakpoints)
            assert np.array_equal(sweep.paa_rows(w), rows)
            assert np.array_equal(sweep.interval_rows(w), intervals)
            assert np.array_equal(sweep.symbol_rows(w, a), table.symbols_for(intervals, a))


# ----------------------------------------------------------------------
# Numerosity reduction and interning on sweep output.
# ----------------------------------------------------------------------


def test_packed_runs_equal_row_mask_and_word_reduction():
    series = make_series(37, 150, flavor="mixed")
    window, w, a = 12, 4, 4
    plan = DiscretizationPlan(window, [(w, a)])
    symbols = plan.sweep_series(CumulativeStats(series)).symbol_rows(w, a)
    # The fused native pass keeps exactly kept_window_mask's rows.
    fused = WordInterner().intern_packed(symbols)
    keep = np.zeros(len(symbols), dtype=bool)
    keep[fused[:, 0]] = True
    assert np.array_equal(keep, kept_window_mask(symbols))
    # The fused path and the plain row path intern identically, and both
    # give the oracle interner's ids, value for value.
    kept = np.flatnonzero(keep)
    matrix_ids = WordInterner().intern_matrix(symbols[kept])
    assert np.array_equal(fused[:, 1], matrix_ids)
    assert np.array_equal(matrix_ids, OracleInterner().intern_matrix(symbols[kept]))
    # And both agree with the classic string-level numerosity reduction.
    reduced = numerosity_reduction(index_matrix_to_words(symbols), window, "exact")
    assert np.array_equal(np.asarray(reduced.offsets), kept)


def test_pack_symbol_rows_width_gate():
    """The oracle's packed codes stop at 12 symbols; the native table has
    no width gate, so rows on both sides of that line intern alike."""
    wide = np.zeros((3, MAX_PACKED_WIDTH + 1), dtype=np.int64)
    assert pack_symbol_rows(wide) is None
    narrow = np.zeros((3, MAX_PACKED_WIDTH), dtype=np.int64)
    assert pack_symbol_rows(narrow) is not None
    for width in (MAX_PACKED_WIDTH, MAX_PACKED_WIDTH + 1, 40):
        rows = np.zeros((3, width), dtype=np.int64)
        rows[1, -1] = 1  # differs from its neighbours in the last symbol only
        fused = WordInterner().intern_packed(rows)
        assert fused.tolist() == [[0, 0], [1, 1], [2, 0]]
        assert np.array_equal(fused[:, 1], OracleInterner().intern_matrix(rows))


def test_znorm_threshold_sweep():
    # Thresholds from strict to sloppy flip different windows into the
    # constant branch; each must match the scalar oracle bitwise.
    series = make_series(41, 100, flavor="mixed")
    window, w, a = 10, 5, 6
    for threshold in (0.0, 1e-8, 1e-3, 0.5):
        plan = DiscretizationPlan(window, [(w, a)], znorm_threshold=threshold)
        sweep = plan.sweep_series(CumulativeStats(series))
        got = sweep.symbol_rows(w, a)
        assert np.array_equal(
            got, scalar_symbol_matrix(series, window, w, a, threshold)
        )


# ----------------------------------------------------------------------
# Breakpoint tie-breaking: searchsorted side semantics at exact breakpoints.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("alphabet_size", [2, 3, 4, 5, 8, 10, 16, 20])
def test_exact_breakpoint_values_golden_vectors(alphabet_size):
    """A coefficient exactly *on* a breakpoint belongs to the interval above.

    SAX uses half-open intervals [beta_{i-1}, beta_i); `side="right"` makes
    searchsorted return i for value == beta_{i-1}. The interval search
    must agree with the scalar `symbol_indices` on values placed exactly on the table, a hair
    below, and a hair above.
    """
    table = gaussian_breakpoints(alphabet_size)
    probes = np.concatenate([
        table,                       # exactly on every breakpoint
        np.nextafter(table, -np.inf),  # one ulp below
        np.nextafter(table, np.inf),   # one ulp above
        [-np.inf if alphabet_size == 2 else -10.0, 0.0, -0.0, 10.0],
    ])
    expected = symbol_indices(probes, alphabet_size)
    # Exact-on-breakpoint golden assertions, independent of symbol_indices.
    assert np.array_equal(
        expected[: len(table)], np.arange(1, alphabet_size, dtype=np.int64)
    )
    got = interval_rows_from(probes[None, :], table)[0]
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("alphabet_size", [2, 3, 5, 8, 10])
def test_merged_table_ties_agree_with_scalar(alphabet_size):
    """The merged multi-resolution route resolves ties like the scalar one.

    ``interval_indices`` + ``symbols_for`` over the merged table must place a
    value sitting exactly on a sub-alphabet breakpoint in the same symbol as
    the direct ``symbol_indices`` search against that alphabet's own table —
    the property that makes the single-member plan bitwise equal to the
    historical per-member searchsorted.
    """
    from repro.sax.breakpoints import MultiResolutionAlphabet

    table = MultiResolutionAlphabet(10)
    probes = np.concatenate([
        gaussian_breakpoints(alphabet_size),
        np.nextafter(gaussian_breakpoints(alphabet_size), -np.inf),
        np.nextafter(gaussian_breakpoints(alphabet_size), np.inf),
        table.merged_breakpoints,
    ])
    merged_route = table.symbols_for(table.interval_indices(probes), alphabet_size)
    assert np.array_equal(merged_route, symbol_indices(probes, alphabet_size))


def test_signed_zero_breakpoint_tie():
    # Even alphabets have 0.0 in the table; -0.0 == 0.0 must land in the
    # same (upper) interval regardless of the sign bit.
    table = gaussian_breakpoints(4)
    assert 0.0 in table
    probes = np.array([[0.0, -0.0]])
    got = interval_rows_from(probes, table)
    assert got[0, 0] == got[0, 1] == 2
