"""Unit tests for repro.core.selection and repro.core.combiners."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import pipeline
from oracles.sequitur import induce_grammar
from repro.core import EnsembleGrammarDetector
from repro.core.combiners import COMBINERS, combine_curves
from repro.core.executors import ProcessExecutor
from repro.core.selection import curve_std, normalize_curve, select_by_std
from repro.datasets.planting import make_corpus
from repro.datasets.ucr_like import DATASETS
from repro.grammar.density import density_from_intervals

non_negative = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestSelectByStd:
    def test_keeps_highest_std_curves(self):
        flat = np.ones(10)
        spiky = np.zeros(10)
        spiky[5] = 10.0
        medium = np.arange(10.0)
        kept = select_by_std([flat, spiky, medium], selectivity=0.5)
        assert kept[0] == 1  # spiky has the highest std
        assert len(kept) == 2
        assert 0 not in kept  # the flat curve is dropped

    def test_keeps_at_least_one(self):
        kept = select_by_std([np.ones(5), np.ones(5)], selectivity=0.01)
        assert len(kept) == 1

    def test_selectivity_one_keeps_all(self):
        curves = [np.arange(5.0), np.ones(5), np.zeros(5)]
        kept = select_by_std(curves, selectivity=1.0)
        assert sorted(kept) == [0, 1, 2]

    def test_paper_default_forty_percent(self):
        """tau = 40% of N = 50 members keeps 20 (Algorithm 1 defaults)."""
        curves = [np.full(4, float(i)) + (np.arange(4.0) * i) for i in range(50)]
        kept = select_by_std(curves, selectivity=0.4)
        assert len(kept) == 20

    def test_ties_broken_by_index(self):
        same = np.arange(6.0)
        kept = select_by_std([same.copy(), same.copy(), same.copy()], selectivity=0.5)
        assert kept == [0, 1]

    def test_rounding_of_keep_count(self):
        curves = [np.arange(4.0) * (i + 1) for i in range(3)]
        # 0.5 * 3 = 1.5 -> ceil keeps 2 ("top tau fraction" keeps every
        # member inside the fraction).
        assert len(select_by_std(curves, selectivity=0.5)) == 2

    def test_keep_count_monotonic_in_selectivity(self):
        """Regression: int(round(...)) banker's rounding made the kept count
        non-monotonic (5 curves: tau=0.5 kept 2, tau=0.5001 kept 3)."""
        curves = [np.arange(6.0) * (i + 1) for i in range(5)]
        counts = [
            len(select_by_std(curves, tau))
            for tau in np.linspace(0.01, 1.0, 200)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 5
        # The ISSUE's concrete pair: both now keep ceil(2.5...) = 3.
        assert len(select_by_std(curves, 0.5)) == 3
        assert len(select_by_std(curves, 0.5001)) == 3

    def test_float_noise_does_not_inflate_keep_count(self):
        """0.4 * 50 is 20.000000000000004 in binary floats; the paper's
        default tau=0.4, N=50 must keep exactly 20 members."""
        curves = [np.full(4, float(i)) + (np.arange(4.0) * i) for i in range(50)]
        assert len(select_by_std(curves, selectivity=0.4)) == 20

    def test_invalid_selectivity(self):
        with pytest.raises(ValueError, match="selectivity"):
            select_by_std([np.ones(3)], selectivity=0.0)
        with pytest.raises(ValueError, match="selectivity"):
            select_by_std([np.ones(3)], selectivity=1.5)

    def test_empty_curves_rejected(self):
        with pytest.raises(ValueError, match="no curves"):
            select_by_std([], selectivity=0.5)

    def test_precomputed_stds_select_the_same_members(self):
        rng = np.random.default_rng(3)
        curves = [np.repeat(rng.integers(0, 6, 30), 4).astype(float) for _ in range(50)]
        curves += [curve.copy() for curve in curves[:5]]  # std ties
        stds = tuple(curve_std(curve) for curve in curves)
        for selectivity in (0.05, 0.4, 1.0):
            assert select_by_std(curves, selectivity, stds=stds) == select_by_std(
                curves, selectivity
            )

    def test_precomputed_stds_must_match_curves(self):
        with pytest.raises(ValueError, match="2 stds for 3 curves"):
            select_by_std([np.ones(3)] * 3, 0.5, stds=(0.0, 0.0))

    @given(
        st.lists(arrays(np.float64, 16, elements=non_negative), min_size=1, max_size=12),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_kept_stds_dominate_dropped(self, curves, selectivity):
        kept = select_by_std(curves, selectivity)
        dropped = [i for i in range(len(curves)) if i not in kept]
        if dropped:
            min_kept = min(curve_std(curves[i]) for i in kept)
            max_dropped = max(curve_std(curves[i]) for i in dropped)
            assert min_kept >= max_dropped - 1e-12


class TestNormalizeCurve:
    def test_scales_to_unit_max(self):
        out = normalize_curve(np.array([0.0, 2.0, 4.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_zeros_stay_exactly_zero(self):
        """Section 6.1.2: zero density must remain significant."""
        out = normalize_curve(np.array([0.0, 5.0, 0.0, 10.0]))
        assert out[0] == 0.0
        assert out[2] == 0.0

    def test_not_minmax(self):
        """A curve with minimum 2 keeps a positive floor (no min subtraction)."""
        out = normalize_curve(np.array([2.0, 4.0]))
        assert out.tolist() == [0.5, 1.0]

    def test_all_zero_curve(self):
        out = normalize_curve(np.zeros(5))
        assert np.allclose(out, 0.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_curve(np.array([-1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_curve(np.array([]))

    @given(arrays(np.float64, st.integers(1, 64), elements=non_negative))
    def test_range_property(self, curve):
        out = normalize_curve(curve)
        assert out.min() >= 0.0
        assert out.max() <= 1.0 + 1e-12
        # Exact zeros stay exactly zero (the Section 6.1.2 guarantee). The
        # converse can fail only for denormal inputs underflowing to zero.
        assert np.all(out[curve == 0.0] == 0.0)


class TestCombineCurves:
    def test_median_of_three(self):
        curves = [np.array([0.0, 1.0]), np.array([1.0, 3.0]), np.array([2.0, 2.0])]
        assert combine_curves(curves, "median").tolist() == [1.0, 2.0]

    def test_mean(self):
        curves = [np.array([0.0, 2.0]), np.array([2.0, 4.0])]
        assert combine_curves(curves, "mean").tolist() == [1.0, 3.0]

    def test_min_max(self):
        curves = [np.array([0.0, 5.0]), np.array([3.0, 1.0])]
        assert combine_curves(curves, "min").tolist() == [0.0, 1.0]
        assert combine_curves(curves, "max").tolist() == [3.0, 5.0]

    def test_single_curve_identity(self):
        curve = np.array([1.0, 2.0, 3.0])
        for method in COMBINERS:
            assert np.allclose(combine_curves([curve], method), curve)

    def test_median_robust_to_outlier_member(self):
        """The design rationale of Section 6.1.3."""
        good = [np.array([1.0, 0.0, 1.0]) for _ in range(4)]
        outlier = np.array([0.0, 1.0, 0.0])
        combined = combine_curves(good + [outlier], "median")
        assert combined.tolist() == [1.0, 0.0, 1.0]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            combine_curves([np.ones(3)], "average")

    def test_unequal_lengths_rejected_with_member_named(self):
        """Regression: ragged member curves used to fall into numpy
        object-array behavior and fail with an opaque error; now the
        offending member is named up front."""
        curves = [np.ones(5), np.ones(5), np.ones(7)]
        with pytest.raises(ValueError, match="member curve 2 has length 7"):
            combine_curves(curves)

    def test_non_1d_member_rejected(self):
        with pytest.raises(ValueError, match="member curve 1 must be 1-D"):
            combine_curves([np.ones(4), np.ones((2, 2))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            combine_curves(np.empty((0, 5)))

    @given(
        st.lists(arrays(np.float64, 8, elements=non_negative), min_size=1, max_size=9)
    )
    def test_median_bounded_by_min_max(self, curves):
        combined = combine_curves(curves, "median")
        stack = np.stack(curves)
        assert np.all(combined >= stack.min(axis=0) - 1e-12)
        assert np.all(combined <= stack.max(axis=0) + 1e-12)


def _piecewise_constant(rng, k, n, levels=6):
    """``k`` density-like rows: small integer levels held over random runs."""
    rows = np.empty((k, n))
    for row in rows:
        cuts = np.sort(rng.integers(0, n, size=rng.integers(0, 12)))
        row[:] = np.repeat(rng.integers(0, levels, len(cuts) + 1), np.diff([0, *cuts, n]))
    return rows


class TestNativeMedianDifferential:
    """``combine_curves(..., "median")`` (the native ``seq_median``) against
    ``np.median(np.stack(curves), axis=0)``."""

    @staticmethod
    def _assert_same(curves):
        native = combine_curves(curves, "median")
        with np.errstate(invalid="ignore"):  # -inf + inf in an even middle pair
            oracle = np.median(
                np.stack([np.asarray(c, dtype=np.float64) for c in curves]), axis=0
            )
        np.testing.assert_array_equal(native, oracle)
        # Byte-equal (signed zeros included) wherever the result is a number.
        numbers = ~np.isnan(oracle)
        assert native[numbers].tobytes() == oracle[numbers].tobytes()

    @pytest.mark.parametrize("k", [*range(1, 42), 300])
    def test_any_member_count(self, k):
        rng = np.random.default_rng(k)
        rows = _piecewise_constant(rng, k, 257) / 5.0
        self._assert_same(list(rows))
        self._assert_same(rows)

    @pytest.mark.parametrize("k", [1, 2, 7, 10])
    def test_ties_zero_rows_and_infinities(self, k):
        rng = np.random.default_rng(100 + k)
        rows = _piecewise_constant(rng, k, 120, levels=2)
        rows[0] = 0.0
        rows[rng.random(rows.shape) < 0.1] = np.inf
        rows[rng.random(rows.shape) < 0.1] = -np.inf
        self._assert_same(list(rows))
        self._assert_same(np.zeros((k, 30)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_negative_zero_medians_come_out_positive(self, k):
        """numpy's mean sums from +0.0, so a -0.0 middle gives +0.0."""
        rows = np.full((k, 3), -0.0)
        rows[:, 1] = [(-0.0, 0.0)[i % 2] for i in range(k)]
        self._assert_same(list(rows))
        assert not np.signbit(combine_curves(rows)).any()

    def test_infinities_meeting_in_the_middle_give_nan(self):
        combined = combine_curves([np.array([-np.inf, 1.0]), np.array([np.inf, 3.0])])
        assert np.isnan(combined[0]) and combined[1] == 2.0

    @pytest.mark.parametrize("k", [1, 4, 5])
    def test_nan_column_gives_nan(self, k):
        rows = _piecewise_constant(np.random.default_rng(k), k, 40)
        rows[k // 2, 7] = np.nan
        rows[0, 19] = np.nan
        rows[:, 30] = np.nan
        combined = combine_curves(list(rows))
        assert np.isnan(combined[[7, 19, 30]]).all()
        self._assert_same(list(rows))

    @given(
        st.lists(
            arrays(
                np.float64,
                9,
                elements=st.one_of(
                    st.sampled_from([0.0, 0.5, 1.0, np.inf, -np.inf]),
                    st.floats(allow_nan=False, width=64),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_numpy_on_arbitrary_values(self, curves):
        self._assert_same(curves)

    def test_non_contiguous_and_float32_inputs(self):
        rng = np.random.default_rng(9)
        wide = _piecewise_constant(rng, 12, 400)
        self._assert_same(list(wide[:, ::3]))  # strided member views
        self._assert_same(wide[::2, 1::2])  # a strided 2-D stack
        self._assert_same(wide.T.copy().T)  # Fortran order
        self._assert_same([row.astype(np.float32) / 7 for row in wide[:5]])
        self._assert_same((wide[:6] / 7).astype(np.float32))

    def test_shape_errors_unchanged(self):
        with pytest.raises(ValueError, match="empty"):
            combine_curves([])
        with pytest.raises(ValueError, match="empty"):
            combine_curves(np.empty((3, 0)))
        with pytest.raises(ValueError, match="empty"):
            combine_curves([np.empty(0), np.empty(0)])
        with pytest.raises(ValueError, match="stack into 2-D"):
            combine_curves(np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match="member curve 1 has length 4"):
            combine_curves([np.ones(3), np.ones(4)])
        with pytest.raises(ValueError, match="member curve 0 must be 1-D"):
            combine_curves([np.float64(1.0)])

    def test_one_dimensional_ndarray_is_one_member(self):
        curve = np.array([3.0, 1.0, 2.0])
        assert combine_curves(curve).tobytes() == curve.tobytes()


#: The paper's protocol over planted cases of all six UCR-like datasets:
#: six cases each, N = 50 members, tau = 0.4.
POOL_SEED = 20200330


@pytest.fixture(scope="module")
def pool_cases():
    return [
        (case, POOL_SEED + index)
        for offset, dataset in enumerate(DATASETS.values())
        for index, case in enumerate(make_corpus(dataset, n_cases=6, seed=POOL_SEED + offset))
    ]


def _oracle_ensemble_curve(detector, series, parameters):
    """Algorithm 1 from the Python oracles: numpy SAX, word-fed Sequitur,
    density from explicit intervals, std selection, max normalization and
    ``np.median``."""
    window = detector.window
    curves = []
    for paa_size, alphabet_size in parameters:
        tokens = pipeline.member_tokens(series, window, paa_size, alphabet_size)
        firsts, lasts = induce_grammar(tokens.words).occurrence_spans()
        offsets = np.asarray(tokens.offsets, dtype=np.int64)
        intervals = np.column_stack((offsets[firsts], offsets[lasts] + window - 1))
        curves.append(density_from_intervals(intervals, len(series)))
    kept = select_by_std(curves, detector.selectivity)
    return np.median(np.stack([normalize_curve(curves[i]) for i in kept]), axis=0)


def test_ensemble_curves_equal_the_numpy_oracle_path(pool_cases):
    """Whole pipeline: every pool case's ensemble curve is byte-equal to
    the Python oracle path, and the report's stds and kept members equal
    what selection without precomputed stds gives."""
    for case, seed in pool_cases:
        detector = EnsembleGrammarDetector(
            window=case.gt_length, ensemble_size=50, selectivity=0.4, seed=seed
        )
        report = detector.ensemble_report(case.series, keep_member_curves=True)
        oracle = _oracle_ensemble_curve(detector, case.series, report.parameters)
        assert report.curve.tobytes() == oracle.tobytes()
        curves = list(report.member_curves)
        assert report.stds == tuple(curve_std(curve) for curve in curves)
        assert list(report.kept) == select_by_std(curves, detector.selectivity)


def test_ensemble_curves_equal_across_member_execution(pool_cases):
    """Every pool case's ensemble curve is byte-equal whether the members
    run one after another on the caller (``n_jobs=1``), fan out across two
    threads or every available CPU (the default), or run in a process
    pool; the test above pins the serial curve to the Python oracle."""
    with ProcessExecutor(2) as processes:
        for case, seed in pool_cases:

            def curve(**kwargs):
                detector = EnsembleGrammarDetector(
                    window=case.gt_length, ensemble_size=50, selectivity=0.4, seed=seed, **kwargs
                )
                return detector.ensemble_report(case.series).curve.tobytes()

            serial = curve(n_jobs=1)
            assert curve(n_jobs=2) == serial
            assert curve() == serial
            assert curve(executor=processes) == serial
