"""Pipeline differential suite: the whole detector against the Python oracles.

The property battery (``test_sax_properties.py``) pins the discretization
stage in isolation; this suite drives random series through the *whole*
detector — batch ``detect()``/``ensemble_report()``, the single-run
detector and the GI baselines built on it, and streaming append/extend +
poll — and asserts the end results are bitwise identical
to the pipeline composed from ``tests/oracles/`` (numpy SAX, word-fed
Sequitur, production density and combiner): same anomaly positions, same
member selection, same float64 curve bits.

The detectors that need a grammar or a word per window rather than a curve
(the single-run detector's ``tokenize``/``grammar``, GI-Select's grid
search, RRA, motif discovery and HOT SAX) run on native token ids; over the
36 planted pool cases they must equal the word-path oracles exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import pipeline
from oracles.interner import MAX_PACKED_WIDTH
from oracles.sequitur import induce_grammar
from repro.core.combiners import COMBINERS
from repro.core.detector import GrammarAnomalyDetector
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import as_executor
from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector
from repro.datasets.planting import make_corpus
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.datasets.ucr_like import DATASETS
from repro.discord.hotsax import _buckets_and_order, hotsax_discords
from repro.evaluation.baselines import GISelectDetector, make_baseline_factories
from repro.grammar.motifs import discover_motifs, motifs_from_grammar
from repro.grammar.rra import RRADetector

WINDOW = 50
CONFIG = dict(
    window=WINDOW, ensemble_size=6, max_paa_size=6, max_alphabet_size=6, seed=5
)


def random_series(seed: int, n: int = 900) -> np.ndarray:
    rng = np.random.default_rng(seed)
    series = np.sin(np.linspace(0.0, 18.0 * np.pi, n))
    series += 0.05 * rng.standard_normal(n)
    anomaly = int(rng.integers(n // 4, 3 * n // 4))
    series[anomaly : anomaly + WINDOW] *= 0.1
    return series


def batch_result(series: np.ndarray, executor_kind: str | None, **config):
    config = {**CONFIG, **config}
    if executor_kind is None:
        report = EnsembleGrammarDetector(**config).ensemble_report(
            series, keep_member_curves=True
        )
        anomalies = EnsembleGrammarDetector(**config).detect(series, 3)
    else:
        with as_executor(executor_kind, 2) as executor:
            detector = EnsembleGrammarDetector(**config, executor=executor)
            report = detector.ensemble_report(series, keep_member_curves=True)
            anomalies = EnsembleGrammarDetector(**config, executor=executor).detect(series, 3)
    return report, anomalies


def assert_batch_matches_oracle(series: np.ndarray, report, anomalies, **config) -> None:
    detector = EnsembleGrammarDetector(**{**CONFIG, **config})
    oracle = pipeline.batch_ensemble(detector, series, report.parameters)
    assert list(report.parameters) == detector.sample_parameters()
    assert report.kept == oracle.kept
    assert report.curve.tobytes() == oracle.curve.tobytes()
    for ours, expected in zip(report.member_curves, oracle.member_curves, strict=True):
        assert ours.tobytes() == expected.tobytes()
    assert anomalies == pipeline.anomalies(oracle.curve, detector.window, 3)
    return oracle


def assert_poll_matches_oracle(detector: StreamingEnsembleDetector, fed: np.ndarray) -> None:
    oracle = pipeline.stream_ensemble(detector, fed)
    assert detector.density_curve().tobytes() == oracle.curve.tobytes()
    assert detector.detect(3) == pipeline.anomalies(
        oracle.curve, detector.window, 3, detector.horizon_start
    )


def streaming_polls(series: np.ndarray, **overrides):
    """Append + extend ingestion with interleaved polls, each checked
    against the oracle poll over every point fed so far."""
    detector = StreamingEnsembleDetector(**CONFIG, **overrides)
    for value in series[:150]:
        detector.append(float(value))
    polls = 0
    for offset in range(150, len(series), 200):
        stop = min(offset + 200, len(series))
        detector.extend(series[offset:stop])
        assert_poll_matches_oracle(detector, series[:stop])
        polls += 1
    return detector, polls


@pytest.fixture(scope="module")
def planted():
    """One planted case of each UCR-like dataset (the paper's protocol)."""
    return {name: make_corpus(dataset, n_cases=1, seed=3)[0] for name, dataset in DATASETS.items()}


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("seed", [1, 2])
def test_batch_detect_matches_the_oracle(seed, n_jobs):
    series = random_series(seed)
    report, anomalies = batch_result(series, None, n_jobs=n_jobs)
    assert_batch_matches_oracle(series, report, anomalies, n_jobs=n_jobs)


def test_wide_word_batch_detect_matches_the_oracle():
    """Members whose words are wider than a packed int64 code holds (12
    symbols) must still match the oracle bit for bit."""
    series = random_series(10)
    config = dict(ensemble_size=10, max_paa_size=16, seed=1)
    report, anomalies = batch_result(series, None, **config)
    assert any(w > MAX_PACKED_WIDTH for w, _ in report.parameters)
    assert_batch_matches_oracle(series, report, anomalies, **config)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_none_numerosity_batch_detect_matches_the_oracle(n_jobs):
    """The ``"none"`` strategy keeps every window a token, in the same one
    native call per member as ``"exact"``, fanned out like it."""
    series = random_series(11)
    config = dict(numerosity="none", n_jobs=n_jobs)
    report, anomalies = batch_result(series, None, **config)
    assert_batch_matches_oracle(series, report, anomalies, **config)


@pytest.mark.parametrize("combiner", COMBINERS)
def test_every_combiner_matches_the_oracle(combiner):
    series = random_series(13)
    config = dict(combiner=combiner, selectivity=0.5)
    assert_batch_matches_oracle(series, *batch_result(series, None, **config), **config)


@pytest.mark.parametrize("numerosity", ["exact", "none"])
@pytest.mark.parametrize("dataset", DATASETS)
def test_planted_case_batch_detect_matches_the_oracle(planted, dataset, numerosity):
    case = planted[dataset]
    config = dict(window=case.gt_length, ensemble_size=8, seed=7, numerosity=numerosity)
    report, anomalies = batch_result(case.series, None, **config)
    oracle = assert_batch_matches_oracle(case.series, report, anomalies, **config)
    # The single-run detector of each member's (w, a) is that member.
    for (w, a), expected in zip(report.parameters, oracle.member_curves, strict=True):
        single = GrammarAnomalyDetector(case.gt_length, w, a, numerosity=numerosity)
        assert single.density_curve(case.series).tobytes() == expected.tobytes()


@pytest.mark.parametrize("method", ["GI-Fix", "GI-Random", "GI-Select"])
@pytest.mark.parametrize("dataset", DATASETS)
def test_planted_case_gi_baselines_match_the_oracle(planted, dataset, method):
    case = planted[dataset]
    window = case.gt_length
    detector = make_baseline_factories(seed=1)[method](window)
    anomalies = detector.detect(case.series, 3)
    w, a = getattr(detector, "last_parameters", None) or (4, 4)
    expected = pipeline.member_curve(case.series, window, w, a)
    assert anomalies == pipeline.anomalies(expected, window, 3)


def test_batch_detect_matches_the_oracle_across_executors(executor_kind):
    series = random_series(3)
    assert_batch_matches_oracle(series, *batch_result(series, executor_kind))


@pytest.mark.parametrize("seed", [4, 5])
def test_streaming_polls_match_the_oracle(seed):
    _, polls = streaming_polls(random_series(seed))
    assert polls == 4


@pytest.mark.parametrize(
    "eviction",
    [dict(capacity=300, policy="sliding"), dict(capacity=300, policy="decay", segments=3)],
    ids=["sliding", "decay"],
)
def test_streaming_eviction_matches_the_oracle(eviction):
    detector, polls = streaming_polls(random_series(7, n=1200), **eviction)
    assert polls == 6 and detector.horizon_start > 0


def test_streaming_none_numerosity_matches_the_oracle():
    streaming_polls(random_series(12), capacity=400, policy="sliding", numerosity="none")


@pytest.mark.parametrize(
    "eviction",
    [{}, dict(policy="sliding"), dict(policy="decay", segments=4)],
    ids=["unbounded", "sliding", "decay"],
)
@pytest.mark.parametrize("dataset", DATASETS)
def test_planted_case_stream_matches_the_oracle(planted, dataset, eviction):
    """Four uneven chunks of a planted case, each followed by a poll; the
    bounded runs keep eight windows, so the horizon moves."""
    case = planted[dataset]
    window = case.gt_length
    if eviction:
        eviction = dict(eviction, capacity=8 * window)
    detector = StreamingEnsembleDetector(
        window=window, ensemble_size=6, seed=11, **eviction
    )
    bounds = np.linspace(0, len(case.series), 5).astype(int)
    bounds[1] += 17
    for stop in bounds[1:]:
        detector.extend(case.series[len(detector) : stop])
        assert_poll_matches_oracle(detector, case.series[:stop])
    assert (detector.horizon_start > 0) == bool(eviction)


@pytest.mark.parametrize(
    "eviction",
    [{}, dict(capacity=250, policy="sliding"), dict(capacity=250, policy="decay")],
    ids=["unbounded", "sliding", "decay"],
)
def test_single_member_stream_matches_the_oracle(eviction):
    series = random_series(8, n=700)
    member = StreamingGrammarDetector(window=WINDOW, paa_size=5, alphabet_size=5, **eviction)
    for value in series[:90]:
        member.append(float(value))
    member.extend(series[90:])
    expected = pipeline.stream_member_curve(
        series, WINDOW, 5, 5,
        horizon_start=member.horizon_start,
        generation_size=member.state.generation_size,
    )
    assert member.density_curve().tobytes() == expected.tobytes()
    assert member.detect(2) == pipeline.anomalies(expected, WINDOW, 2, member.horizon_start)


def test_batch_and_streaming_agree():
    series = random_series(9)
    batch_curve = EnsembleGrammarDetector(**CONFIG).density_curve(series)
    streaming = StreamingEnsembleDetector(**CONFIG)
    streaming.extend(series)
    assert np.array_equal(streaming.density_curve(), batch_curve)


def pool_parameters(pool_cases):
    """Each pool case and seed with its window and one ``(w, a)`` drawn from
    the seed."""
    for case, seed in pool_cases:
        w, a = np.random.default_rng(seed).integers(2, 11, size=2).tolist()
        yield case, seed, case.gt_length, w, a


@pytest.mark.parametrize("numerosity", ["exact", "none"])
def test_pool_tokenize_and_grammar_match_the_oracle(pool_cases, numerosity):
    for case, seed, window, w, a in pool_parameters(pool_cases):
        label = (case.dataset, seed, w, a)
        detector = GrammarAnomalyDetector(window, w, a, numerosity=numerosity)
        tokens = detector.tokenize(case.series)
        expected = pipeline.member_tokens(case.series, window, w, a, numerosity=numerosity)
        assert tokens.words == expected.words, label
        assert tokens.offsets.tobytes() == expected.offsets.tobytes(), label
        assert (tokens.n_windows, tokens.window) == (expected.n_windows, window), label
        assert detector.grammar(case.series) == induce_grammar(expected.words), label


def test_pool_gi_select_matches_the_oracle(pool_cases):
    for case, seed, window, _, _ in pool_parameters(pool_cases):
        detector = GISelectDetector(window)
        anomalies = detector.detect(case.series, 3)
        sample = case.series[: min(max(len(case.series) // 10, 2 * window), len(case.series))]
        w, a = pipeline.select_parameters(sample, window)
        assert detector.last_parameters == (w, a), (case.dataset, seed)
        expected = pipeline.member_curve(case.series, window, w, a)
        assert anomalies == pipeline.anomalies(expected, window, 3)


class _OracleRRA(RRADetector):
    """RRA whose candidates come from the word-path oracle."""

    def intervals(self, series):
        grammar, tokens = pipeline.grammar_and_tokens(
            series, self.window, self.paa_size, self.alphabet_size
        )
        return pipeline.rule_intervals(grammar, tokens, len(series))


def test_pool_rra_matches_the_oracle(pool_cases):
    for case, seed, window, w, a in pool_parameters(pool_cases):
        label = (case.dataset, seed, w, a)
        detector, oracle = RRADetector(window, w, a), _OracleRRA(window, w, a)
        assert detector.intervals(case.series) == oracle.intervals(case.series), label
        assert detector.detect(case.series, 3) == oracle.detect(case.series, 3), label


def test_pool_motifs_match_the_oracle(pool_cases):
    for case, seed, window, w, a in pool_parameters(pool_cases):
        grammar, tokens = pipeline.grammar_and_tokens(case.series, window, w, a)
        expected = motifs_from_grammar(grammar, tokens, len(case.series))[:5]
        found = discover_motifs(case.series, window, w, a)
        assert found == expected, (case.dataset, seed, w, a)


def test_pool_hotsax_search_inputs_match_the_oracle(pool_cases):
    """HOT SAX's search is a function of its buckets, its outer order and
    the generator state after ordering; on every pool case those equal the
    word-string bucketing, so the discords do too."""
    for case, seed in pool_cases:
        window = case.gt_length
        discretizer = MultiResolutionDiscretizer(case.series, window, 3, 3, numerosity="none")
        _, ids = discretizer.token_ids(3, 3)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        buckets, order = _buckets_and_order(ids, rng)
        words, oracle_buckets, oracle_order = pipeline.hotsax_buckets_and_order(
            case.series, window, 3, 3, oracle_rng
        )
        label = (case.dataset, seed)
        assert order == oracle_order, label
        assert [buckets[i] for i in ids.tolist()] == [oracle_buckets[w] for w in words], label
        assert rng.bit_generator.state == oracle_rng.bit_generator.state, label


@pytest.mark.parametrize("dataset", [name for name in DATASETS if name != "StarLightCurve"])
def test_planted_case_hotsax_discords_match_the_oracle(pool_cases, dataset):
    """End to end on the first pool case of each dataset (a StarLightCurve
    search takes about ten seconds; its inputs are pinned above)."""
    case, seed = next(item for item in pool_cases if item[0].dataset == dataset)
    found = hotsax_discords(case.series, case.gt_length, 2, seed=seed)
    assert found == pipeline.hotsax_discords(case.series, case.gt_length, 2, seed=seed)
