"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables or figures, printing the
measured values next to the paper's reported ones. Because our data
substrate is synthetic (see DESIGN.md), absolute numbers differ; the benches
check and display the paper's *qualitative* shape — who wins, by roughly
what factor, where the trends bend.

Scale knobs (environment variables):

- ``REPRO_FULL=1`` — paper-scale everything (25 series/dataset, 20 repeats,
  160k-point scalability series, 600k-point case study).
- ``REPRO_SERIES`` — series per dataset for the main suite (default 6).
- ``REPRO_SWEEP_SERIES`` — series per dataset for parameter sweeps
  (default 4, capped at REPRO_SERIES).
- ``REPRO_REPEATS`` — repeats for the selectivity table (default 3).

Heavy shared computations (the five-method suite behind Tables 4–6 and
Figure 10) are cached as JSON under ``benchmarks/results/`` keyed by their
configuration and by a digest of the ``repro`` sources, so re-running
individual benches is cheap and a change to the detector recomputes them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path

import numpy as np

import repro
from repro.datasets.planting import AnomalyTestCase, make_corpus
from repro.datasets.ucr_like import DATASETS
from repro.evaluation.baselines import make_baseline_factories
from repro.evaluation.harness import evaluate_methods_on_corpus

# ----------------------------------------------------------------------
# Configuration.
# ----------------------------------------------------------------------

FULL = os.environ.get("REPRO_FULL", "") == "1"


def strict() -> bool:
    """The one authoritative ``REPRO_BENCH_STRICT`` switch.

    ``True`` (the default) means wall-clock gates are *asserted*;
    ``REPRO_BENCH_STRICT=0`` means they are measured and reported only —
    the convention shared CI runners rely on. Every bench and the matrix
    runner's regression gate read the flag through this helper instead of
    re-implementing the parse, so the semantics cannot drift per file.
    Read per call (not cached at import) so tests and the runner can flip
    the environment without reloading modules.
    """
    return os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: Series per dataset for the main five-method suite (paper: 25).
N_CASES = 25 if FULL else int(os.environ.get("REPRO_SERIES", "6"))
#: Series per dataset for the parameter sweeps (paper: 25).
SWEEP_CASES = 25 if FULL else min(N_CASES, int(os.environ.get("REPRO_SWEEP_SERIES", "4")))
#: Repeats for the selectivity table (paper: 20).
REPEATS = 20 if FULL else int(os.environ.get("REPRO_REPEATS", "3"))
#: Corpus generation seed (fixed so every bench sees the same series).
CORPUS_SEED = 0
#: Method seed for the ensemble / GI-Random parameter streams.
METHOD_SEED = 0

DATASET_ORDER = [
    "TwoLeadECG",
    "ECGFiveDay",
    "GunPoint",
    "Wafer",
    "Trace",
    "StarLightCurve",
]
METHOD_ORDER = ["Proposed", "GI-Random", "GI-Fix", "GI-Select", "Discord"]
GI_BASELINES = ["GI-Random", "GI-Fix", "GI-Select"]

RESULTS_DIR = Path(__file__).parent / "results"

#: The reduced-scale suite's per-case Scores, committed: every detection
#: change must leave them equal (``bench_table04_score.py`` asserts it).
SCORE_GOLDEN = Path(__file__).parent / "golden" / "table04_scores.json"

# ----------------------------------------------------------------------
# Paper-reported values (embedded so each bench prints paper vs measured).
# ----------------------------------------------------------------------

PAPER_TABLE4 = {
    "TwoLeadECG": [0.3951, 0.2873, 0.0629, 0.1663, 0.4931],
    "ECGFiveDay": [0.3903, 0.2988, 0.2671, 0.1050, 0.4794],
    "GunPoint": [0.4728, 0.3715, 0.2411, 0.0560, 0.4000],
    "Wafer": [0.3179, 0.2126, 0.1382, 0.2480, 0.3090],
    "Trace": [0.5718, 0.2022, 0.3601, 0.3408, 0.2816],
    "StarLightCurve": [0.9369, 0.6930, 0.5301, 0.8759, 0.9161],
}

PAPER_TABLE5 = {
    "TwoLeadECG": [0.72, 0.52, 0.40, 0.24, 0.80],
    "ECGFiveDay": [0.80, 0.44, 0.36, 0.24, 0.80],
    "GunPoint": [0.68, 0.56, 0.44, 0.12, 0.68],
    "Wafer": [0.72, 0.40, 0.36, 0.40, 0.52],
    "Trace": [0.96, 0.40, 0.80, 0.60, 0.52],
    "StarLightCurve": [1.00, 0.96, 0.76, 1.00, 1.00],
}

#: Table 6 cells, keyed by baseline; dataset order as DATASET_ORDER.
PAPER_TABLE6 = {
    "GI-Random": ["12/5/8", "17/3/5", "14/5/6", "13/5/7", "20/1/4", "18/1/6"],
    "GI-Fix": ["17/7/1", "13/5/7", "15/4/6", "17/6/2", "14/1/10", "24/0/1"],
    "GI-Select": ["14/5/6", "18/5/2", "16/8/1", "9/8/8", "14/3/8", "17/0/8"],
    "Discord": ["8/4/13", "9/1/15", "14/7/4", "12/5/8", "18/1/6", "12/0/13"],
}

#: Table 7: wins/ties/losses vs best GI baseline, wmax = amax sweep.
PAPER_TABLE7 = {
    (5, 5): ["1/12/12", "8/9/8", "3/9/13", "3/14/9", "4/11/10", "2/0/23"],
    (10, 10): ["12/5/8", "13/5/7", "14/5/6", "9/8/8", "14/1/10", "17/0/8"],
    (15, 15): ["14/4/7", "17/2/6", "13/4/8", "13/7/5", "15/0/10", "18/0/7"],
    (20, 20): ["12/4/9", "17/2/6", "13/4/8", "13/7/5", "15/0/10", "17/1/7"],
}

#: Table 8: wmax sweep at amax = 10; keys are (wmax, amax).
PAPER_TABLE8 = {
    (5, 10): ["5/9/11", "6/8/11", "5/6/14", "7/9/9", "4/10/11", "1/0/24"],
    (10, 10): ["12/5/8", "13/5/7", "14/5/6", "9/8/8", "14/1/10", "17/0/8"],
    (15, 10): ["10/5/10", "18/3/4", "11/6/8", "18/3/4", "15/0/10", "19/0/6"],
    (20, 10): ["12/4/9", "18/2/5", "10/4/11", "14/3/8", "16/0/9", "20/0/5"],
}

#: Table 9: amax sweep at wmax = 10; keys are (wmax, amax).
PAPER_TABLE9 = {
    (10, 5): ["11/5/9", "8/8/9", "7/8/10", "12/7/6", "11/5/9", "1/1/23"],
    (10, 10): ["12/5/8", "13/5/7", "14/5/6", "9/8/8", "14/1/10", "17/0/8"],
    (10, 15): ["11/6/8", "13/6/6", "13/4/8", "8/8/9", "16/0/9", "15/0/10"],
    (10, 20): ["11/4/10", "14/5/6", "13/4/8", "9/9/7", "15/0/10", "12/1/12"],
}

ENSEMBLE_SIZES = [5, 10, 25, 50]

PAPER_TABLE10 = {
    "TwoLeadECG": [0.3424, 0.3488, 0.3912, 0.3951],
    "ECGFiveDay": [0.3700, 0.3882, 0.4168, 0.3903],
    "GunPoint": [0.3128, 0.4629, 0.4965, 0.4728],
    "Wafer": [0.2308, 0.2637, 0.2839, 0.3179],
    "Trace": [0.4767, 0.5789, 0.5994, 0.5718],
    "StarLightCurve": [0.8244, 0.7593, 0.8676, 0.9369],
}

PAPER_TABLE11 = {
    "TwoLeadECG": [0.52, 0.60, 0.72, 0.72],
    "ECGFiveDay": [0.68, 0.72, 0.76, 0.80],
    "GunPoint": [0.56, 0.76, 0.68, 0.68],
    "Wafer": [0.44, 0.64, 0.60, 0.72],
    "Trace": [0.76, 0.96, 0.96, 0.96],
    "StarLightCurve": [1.00, 1.00, 1.00, 1.00],
}

SELECTIVITIES = [0.05, 0.10, 0.20, 0.40, 0.80, 1.00]

#: Table 12 cells: (mean, std) per selectivity.
PAPER_TABLE12 = {
    "TwoLeadECG": [(0.4149, 0.040), (0.4196, 0.032), (0.4000, 0.026), (0.3882, 0.027), (0.3354, 0.036), (0.3071, 0.032)],
    "ECGFiveDay": [(0.4250, 0.042), (0.4100, 0.045), (0.3800, 0.038), (0.3700, 0.037), (0.3500, 0.024), (0.3200, 0.036)],
    "GunPoint": [(0.4880, 0.042), (0.5000, 0.037), (0.5050, 0.035), (0.4880, 0.025), (0.4300, 0.023), (0.4120, 0.023)],
    "Wafer": [(0.3390, 0.050), (0.3710, 0.042), (0.3370, 0.027), (0.3110, 0.027), (0.2700, 0.032), (0.2600, 0.037)],
    "Trace": [(0.6136, 0.037), (0.6017, 0.035), (0.5972, 0.025), (0.5864, 0.024), (0.4997, 0.046), (0.4166, 0.042)],
    "StarLightCurve": [(0.9057, 0.017), (0.9183, 0.016), (0.9327, 0.009), (0.9052, 0.012), (0.7359, 0.021), (0.6280, 0.021)],
}

WINDOW_FRACTIONS = [0.6, 0.7, 0.8, 0.9, 1.0]

PAPER_TABLE13 = {
    "TwoLeadECG": [0.4620, 0.4605, 0.4107, 0.4259, 0.3951],
    "ECGFiveDay": [0.4391, 0.3691, 0.3535, 0.3797, 0.3903],
    "GunPoint": [0.4373, 0.4992, 0.4680, 0.4371, 0.4728],
    "Wafer": [0.3095, 0.4195, 0.3389, 0.2824, 0.3179],
    "Trace": [0.5229, 0.5911, 0.5689, 0.5852, 0.5718],
    "StarLightCurve": [0.8624, 0.8998, 0.9216, 0.9048, 0.9369],
}

PAPER_TABLE14 = {
    "TwoLeadECG": [0.72, 0.84, 0.80, 0.76, 0.72],
    "ECGFiveDay": [0.96, 0.80, 0.84, 0.72, 0.80],
    "GunPoint": [0.84, 0.68, 0.72, 0.64, 0.68],
    "Wafer": [0.56, 0.64, 0.52, 0.52, 0.72],
    "Trace": [1.00, 1.00, 1.00, 1.00, 0.96],
    "StarLightCurve": [1.00, 1.00, 1.00, 1.00, 1.00],
}

# ----------------------------------------------------------------------
# Corpora and the shared five-method suite.
# ----------------------------------------------------------------------

_corpus_cache: dict[tuple[str, int], list[AnomalyTestCase]] = {}


def corpus_for(dataset_name: str, n_cases: int) -> list[AnomalyTestCase]:
    """The evaluation corpus of a dataset (cached; prefix-stable in size).

    ``make_corpus`` spawns per-case child generators from ``CORPUS_SEED``,
    so a smaller corpus is an exact prefix of a larger one — sweeps can use
    fewer cases and still compare per-case against the main suite.
    """
    key = (dataset_name, n_cases)
    if key not in _corpus_cache:
        _corpus_cache[key] = make_corpus(
            DATASETS[dataset_name], n_cases=n_cases, seed=CORPUS_SEED
        )
    return _corpus_cache[key]


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """Short digest of every ``repro`` ``*.py`` and ``*.c`` source file.

    Part of every score cache key: scores cached by one version of the
    detector are never served to another.
    """
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted([*root.rglob("*.py"), *root.rglob("*.c")]):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:12]


def _suite_cache_path() -> Path:
    return RESULTS_DIR / (
        f"suite_cases{N_CASES}_seed{CORPUS_SEED}_m{METHOD_SEED}_src{source_digest()}.json"
    )


def run_main_suite() -> dict[str, dict[str, list[float]]]:
    """The five-method comparison behind Tables 4–6 and Figure 10.

    Returns ``{dataset: {method: [per-case Score]}}``, cached on disk.
    """
    cache = _suite_cache_path()
    if cache.exists():
        loaded = json.loads(cache.read_text())
        # A cache is only valid if it covers every dataset AND every method
        # per dataset: checking the dataset set alone meant a method added
        # to METHOD_ORDER silently reused a stale suite missing it, and
        # downstream benches KeyError'd. On any mismatch, fall through and
        # recompute (the write below replaces the stale file).
        if set(loaded) == set(DATASET_ORDER) and all(
            set(loaded[dataset]) >= set(METHOD_ORDER) for dataset in loaded
        ):
            return loaded
    results: dict[str, dict[str, list[float]]] = {}
    for dataset_name in DATASET_ORDER:
        corpus = corpus_for(dataset_name, N_CASES)
        factories = make_baseline_factories(seed=METHOD_SEED)
        method_scores = evaluate_methods_on_corpus(corpus, factories)
        results[dataset_name] = {
            name: list(scores.scores) for name, scores in method_scores.items()
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    cache.write_text(json.dumps(results, indent=1))
    return results


def score_golden(suite: dict[str, dict[str, list[float]]]) -> dict:
    """The :data:`SCORE_GOLDEN` document of a suite run: its scale and scores."""
    return {
        "n_cases": N_CASES,
        "corpus_seed": CORPUS_SEED,
        "method_seed": METHOD_SEED,
        "scores": suite,
    }


def best_gi_baseline_scores(suite: dict[str, dict[str, list[float]]], dataset: str) -> list[float]:
    """Per-case scores of the best (by average) GI baseline on a dataset.

    This is the comparator of Tables 7–9 ("the best of the GI-Random,
    GI-Fix, and GI-Select methods for each dataset").
    """
    best_name = max(GI_BASELINES, key=lambda name: float(np.mean(suite[dataset][name])))
    return suite[dataset][best_name]


def sweep_ensemble_scores(
    dataset_name: str,
    *,
    max_paa_size: int = 10,
    max_alphabet_size: int = 10,
    ensemble_size: int = 50,
    selectivity: float = 0.4,
    n_cases: int | None = None,
    window: int | None = None,
    seed: int = METHOD_SEED,
    k: int = 3,
) -> list[float]:
    """Per-case Scores of the ensemble under one parameter setting (cached).

    The workhorse of the Tables 7–9 and 13–14 sweeps: runs the ensemble
    detector with the given ranges/window over the dataset's corpus and
    returns the per-case best top-``k`` Scores, caching to JSON.
    """
    from repro.core.ensemble import EnsembleGrammarDetector
    from repro.evaluation.metrics import best_score

    n_cases = SWEEP_CASES if n_cases is None else n_cases
    corpus = corpus_for(dataset_name, n_cases)
    window = corpus[0].gt_length if window is None else window
    # The selectivity component is round-based, not truncation-based:
    # ``int(0.29 * 100)`` is 28 (binary float truncation), so 0.29 and 0.28
    # used to collide on the same cache file. ``%g`` keeps the full value
    # (0.05 -> "0.05", 1.0 -> "1") with no float-repr noise. ``k`` is part
    # of the key too — it changes the returned scores, so omitting it
    # served stale results to any caller varying k. So is the source digest.
    cache_key = (
        f"sweep_{dataset_name}_w{max_paa_size}_a{max_alphabet_size}"
        f"_N{ensemble_size}_t{round(selectivity, 6):g}_c{n_cases}"
        f"_win{window}_s{seed}_k{k}_src{source_digest()}.json"
    )
    cache = RESULTS_DIR / cache_key
    if cache.exists():
        return json.loads(cache.read_text())
    detector = EnsembleGrammarDetector(
        window,
        max_paa_size=max_paa_size,
        max_alphabet_size=max_alphabet_size,
        ensemble_size=ensemble_size,
        selectivity=selectivity,
        seed=seed,
    )
    scores = [
        best_score(detector.detect(case.series, k), case.gt_location, case.gt_length)
        for case in corpus
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    cache.write_text(json.dumps(scores))
    return scores


def member_curves_for_corpus(
    dataset_name: str,
    *,
    ensemble_size: int = 50,
    n_cases: int | None = None,
    seed: int = METHOD_SEED,
):
    """Raw member density curves per case — fuel for the tau/N/combiner sweeps.

    Yields ``(case, member_curves)`` pairs; the curves are in *sample order*
    so a prefix of them is itself a uniform parameter sample (used by the
    ensemble-size sweep).
    """
    from repro.core.ensemble import EnsembleGrammarDetector

    n_cases = SWEEP_CASES if n_cases is None else n_cases
    corpus = corpus_for(dataset_name, n_cases)
    window = corpus[0].gt_length
    detector = EnsembleGrammarDetector(
        window, ensemble_size=ensemble_size, seed=seed
    )
    for case in corpus:
        report = detector.ensemble_report(case.series, keep_member_curves=True)
        yield case, list(report.member_curves)


def scale_note() -> str:
    """One-line description of the active scale configuration."""
    mode = "FULL (paper scale)" if FULL else "reduced"
    return (
        f"[config: {mode}; series/dataset={N_CASES} (paper 25); "
        f"sweep series={SWEEP_CASES}; repeats={REPEATS} (paper 20); "
        f"set REPRO_FULL=1 for paper scale]"
    )
