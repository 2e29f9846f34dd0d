"""Ablation — member normalization on/off (Section 6.1.2).

Algorithm 1 rescales each surviving rule density curve by its maximum so
no member dominates the median by raw scale. This ablation compares
normalized vs raw combination on the same member curves.

Shape check: normalization does not hurt on macro average (the paper's
rationale: coarse members have systematically larger raw densities).
"""

from __future__ import annotations

import numpy as np

from benchlib import member_curves_for_corpus, scale_note
from repro.core.ensemble import combine_and_detect
from repro.evaluation.metrics import best_score
from repro.evaluation.tables import format_float, format_table

ABLATION_DATASETS = ["TwoLeadECG", "Trace"]
VARIANTS = {
    "normalized (by max)": dict(normalize_members=True),
    "raw member curves": dict(normalize_members=False),
}


def bench_ablation_normalization(report):
    def run():
        results: dict[str, dict[str, list[float]]] = {}
        for dataset in ABLATION_DATASETS:
            per_variant: dict[str, list[float]] = {v: [] for v in VARIANTS}
            for case, curves in member_curves_for_corpus(dataset):
                for name, options in VARIANTS.items():
                    candidates = combine_and_detect(
                        curves, case.gt_length, k=3, **options
                    )
                    per_variant[name].append(
                        best_score(candidates, case.gt_location, case.gt_length)
                    )
            results[dataset] = per_variant
        return results

    results = run()

    rows = [
        [dataset]
        + [format_float(float(np.mean(results[dataset][v]))) for v in VARIANTS]
        for dataset in ABLATION_DATASETS
    ]
    table = format_table(
        ["Dataset"] + list(VARIANTS),
        rows,
        title="Ablation: average Score with/without max-normalization of members",
    )
    report(table + "\n" + scale_note(), "ablation_normalization.txt")

    macro_norm = float(
        np.mean([np.mean(results[d]["normalized (by max)"]) for d in ABLATION_DATASETS])
    )
    macro_raw = float(
        np.mean([np.mean(results[d]["raw member curves"]) for d in ABLATION_DATASETS])
    )
    assert macro_norm >= macro_raw - 0.05, (macro_norm, macro_raw)
