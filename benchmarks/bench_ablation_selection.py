"""Ablation — std-based member filtering on/off (Section 6.1.1).

Algorithm 1 keeps only the top-tau members by rule-density standard
deviation. This ablation compares filtering (tau = 40%) against keeping
every member, on the same member curves.

Shape check: filtering does not hurt — it matches or improves the
unfiltered ensemble on macro average (the paper's Figure 5 rationale: the
dropped curves carry no anomaly signal).
"""

from __future__ import annotations

import numpy as np

from benchlib import member_curves_for_corpus, scale_note
from repro.core.ensemble import combine_and_detect
from repro.evaluation.metrics import best_score
from repro.evaluation.tables import format_float, format_table

ABLATION_DATASETS = ["TwoLeadECG", "Trace"]
VARIANTS = {
    "filtered (tau=40%)": dict(select_members=True, selectivity=0.4),
    "unfiltered (all members)": dict(select_members=False),
}


def bench_ablation_selection(report):
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
        title="Ablation: average Score with/without std-based member filtering",
    )
    report(table + "\n" + scale_note(), "ablation_selection.txt")

    macro_filtered = float(
        np.mean([np.mean(results[d]["filtered (tau=40%)"]) for d in ABLATION_DATASETS])
    )
    macro_unfiltered = float(
        np.mean(
            [np.mean(results[d]["unfiltered (all members)"]) for d in ABLATION_DATASETS]
        )
    )
    assert macro_filtered >= macro_unfiltered - 0.05, (macro_filtered, macro_unfiltered)
