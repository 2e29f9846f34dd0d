"""Ablation — combiner choice (Section 6.1.3 design decision).

The paper combines normalized member curves with the point-wise *median*.
This ablation evaluates median vs mean vs min vs max on the same member
curves (no recomputation) across two contrasting datasets.

Shape check: the median is never far behind the best combiner — the
robustness rationale for choosing it.
"""

from __future__ import annotations

import numpy as np

from benchlib import member_curves_for_corpus, scale_note
from repro.core.combiners import COMBINERS
from repro.core.ensemble import combine_and_detect
from repro.evaluation.metrics import best_score
from repro.evaluation.tables import format_float, format_table

ABLATION_DATASETS = ["TwoLeadECG", "Trace"]


def bench_ablation_combiner(report):
    def run():
        results: dict[str, dict[str, list[float]]] = {}
        for dataset in ABLATION_DATASETS:
            per_combiner: dict[str, list[float]] = {c: [] for c in COMBINERS}
            for case, curves in member_curves_for_corpus(dataset):
                for combiner in COMBINERS:
                    candidates = combine_and_detect(
                        curves, case.gt_length, k=3, combiner=combiner
                    )
                    per_combiner[combiner].append(
                        best_score(candidates, case.gt_location, case.gt_length)
                    )
            results[dataset] = per_combiner
        return results

    results = run()

    rows = [
        [dataset]
        + [format_float(float(np.mean(results[dataset][c]))) for c in COMBINERS]
        for dataset in ABLATION_DATASETS
    ]
    table = format_table(
        ["Dataset"] + list(COMBINERS),
        rows,
        title="Ablation: average Score per combiner (same member curves)",
    )
    report(table + "\n" + scale_note(), "ablation_combiner.txt")

    for dataset in ABLATION_DATASETS:
        median = float(np.mean(results[dataset]["median"]))
        best = max(float(np.mean(results[dataset][c])) for c in COMBINERS)
        assert median >= best - 0.15, (dataset, median, best)
