"""Tables 10 & 11 — effect of the ensemble size N in {5, 10, 25, 50}.

One N=50 ensemble run is computed per test series (with member curves
retained); each smaller N is evaluated on the *prefix* of the sampled
members — a uniform random prefix of a without-replacement sample is itself
a uniform sample, so this matches the paper's protocol while avoiding
redundant grammar runs.

Shape checks: N = 5 underperforms the larger ensembles, and performance
saturates by N >= 25 (Section 7.2.4).
"""

from __future__ import annotations

import numpy as np

from benchlib import (
    DATASET_ORDER,
    ENSEMBLE_SIZES,
    PAPER_TABLE10,
    PAPER_TABLE11,
    member_curves_for_corpus,
    scale_note,
)
from repro.core.ensemble import combine_and_detect
from repro.evaluation.metrics import best_score, hit_rate
from repro.evaluation.tables import format_float, format_table


def _scores_by_size() -> dict[str, dict[int, list[float]]]:
    results: dict[str, dict[int, list[float]]] = {}
    for dataset in DATASET_ORDER:
        per_size: dict[int, list[float]] = {size: [] for size in ENSEMBLE_SIZES}
        for case, curves in member_curves_for_corpus(dataset, ensemble_size=50):
            for size in ENSEMBLE_SIZES:
                candidates = combine_and_detect(
                    curves[:size], case.gt_length, k=3, selectivity=0.4
                )
                per_size[size].append(
                    best_score(candidates, case.gt_location, case.gt_length)
                )
        results[dataset] = per_size
    return results


def bench_table10_11_ensemble_size(report):
    results = _scores_by_size()

    score_rows = []
    hit_rows = []
    for dataset in DATASET_ORDER:
        score_cells = [dataset]
        hit_cells = [dataset]
        for column, size in enumerate(ENSEMBLE_SIZES):
            scores = results[dataset][size]
            score_cells.append(
                f"{format_float(float(np.mean(scores)))} | "
                f"{format_float(PAPER_TABLE10[dataset][column])}"
            )
            hit_cells.append(
                f"{format_float(hit_rate(scores), 2)} | "
                f"{format_float(PAPER_TABLE11[dataset][column], 2)}"
            )
        score_rows.append(score_cells)
        hit_rows.append(hit_cells)

    headers = ["Dataset"] + [f"N={size} | paper" for size in ENSEMBLE_SIZES]
    table10 = format_table(headers, score_rows, title="Table 10: Performance (average Score) vs N")
    table11 = format_table(headers, hit_rows, title="Table 11: Performance (HitRate) vs N")
    report(table10 + "\n\n" + table11 + "\n" + scale_note(), "table10_11.txt")

    # Shape check: macro average of N=5 does not exceed the best larger N.
    def macro(size: int) -> float:
        return float(np.mean([np.mean(results[d][size]) for d in DATASET_ORDER]))

    assert macro(5) <= max(macro(25), macro(50)) + 0.02
