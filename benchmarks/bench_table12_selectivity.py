"""Table 12 — effect of the ensemble selectivity tau (5% .. 100%).

For each repeat, a fresh N=50 ensemble (new parameter sample) is computed
per test series; every tau then filters the *same* member curves, exactly
as Algorithm 1 would. The table reports mean and standard deviation of the
per-repeat average Score, as in the paper (which repeats 20 times; the
reduced default repeats fewer — set REPRO_FULL=1 or REPRO_REPEATS).

Shape check: very large tau (80–100%) is worse than small tau — keeping
every low-quality member dilutes the ensemble (Section 7.2.5).
"""

from __future__ import annotations

import numpy as np

from benchlib import (
    DATASET_ORDER,
    PAPER_TABLE12,
    REPEATS,
    SELECTIVITIES,
    member_curves_for_corpus,
    scale_note,
)
from repro.core.ensemble import combine_and_detect
from repro.evaluation.metrics import best_score
from repro.evaluation.tables import format_table


def _mean_scores() -> dict[str, dict[float, list[float]]]:
    """{dataset: {tau: [average Score per repeat]}}"""
    results: dict[str, dict[float, list[float]]] = {
        dataset: {tau: [] for tau in SELECTIVITIES} for dataset in DATASET_ORDER
    }
    for repeat in range(REPEATS):
        for dataset in DATASET_ORDER:
            per_tau: dict[float, list[float]] = {tau: [] for tau in SELECTIVITIES}
            for case, curves in member_curves_for_corpus(
                dataset, ensemble_size=50, seed=1000 + repeat
            ):
                for tau in SELECTIVITIES:
                    candidates = combine_and_detect(
                        curves, case.gt_length, k=3, selectivity=tau
                    )
                    per_tau[tau].append(
                        best_score(candidates, case.gt_location, case.gt_length)
                    )
            for tau in SELECTIVITIES:
                results[dataset][tau].append(float(np.mean(per_tau[tau])))
    return results


def bench_table12_selectivity(report):
    results = _mean_scores()

    rows = []
    for dataset in DATASET_ORDER:
        cells = [dataset]
        for column, tau in enumerate(SELECTIVITIES):
            repeats = results[dataset][tau]
            paper_mean, paper_std = PAPER_TABLE12[dataset][column]
            cells.append(
                f"{np.mean(repeats):.4f}({np.std(repeats):.3f}) | "
                f"{paper_mean:.4f}({paper_std:.3f})"
            )
        rows.append(cells)
    headers = ["Dataset"] + [f"tau={int(tau * 100)}% | paper" for tau in SELECTIVITIES]
    table = format_table(
        headers,
        rows,
        title="Table 12: Mean (std) of average Score over repeats, vs tau",
    )
    report(table + "\n" + scale_note(), "table12.txt")

    # Shape check: small tau beats keeping everything, on macro average.
    def macro(tau: float) -> float:
        return float(np.mean([np.mean(results[d][tau]) for d in DATASET_ORDER]))

    best_small = max(macro(0.05), macro(0.10), macro(0.20))
    assert best_small >= macro(1.0) - 0.02, {t: macro(t) for t in SELECTIVITIES}
