"""Tables 13 & 14 — effect of the sliding window length n (0.6 .. 1.0 x na).

The ensemble is re-run with windows shorter than the planted anomaly length
na. Shape check: performance does not collapse for n < na — the paper's
point that the method is robust to an underestimated anomaly length.
"""

from __future__ import annotations

import numpy as np

from benchlib import (
    DATASET_ORDER,
    PAPER_TABLE13,
    PAPER_TABLE14,
    WINDOW_FRACTIONS,
    scale_note,
    sweep_ensemble_scores,
)
from repro.datasets.ucr_like import DATASETS
from repro.evaluation.metrics import hit_rate
from repro.evaluation.tables import format_float, format_table


def _scores_by_fraction() -> dict[str, dict[float, list[float]]]:
    results: dict[str, dict[float, list[float]]] = {}
    for dataset in DATASET_ORDER:
        instance_length = DATASETS[dataset].spec.instance_length
        results[dataset] = {
            fraction: sweep_ensemble_scores(
                dataset, window=int(fraction * instance_length)
            )
            for fraction in WINDOW_FRACTIONS
        }
    return results


def bench_table13_14_window_length(report):
    results = _scores_by_fraction()

    score_rows = []
    hit_rows = []
    for dataset in DATASET_ORDER:
        score_cells = [dataset]
        hit_cells = [dataset]
        for column, fraction in enumerate(WINDOW_FRACTIONS):
            scores = results[dataset][fraction]
            score_cells.append(
                f"{format_float(float(np.mean(scores)))} | "
                f"{format_float(PAPER_TABLE13[dataset][column])}"
            )
            hit_cells.append(
                f"{format_float(hit_rate(scores), 2)} | "
                f"{format_float(PAPER_TABLE14[dataset][column], 2)}"
            )
        score_rows.append(score_cells)
        hit_rows.append(hit_cells)

    headers = ["Dataset"] + [f"n={f:.1f}na | paper" for f in WINDOW_FRACTIONS]
    table13 = format_table(headers, score_rows, title="Table 13: Performance (average Score) vs n")
    table14 = format_table(headers, hit_rows, title="Table 14: Performance (HitRate) vs n")
    report(table13 + "\n\n" + table14 + "\n" + scale_note(), "table13_14.txt")

    # Shape check: shrinking the window to 0.6 na does not collapse the
    # macro HitRate relative to n = na (paper: "the dependence on n is not
    # significant").
    def macro_hit(fraction: float) -> float:
        return float(np.mean([hit_rate(results[d][fraction]) for d in DATASET_ORDER]))

    assert macro_hit(0.6) >= macro_hit(1.0) - 0.25, {
        f: macro_hit(f) for f in WINDOW_FRACTIONS
    }
