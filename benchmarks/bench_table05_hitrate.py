"""Table 5 — performance evaluation by HitRate.

HitRate is the fraction of test series where any of the method's top-3
candidates overlaps the planted anomaly (Score > 0). Reported per dataset
for all five methods, next to the paper's values.
"""

from __future__ import annotations

import numpy as np

from benchlib import (
    DATASET_ORDER,
    METHOD_ORDER,
    PAPER_TABLE5,
    scale_note,
)
from repro.evaluation.metrics import hit_rate
from repro.evaluation.tables import format_float, format_table


def bench_table05_hitrate(suite_results, report):
    def build():
        rows = []
        rates: dict[str, dict[str, float]] = {}
        for dataset in DATASET_ORDER:
            cells = [dataset]
            rates[dataset] = {}
            for column, method in enumerate(METHOD_ORDER):
                measured = hit_rate(suite_results[dataset][method])
                rates[dataset][method] = measured
                cells.append(
                    f"{format_float(measured, 2)} | {format_float(PAPER_TABLE5[dataset][column], 2)}"
                )
            rows.append(cells)
        return rows, rates

    rows, rates = build()
    headers = ["Dataset"] + [f"{m} | paper" for m in METHOD_ORDER]
    table = format_table(
        headers, rows, title="Table 5: Performance evaluation results (HitRate)"
    )
    report(table + "\n" + scale_note(), "table05.txt")

    # Shape check: the ensemble's HitRate is top-2 among all methods on most
    # datasets (the paper: highest or second-highest on every dataset).
    top2 = 0
    for dataset in DATASET_ORDER:
        ordering = sorted(rates[dataset].values(), reverse=True)
        if rates[dataset]["Proposed"] >= ordering[1] - 1e-9:
            top2 += 1
    assert top2 >= 4, f"ensemble HitRate in top-2 on only {top2}/6 datasets"
    # And it never collapses: macro HitRate stays high.
    macro = np.mean([rates[d]["Proposed"] for d in DATASET_ORDER])
    assert macro >= 0.6
