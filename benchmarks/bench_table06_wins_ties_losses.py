"""Table 6 — per-series wins/ties/losses of the ensemble vs every baseline.

For each dataset and baseline, counts the test series where the ensemble's
best top-3 Score beats / ties / trails the baseline's, printed in the
paper's ``w/t/l`` cell format next to the paper's cells.
"""

from __future__ import annotations

from benchlib import DATASET_ORDER, PAPER_TABLE6, scale_note
from repro.evaluation.comparison import wins_ties_losses
from repro.evaluation.tables import format_table

BASELINES = ["GI-Random", "GI-Fix", "GI-Select", "Discord"]


def bench_table06_wins_ties_losses(suite_results, report):
    def build():
        rows = []
        records = {}
        for baseline in BASELINES:
            cells = [baseline]
            for column, dataset in enumerate(DATASET_ORDER):
                result = wins_ties_losses(
                    suite_results[dataset]["Proposed"], suite_results[dataset][baseline]
                )
                records[(baseline, dataset)] = result
                cells.append(f"{result} | {PAPER_TABLE6[baseline][column]}")
            rows.append(cells)
        return rows, records

    rows, records = build()
    headers = ["vs Baseline"] + [f"{d} | paper" for d in DATASET_ORDER]
    table = format_table(
        headers,
        rows,
        title="Table 6: Wins/ties/losses of ensemble grammar induction against all baselines",
    )
    report(table + "\n" + scale_note(), "table06.txt")

    # Shape check: against the GI variants the ensemble wins at least as
    # often as it loses on most datasets (paper: wins in more than half of
    # the series in most datasets).
    for baseline in ["GI-Random", "GI-Fix", "GI-Select"]:
        favourable = sum(
            records[(baseline, d)].wins >= records[(baseline, d)].losses
            for d in DATASET_ORDER
        )
        assert favourable >= 4, (
            f"vs {baseline}: wins>=losses on only {favourable}/6 datasets"
        )
