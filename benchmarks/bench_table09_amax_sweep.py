"""Table 9 — effect of amax in {5, 10, 15, 20} with wmax fixed at 10.

Same comparator as Tables 7–8. The paper's takeaway: amax matters less
than wmax — settings 10/15/20 produce very similar results, and even
amax = 5 is only subpar on some datasets.
"""

from __future__ import annotations


from benchlib import (
    DATASET_ORDER,
    PAPER_TABLE9,
    SWEEP_CASES,
    best_gi_baseline_scores,
    scale_note,
    sweep_ensemble_scores,
)
from repro.evaluation.comparison import wins_ties_losses
from repro.evaluation.tables import format_table

SETTINGS = [(10, 5), (10, 10), (10, 15), (10, 20)]


def bench_table09_amax_sweep(suite_results, report):
    def build():
        rows = []
        net_wins = {}
        for wmax, amax in SETTINGS:
            cells = [f"amax={amax}, wmax={wmax}"]
            total_wins = total_losses = 0
            for column, dataset in enumerate(DATASET_ORDER):
                ensemble = sweep_ensemble_scores(
                    dataset, max_paa_size=wmax, max_alphabet_size=amax
                )
                baseline = best_gi_baseline_scores(suite_results, dataset)[:SWEEP_CASES]
                record = wins_ties_losses(ensemble, baseline)
                total_wins += record.wins
                total_losses += record.losses
                cells.append(f"{record} | {PAPER_TABLE9[(wmax, amax)][column]}")
            net_wins[amax] = total_wins - total_losses
            rows.append(cells)
        return rows, net_wins

    rows, net_wins = build()
    headers = ["Setting"] + [f"{d} | paper" for d in DATASET_ORDER]
    table = format_table(
        headers,
        rows,
        title="Table 9: W/T/L of ensemble vs best GI baseline, amax sweep (wmax=10)",
    )
    report(table + "\n" + scale_note(), "table09.txt")

    # Shape check: amax in {10, 15, 20} produce similar results (the spread
    # of their net wins is modest relative to the number of comparisons).
    large = [net_wins[a] for a in (10, 15, 20)]
    assert max(large) - min(large) <= 2 * SWEEP_CASES, net_wins
