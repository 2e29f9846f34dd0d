"""Table 8 — effect of wmax in {5, 10, 15, 20} with amax fixed at 10.

Same comparator as Table 7 (best GI baseline per dataset). The paper's
takeaway: wmax = 5 performs worst; larger wmax values help, with the peak
depending on the dataset — a larger range for w matters more than for a.
"""

from __future__ import annotations

from benchlib import (
    DATASET_ORDER,
    PAPER_TABLE8,
    SWEEP_CASES,
    best_gi_baseline_scores,
    scale_note,
    sweep_ensemble_scores,
)
from repro.evaluation.comparison import wins_ties_losses
from repro.evaluation.tables import format_table

SETTINGS = [(5, 10), (10, 10), (15, 10), (20, 10)]


def bench_table08_wmax_sweep(suite_results, report):
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
                cells.append(f"{record} | {PAPER_TABLE8[(wmax, amax)][column]}")
            net_wins[wmax] = total_wins - total_losses
            rows.append(cells)
        return rows, net_wins

    rows, net_wins = build()
    headers = ["Setting"] + [f"{d} | paper" for d in DATASET_ORDER]
    table = format_table(
        headers,
        rows,
        title="Table 8: W/T/L of ensemble vs best GI baseline, wmax sweep (amax=10)",
    )
    report(table + "\n" + scale_note(), "table08.txt")

    # Shape check: wmax = 5 is never the strongest setting.
    assert net_wins[5] <= max(net_wins.values()), net_wins
