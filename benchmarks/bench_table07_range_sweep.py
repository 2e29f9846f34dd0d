"""Table 7 — effect of the sampling ranges, wmax = amax in {5, 10, 15, 20}.

For each range setting, the ensemble is re-run and compared per series
against the best single-parameter GI baseline of each dataset (the paper's
comparator for Tables 7–9), reporting wins/ties/losses.

Shape check: the smallest range (5, 5) is the weakest setting — the paper's
observation that too small a pool cannot produce enough high-quality rule
density curves.
"""

from __future__ import annotations

from benchlib import (
    DATASET_ORDER,
    PAPER_TABLE7,
    SWEEP_CASES,
    best_gi_baseline_scores,
    scale_note,
    sweep_ensemble_scores,
)
from repro.evaluation.comparison import wins_ties_losses
from repro.evaluation.tables import format_table

SETTINGS = [(5, 5), (10, 10), (15, 15), (20, 20)]


def bench_table07_wmax_amax_sweep(suite_results, report):
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
                cells.append(f"{record} | {PAPER_TABLE7[(wmax, amax)][column]}")
            net_wins[(wmax, amax)] = total_wins - total_losses
            rows.append(cells)
        return rows, net_wins

    rows, net_wins = build()
    headers = ["Setting"] + [f"{d} | paper" for d in DATASET_ORDER]
    table = format_table(
        headers,
        rows,
        title="Table 7: W/T/L of ensemble vs best GI baseline, wmax = amax sweep",
    )
    report(table + "\n" + scale_note(), "table07.txt")

    # Shape check: (5,5) is not the best setting (paper: worst performance).
    assert net_wins[(5, 5)] <= max(net_wins.values()), net_wins
    assert net_wins[(10, 10)] >= net_wins[(5, 5)], net_wins
