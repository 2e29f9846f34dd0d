"""Figure 1 — the parameter-selection problem on a dishwasher power trace.

Reproduces the paper's motivating experiment: a dishwasher series with one
anomalous cycle (unusually short power usage), scored by the single-run GI
detector at every (w, a) in the grid. The printed grid is the data behind
Figure 1 (bottom); the shape checks encode the figure's message — scores
vary wildly across the grid, good combinations are isolated, and the
ensemble matches the best grid cell without knowing it in advance.
"""

from __future__ import annotations

import numpy as np

from benchlib import scale_note
from repro.core.detector import GrammarAnomalyDetector
from repro.core.ensemble import EnsembleGrammarDetector
from repro.datasets.power import dishwasher_series
from repro.evaluation.metrics import best_score
from repro.evaluation.tables import format_table

GRID_W = range(2, 11)
GRID_A = range(2, 11)


def bench_fig01_parameter_sensitivity(report):
    series, anomaly = dishwasher_series(n_cycles=20, seed=0)
    window = anomaly.length

    def build():
        grid: dict[tuple[int, int], float] = {}
        for w in GRID_W:
            for a in GRID_A:
                detector = GrammarAnomalyDetector(window, w, a)
                candidates = detector.detect(series, k=3)
                grid[(w, a)] = best_score(candidates, anomaly.position, anomaly.length)
        ensemble = EnsembleGrammarDetector(window, seed=0)
        ensemble_score = best_score(
            ensemble.detect(series, k=3), anomaly.position, anomaly.length
        )
        return grid, ensemble_score

    grid, ensemble_score = build()

    rows = []
    for w in GRID_W:
        rows.append([f"w={w}"] + [f"{grid[(w, a)]:.2f}" for a in GRID_A])
    table = format_table(
        ["Score"] + [f"a={a}" for a in GRID_A],
        rows,
        title="Figure 1 (bottom): single-run GI Score per (w, a) on the dishwasher trace",
    )
    values = np.array(list(grid.values()))
    best_combo = max(grid, key=grid.get)
    summary = (
        f"best combination: w={best_combo[0]}, a={best_combo[1]} "
        f"(Score {grid[best_combo]:.2f}); grid mean {values.mean():.2f}, "
        f"grid min {values.min():.2f}; ensemble Score {ensemble_score:.2f}"
    )
    report(table + "\n" + summary + "\n" + scale_note(), "fig01.txt")

    # Shape checks: the grid is volatile (Figure 1's point), and the
    # ensemble beats the expected value of guessing a combination at random
    # (the grid mean — what GI-Random achieves on average) without knowing
    # the grid.
    assert values.max() - values.min() >= 0.3, "grid unexpectedly flat"
    assert values.min() < 0.5 * values.max() + 1e-9
    assert ensemble_score >= values.mean() - 0.05
