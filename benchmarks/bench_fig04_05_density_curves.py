"""Figures 4 & 5 — rule density curves on an ECG series.

Figure 4: an ECG series and its rule density curve, whose minimum marks the
anomalous beat. Figure 5: density curves from different (w, a) values,
ranked by standard deviation — the top-ranked curves localize the anomaly,
the bottom-ranked ones do not (the rationale for Algorithm 1's member
filter). Both are rendered as sparklines with the quantitative checks the
figures make visually.
"""

from __future__ import annotations

import numpy as np

from benchlib import scale_note
from repro.core.anomaly import windowed_means
from repro.core.detector import GrammarAnomalyDetector
from repro.datasets.planting import make_test_case
from repro.datasets.ucr_like import DATASETS
from repro.evaluation.tables import format_table
from repro.utils.sparkline import sparkline

MEMBERS = [(5, 5), (7, 4), (4, 8), (3, 3), (9, 9), (2, 2)]


def bench_fig04_05_density_curves(report):
    case = make_test_case(DATASETS["TwoLeadECG"], seed=3)
    window = case.gt_length

    def run():
        members = []
        for w, a in MEMBERS:
            curve = GrammarAnomalyDetector(window, w, a).density_curve(case.series)
            trough = int(np.argmin(windowed_means(curve, window)))
            members.append(((w, a), curve, float(np.std(curve)), trough))
        members.sort(key=lambda item: -item[2])
        return members

    members = run()

    lines = [
        "Figure 4: ECG test series and one rule density curve",
        f"  series : {sparkline(case.series, 64)}",
        f"  density: {sparkline(members[0][1], 64)}   (w={members[0][0][0]}, a={members[0][0][1]})",
        f"  ground-truth anomaly at {case.gt_location} (length {case.gt_length})",
        "",
    ]
    rows = []
    for rank, ((w, a), curve, std, trough) in enumerate(members, start=1):
        hit = abs(trough - case.gt_location) <= case.gt_length
        rows.append(
            [
                f"#{rank}",
                f"({w},{a})",
                f"{std:.2f}",
                str(trough),
                "yes" if hit else "no",
                sparkline(curve, 40),
            ]
        )
    table = format_table(
        ["std rank", "(w,a)", "std", "trough", "localizes?", "curve"],
        rows,
        title="Figure 5: member density curves ranked by standard deviation",
    )
    report("\n".join(lines) + table + "\n" + scale_note(), "fig04_05.txt")

    # Shape checks: the top-std member localizes the anomaly; the set of
    # localizing members is concentrated at the top of the std ranking
    # (the paper's Figure 5 shows top-2 localizing, bottom-2 not).
    top_member = members[0]
    assert abs(top_member[3] - case.gt_location) <= case.gt_length
    hits = [abs(m[3] - case.gt_location) <= case.gt_length for m in members]
    first_half_hits = sum(hits[: len(hits) // 2])
    second_half_hits = sum(hits[len(hits) // 2 :])
    assert first_half_hits >= second_half_hits
