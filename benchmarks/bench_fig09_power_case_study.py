"""Figure 9 / Section 7.4 — case study: fridge-freezer power usage.

Runs the ensemble with sliding window 900 (about one compressor cycle) over
a long simulated fridge-freezer trace containing the paper's two anomaly
archetypes — a distorted cycle and a spiky event — and reports the top-2
ranked candidates against the injected ground truth, plus the wall-clock
time (the paper reports about one minute for the 600k-point series).

Shape check: the two top-ranked anomalies each overlap one injected
anomaly, and both archetypes are found.
"""

from __future__ import annotations

from benchlib import FULL, scale_note
from repro.core.ensemble import EnsembleGrammarDetector
from repro.datasets.power import fridge_freezer_series
from repro.evaluation.tables import format_table
from repro.utils.timing import Timer

LENGTH = 600_000 if FULL else 120_000
WINDOW = 900


def bench_fig09_fridge_freezer(report):
    series, truths = fridge_freezer_series(length=LENGTH, seed=0)

    detector = EnsembleGrammarDetector(WINDOW, seed=0)

    def run():
        with Timer() as timer:
            candidates = detector.detect(series, k=3)
        return candidates, timer.elapsed

    candidates, elapsed = run()

    def matching_truth(candidate):
        for truth in truths:
            if (
                candidate.position < truth.position + truth.length
                and truth.position < candidate.position + candidate.length
            ):
                return truth.kind
        return "-"

    rows = [
        [
            f"top-{candidate.rank}",
            str(candidate.position),
            str(candidate.length),
            f"{candidate.score:.3f}",
            matching_truth(candidate),
        ]
        for candidate in candidates
    ]
    truth_rows = [[t.kind, str(t.position), str(t.length)] for t in truths]
    table = format_table(
        ["Candidate", "Position", "Length", "Score", "Matches injected"],
        rows,
        title=f"Figure 9: top anomalies in a {LENGTH:,}-point fridge-freezer trace",
    )
    truth_table = format_table(
        ["Injected anomaly", "Position", "Length"], truth_rows, title="Ground truth"
    )
    summary = f"detection time: {elapsed:.1f}s (paper: ~60s at 600,000 points)"
    report(table + "\n\n" + truth_table + "\n" + summary + "\n" + scale_note(), "fig09.txt")

    # Shape checks: both archetypes among the top candidates; top-2 are hits.
    matched = {matching_truth(c) for c in candidates[:2]}
    assert "-" not in matched, rows
    all_matched = {matching_truth(c) for c in candidates}
    assert {"distorted-cycle", "spiky-event"} <= all_matched, rows
