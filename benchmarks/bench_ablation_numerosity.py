"""Ablation — numerosity reduction on/off (Section 4.2).

The paper motivates numerosity reduction by the explosion of trivial-match
rules without it. This ablation runs the single-run GI detector with and
without reduction and reports both accuracy and grammar compactness.

Shape checks: without reduction the grammar blows up (far more symbols),
and accuracy does not improve for the cost.
"""

from __future__ import annotations

import numpy as np

from benchlib import SWEEP_CASES, corpus_for, scale_note
from repro.core.detector import GrammarAnomalyDetector
from repro.evaluation.metrics import best_score
from repro.evaluation.tables import format_float, format_table

ABLATION_DATASETS = ["TwoLeadECG", "Trace"]


def bench_ablation_numerosity(report):
    def run():
        results = {}
        for dataset in ABLATION_DATASETS:
            corpus = corpus_for(dataset, SWEEP_CASES)
            window = corpus[0].gt_length
            scores = {"exact": [], "none": []}
            sizes = {"exact": [], "none": []}
            for case in corpus:
                for strategy in ("exact", "none"):
                    detector = GrammarAnomalyDetector(
                        window, paa_size=5, alphabet_size=5, numerosity=strategy
                    )
                    candidates = detector.detect(case.series, k=3)
                    scores[strategy].append(
                        best_score(candidates, case.gt_location, case.gt_length)
                    )
                    sizes[strategy].append(detector.grammar(case.series).grammar_size())
            results[dataset] = (scores, sizes)
        return results

    results = run()

    rows = []
    for dataset in ABLATION_DATASETS:
        scores, sizes = results[dataset]
        rows.append(
            [
                dataset,
                format_float(float(np.mean(scores["exact"]))),
                format_float(float(np.mean(scores["none"]))),
                f"{np.mean(sizes['exact']):.0f}",
                f"{np.mean(sizes['none']):.0f}",
            ]
        )
    table = format_table(
        ["Dataset", "Score (exact NR)", "Score (no NR)", "grammar size (exact)", "grammar size (none)"],
        rows,
        title="Ablation: numerosity reduction on/off (single-run GI, w=5, a=5)",
    )
    report(table + "\n" + scale_note(), "ablation_numerosity.txt")

    for dataset in ABLATION_DATASETS:
        scores, sizes = results[dataset]
        # Without reduction the grammar is dramatically larger...
        assert np.mean(sizes["none"]) > 2.0 * np.mean(sizes["exact"]), dataset
        # ...and accuracy is no better than with reduction (macro).
    macro_exact = float(
        np.mean([np.mean(results[d][0]["exact"]) for d in ABLATION_DATASETS])
    )
    macro_none = float(
        np.mean([np.mean(results[d][0]["none"]) for d in ABLATION_DATASETS])
    )
    assert macro_exact >= macro_none - 0.1, (macro_exact, macro_none)
