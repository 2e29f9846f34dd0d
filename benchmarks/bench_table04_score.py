"""Table 4 — performance evaluation by average Score.

Runs the five methods (Proposed ensemble, GI-Random, GI-Fix, GI-Select,
Discord) over the planted-anomaly corpora and reports the per-dataset
average Score (Eq. 5), next to the paper's reported values.

Shape checks (the claims of Section 7.1.4):
- the ensemble beats every single-parameter GI variant on (nearly) every
  dataset;
- the ensemble is competitive with Discord overall.

At the reduced default scale the per-case Scores of all five methods must
also equal the committed golden (``benchmarks/golden/table04_scores.json``)
exactly: a change to the detection pipeline that moves any detection shows
here by dataset, method and case.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from benchlib import (
    DATASET_ORDER,
    METHOD_ORDER,
    PAPER_TABLE4,
    SCORE_GOLDEN,
    scale_note,
    score_golden,
)
from repro.evaluation.tables import format_float, format_table


def bench_table04_average_score(suite_results, report):
    headers = ["Dataset"] + [f"{m} | paper" for m in METHOD_ORDER]
    rows = []
    averages: dict[str, dict[str, float]] = {}
    for dataset in DATASET_ORDER:
        cells = [dataset]
        averages[dataset] = {}
        for column, method in enumerate(METHOD_ORDER):
            measured = float(np.mean(suite_results[dataset][method]))
            averages[dataset][method] = measured
            cells.append(
                f"{format_float(measured)} | {format_float(PAPER_TABLE4[dataset][column])}"
            )
        rows.append(cells)
    table = format_table(
        headers, rows, title="Table 4: Performance evaluation results (average Score)"
    )
    report(table + "\n" + scale_note(), "table04.txt")

    # Shape check 1: ensemble >= each GI single-run variant on most datasets.
    for baseline in ["GI-Random", "GI-Fix", "GI-Select"]:
        better = sum(
            averages[d]["Proposed"] >= averages[d][baseline] - 1e-9
            for d in DATASET_ORDER
        )
        assert better >= 4, f"ensemble beat {baseline} on only {better}/6 datasets"
    # Shape check 2: competitive with Discord on the macro average.
    proposed_macro = np.mean([averages[d]["Proposed"] for d in DATASET_ORDER])
    discord_macro = np.mean([averages[d]["Discord"] for d in DATASET_ORDER])
    assert proposed_macro >= 0.75 * discord_macro


def bench_table04_scores_match_golden(suite_results):
    golden = json.loads(SCORE_GOLDEN.read_text())
    measured = score_golden(suite_results)
    scale = ("n_cases", "corpus_seed", "method_seed")
    if any(measured[key] != golden[key] for key in scale):
        pytest.skip(f"the golden holds the reduced default scale ({golden['n_cases']} cases)")
    expected = golden["scores"]
    diffs = []
    for dataset in DATASET_ORDER:
        for method in METHOD_ORDER:
            want, got = expected[dataset][method], measured["scores"][dataset][method]
            if len(want) != len(got):
                diffs.append(f"{dataset} {method}: {len(got)} cases, golden has {len(want)}")
                continue
            diffs.extend(
                f"{dataset} {method} case {case}: {value!r} != golden {reference!r}"
                for case, (value, reference) in enumerate(zip(got, want))
                if value != reference
            )
    assert not diffs, "per-case Scores moved off the golden:\n" + "\n".join(diffs)
