"""Extension bench — RRA (variable-length) vs the paper's methods.

RRA [18, 19] is the GrammarViz algorithm the paper's rule-density method
streamlines; this bench places it alongside the ensemble and the discord
baseline on two datasets, reporting average Score and HitRate. Not a paper
table — it documents how the lineage's variable-length detector fares under
the same protocol.
"""

from __future__ import annotations

from benchlib import SWEEP_CASES, corpus_for, scale_note
from repro.core.ensemble import EnsembleGrammarDetector
from repro.discord.discords import DiscordDetector
from repro.evaluation.harness import evaluate_methods_on_corpus
from repro.evaluation.tables import format_float, format_table
from repro.grammar.rra import RRADetector

RRA_DATASETS = ["TwoLeadECG", "Trace"]


def bench_extension_rra(report):
    def run():
        results = {}
        for dataset in RRA_DATASETS:
            corpus = corpus_for(dataset, SWEEP_CASES)
            factories = {
                "Ensemble": lambda window: EnsembleGrammarDetector(window, seed=0),
                "RRA": lambda window: RRADetector(window, paa_size=5, alphabet_size=5),
                "Discord": lambda window: DiscordDetector(window),
            }
            results[dataset] = evaluate_methods_on_corpus(corpus, factories)
        return results

    results = run()

    rows = []
    for dataset in RRA_DATASETS:
        for method, scores in results[dataset].items():
            rows.append(
                [
                    dataset,
                    method,
                    format_float(scores.average),
                    format_float(scores.hit_rate, 2),
                ]
            )
    table = format_table(
        ["Dataset", "Method", "avg Score", "HitRate"],
        rows,
        title="Extension: RRA (variable-length) vs ensemble vs Discord",
    )
    report(table + "\n" + scale_note(), "extension_rra.txt")

    # RRA is a plausible detector: it hits on a meaningful share of cases.
    for dataset in RRA_DATASETS:
        assert results[dataset]["RRA"].hit_rate >= 0.25, dataset
