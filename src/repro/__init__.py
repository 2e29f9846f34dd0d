"""repro — Ensemble Grammar Induction for Time Series Anomaly Detection.

A full reproduction of Gao, Lin & Brif, *"Ensemble Grammar Induction For
Detecting Anomalies in Time Series"* (EDBT 2020), including every substrate
the paper builds on: SAX discretization with fast multi-resolution word
computation, Sequitur grammar induction, rule density curves, matrix-profile
discord discovery (STOMP/STAMP/HOTSAX), the paper's synthetic evaluation
corpora, and the complete evaluation harness.

Quickstart
----------
>>> import numpy as np
>>> from repro import EnsembleGrammarDetector
>>> t = np.linspace(0, 80 * np.pi, 4000)
>>> series = np.sin(t)
>>> series[2000:2100] *= 0.1  # plant an anomaly
>>> detector = EnsembleGrammarDetector(window=100, seed=0)
>>> top = detector.detect(series, k=3)[0]
>>> abs(top.position - 2000) < 150
True

Package map
-----------
- :mod:`repro.core` — the ensemble detector (Algorithm 1) and the
  single-run grammar-induction detector it generalizes.
- :mod:`repro.sax` — z-normalization, PAA/FastPAA, breakpoints, SAX words,
  numerosity reduction.
- :mod:`repro.grammar` — Sequitur and the rule density curve.
- :mod:`repro.discord` — matrix profile (brute/MASS/STAMP/STOMP) and HOTSAX.
- :mod:`repro.datasets` — synthetic UCR-like datasets, planting harness,
  appliance power simulators, scalability generators, real-UCR loader.
- :mod:`repro.evaluation` — Score/HitRate metrics, baselines, corpus runner.
"""

from repro.core import (
    Anomaly,
    AnomalyDetector,
    BatchItemError,
    ClusterExecutor,
    EnsembleGrammarDetector,
    EnsembleReport,
    GrammarAnomalyDetector,
    MemberExecutor,
    MultiResolutionDiscretizer,
    ProcessExecutor,
    SerialExecutor,
    StreamingEnsembleDetector,
    StreamingGrammarDetector,
    ThreadExecutor,
    as_executor,
)
from repro.discord import DiscordDetector, HotSaxDetector, hotsax_discords, matrix_profile_stomp
from repro.grammar import (
    Grammar,
    RRADetector,
    discover_motifs,
    induce_grammar,
    rule_density_curve,
)
from repro.sax import discretize, numerosity_reduction, sax_word

__version__ = "1.0.0"

__all__ = [
    "Anomaly",
    "AnomalyDetector",
    "BatchItemError",
    "ClusterExecutor",
    "DiscordDetector",
    "EnsembleGrammarDetector",
    "EnsembleReport",
    "Grammar",
    "GrammarAnomalyDetector",
    "HotSaxDetector",
    "MemberExecutor",
    "MultiResolutionDiscretizer",
    "ProcessExecutor",
    "RRADetector",
    "SerialExecutor",
    "StreamingEnsembleDetector",
    "StreamingGrammarDetector",
    "ThreadExecutor",
    "__version__",
    "as_executor",
    "discover_motifs",
    "discretize",
    "hotsax_discords",
    "induce_grammar",
    "matrix_profile_stomp",
    "numerosity_reduction",
    "rule_density_curve",
    "sax_word",
]
