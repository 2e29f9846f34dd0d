"""Grammar-induction substrate (paper Section 5) and its applications.

- :mod:`repro.grammar.sequitur` — the linear-time Sequitur algorithm
  (digram uniqueness + rule utility) over discrete token sequences.
- :mod:`repro.grammar._kernel` — the native Sequitur arena every grammar
  is built on (the object-graph reference it is tested against lives in
  ``tests/oracles/``).
- :mod:`repro.grammar.rules` — the frozen :class:`Grammar` produced by
  induction: rules, expansions, occurrence enumeration, size metrics.
- :mod:`repro.grammar.density` — the rule density curve (Section 5.2), the
  meta time series whose minima mark anomaly candidates.
- :mod:`repro.grammar.rra` — GrammarViz's Rare Rule Anomaly algorithm
  [18, 19], the variable-length predecessor the paper's density method
  streamlines.
- :mod:`repro.grammar.motifs` — frequent-rule motif discovery, the flip
  side of grammar-based anomaly detection.
"""

from repro.grammar.density import density_from_intervals, rule_density_curve
from repro.grammar.motifs import Motif, discover_motifs, motifs_from_grammar
from repro.grammar.rra import RRADetector, RuleInterval, rule_intervals
from repro.grammar.rules import Grammar, GrammarRule, RuleOccurrence
from repro.grammar.sequitur import GenerationalSequitur, induce_grammar

__all__ = [
    "GenerationalSequitur",
    "Grammar",
    "GrammarRule",
    "Motif",
    "RRADetector",
    "RuleInterval",
    "RuleOccurrence",
    "density_from_intervals",
    "discover_motifs",
    "induce_grammar",
    "motifs_from_grammar",
    "rule_density_curve",
    "rule_intervals",
]
