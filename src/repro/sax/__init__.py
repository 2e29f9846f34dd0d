"""SAX discretization substrate (paper Sections 4 and 6.2).

This subpackage turns a real-valued time series into the discrete token
sequence that grammar induction consumes:

- :mod:`repro.sax.znorm` — z-normalization (offset/amplitude invariance).
- :mod:`repro.sax.paa` — Piecewise Aggregate Approximation and the
  prefix-sum FastPAA of Algorithm 2.
- :mod:`repro.sax.breakpoints` — Gaussian equiprobable breakpoint tables and
  the merged multi-resolution table of Section 6.2.2.
- :mod:`repro.sax.sax` — SAX words, vectorized sliding-window discretization,
  and the MINDIST lower bound.
- :mod:`repro.sax.numerosity` — numerosity reduction with recorded offsets.
- :mod:`repro.sax.plan` — the shared multi-window discretization plan: one
  pass emits every ensemble member's PAA/symbol matrices, with the hot
  loops in native code (:mod:`repro.sax._kernel`).
"""

from repro.sax.alphabet import ALPHABET, indices_to_word, word_to_indices
from repro.sax.breakpoints import MultiResolutionAlphabet, gaussian_breakpoints
from repro.sax.numerosity import TokenSequence, expand_tokens, numerosity_reduction
from repro.sax.paa import CumulativeStats, paa
from repro.sax.plan import DiscretizationPlan, DiscretizationSweep
from repro.sax.sax import discretize, mindist, sax_word
from repro.sax.znorm import znorm

__all__ = [
    "ALPHABET",
    "CumulativeStats",
    "DiscretizationPlan",
    "DiscretizationSweep",
    "MultiResolutionAlphabet",
    "TokenSequence",
    "discretize",
    "expand_tokens",
    "gaussian_breakpoints",
    "indices_to_word",
    "mindist",
    "numerosity_reduction",
    "paa",
    "sax_word",
    "word_to_indices",
    "znorm",
]
