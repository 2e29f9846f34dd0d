"""SAX discretization substrate (paper Sections 4 and 6.2).

This subpackage turns a real-valued time series into the discrete token
sequence that grammar induction consumes:

- :mod:`repro.sax.znorm` — z-normalization (offset/amplitude invariance).
- :mod:`repro.sax.paa` — Piecewise Aggregate Approximation and the
  prefix-sum FastPAA of Algorithm 2.
- :mod:`repro.sax.breakpoints` — Gaussian equiprobable breakpoint tables and
  the merged multi-resolution table of Section 6.2.2.
- :mod:`repro.sax.sax` — the SAX word of one subsequence and the MINDIST
  lower bound.
- :mod:`repro.sax.numerosity` — the numerosity-reduction strategies and the
  token record (kept words with their window offsets).
- :mod:`repro.sax.plan` — the shared multi-window discretization plan: one
  pass emits every ensemble member's PAA/symbol matrices, with the hot
  loops in native code (:mod:`repro.sax._kernel`). A series becomes
  tokens natively, never one word string per window
  (:meth:`repro.core.multiresolution.MultiResolutionDiscretizer.token_ids`).
"""

from repro.sax.alphabet import ALPHABET, indices_to_word, word_to_indices
from repro.sax.breakpoints import MultiResolutionAlphabet, gaussian_breakpoints
from repro.sax.numerosity import TokenSequence
from repro.sax.paa import CumulativeStats, paa
from repro.sax.plan import DiscretizationPlan, DiscretizationSweep
from repro.sax.sax import mindist, sax_word
from repro.sax.znorm import znorm

__all__ = [
    "ALPHABET",
    "CumulativeStats",
    "DiscretizationPlan",
    "DiscretizationSweep",
    "MultiResolutionAlphabet",
    "TokenSequence",
    "gaussian_breakpoints",
    "indices_to_word",
    "mindist",
    "paa",
    "sax_word",
    "word_to_indices",
    "znorm",
]
