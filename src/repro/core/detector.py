"""Single-run grammar-induction anomaly detector (paper Section 5).

The GrammarViz-style pipeline with one fixed ``(w, a)``:

1. sliding-window SAX discretization,
2. numerosity reduction,
3. Sequitur grammar induction,
4. rule density curve,
5. top-k non-overlapping minima of the windowed mean density.

This detector is both the building block of the ensemble (each member is one
such run) and the basis of the GI-Random / GI-Fix / GI-Select baselines.
Its density curve is literally a one-member ensemble: steps 1–4 run as the
ensemble member's one native call
(:func:`repro.core.engine.compute_member_curves` with the single pair
``(w, a)``), so it equals that member's curve byte for byte.
:meth:`GrammarAnomalyDetector.tokenize` and
:meth:`GrammarAnomalyDetector.grammar` (and RRA and motif discovery) feed
the member's native token ids to a native Sequitur builder, with one word
string per distinct token, never one per window.
"""

from __future__ import annotations

import numpy as np

from repro.core.anomaly import Anomaly, extract_candidates
from repro.core.engine import compute_member_curves
from repro.core.executors import StatelessBatchMixin
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.grammar._kernel import make_builder
from repro.grammar.rules import Grammar
from repro.sax.alphabet import index_matrix_to_words
from repro.sax.numerosity import STRATEGIES, TokenSequence
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD
from repro.utils.validation import validate_alphabet_size, validate_paa_size


class GrammarAnomalyDetector(StatelessBatchMixin):
    """Grammar-induction anomaly detection with fixed discretization parameters.

    Parameters
    ----------
    window:
        Sliding-window length ``n`` (the approximate anomaly length).
    paa_size:
        PAA size ``w`` — the SAX word length.
    alphabet_size:
        SAX alphabet size ``a``.
    numerosity:
        Numerosity-reduction strategy, ``"exact"`` (paper) or ``"none"``.
    znorm_threshold:
        Constant-window guard for the discretization stage.

    Example
    -------
    >>> import numpy as np
    >>> t = np.linspace(0, 60 * np.pi, 3000)
    >>> series = np.sin(t)
    >>> series[1500:1550] = 0.0  # flatten one half-cycle
    >>> detector = GrammarAnomalyDetector(window=100, paa_size=4, alphabet_size=4)
    >>> anomalies = detector.detect(series, k=3)
    >>> len(anomalies) <= 3
    True
    """

    def __init__(
        self,
        window: int,
        paa_size: int = 4,
        alphabet_size: int = 4,
        *,
        numerosity: str = "exact",
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        self.window = int(window)
        self.paa_size = validate_paa_size(paa_size, self.window)
        self.alphabet_size = validate_alphabet_size(alphabet_size)
        if numerosity not in STRATEGIES:
            raise ValueError(f"unknown numerosity {numerosity!r}; expected one of {STRATEGIES}")
        self.numerosity = numerosity
        self.znorm_threshold = float(znorm_threshold)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(window={self.window}, paa_size={self.paa_size}, "
            f"alphabet_size={self.alphabet_size})"
        )

    def tokenize(self, series: np.ndarray) -> TokenSequence:
        """Discretize and numerosity-reduce ``series``."""
        return self._induce(series)[1]

    def grammar(self, series: np.ndarray) -> Grammar:
        """Induce the Sequitur grammar of the discretized series."""
        return self._induce(series)[0]

    def _induce(self, series: np.ndarray) -> tuple[Grammar, TokenSequence]:
        """The grammar of ``series`` and the token sequence it was induced from.

        The member's native token ids are fed to a native Sequitur builder;
        the word of each id is decoded once, from the symbol row of the
        id's first kept window, to freeze the grammar and name the tokens.
        """
        discretizer = MultiResolutionDiscretizer(
            series,
            self.window,
            self.paa_size,
            self.alphabet_size,
            znorm_threshold=self.znorm_threshold,
            numerosity=self.numerosity,
        )
        offsets, ids = discretizer.token_ids(self.paa_size, self.alphabet_size)
        _, first_kept = np.unique(ids, return_index=True)
        vocabulary = index_matrix_to_words(
            discretizer.alphabet_table.symbols_for(
                discretizer.interval_matrix(self.paa_size)[offsets[first_kept]],
                self.alphabet_size,
            )
        )
        builder = make_builder()
        builder.feed_many(ids)
        words = tuple(vocabulary[token] for token in ids.tolist())
        tokens = TokenSequence(words, offsets, discretizer.n_windows, self.window)
        return builder.freeze(vocabulary), tokens

    def density_curve(self, series: np.ndarray) -> np.ndarray:
        """Rule density curve of ``series`` (length ``len(series)``): the
        ensemble member ``(paa_size, alphabet_size)``'s one native call."""
        return compute_member_curves(
            series,
            self.window,
            [(self.paa_size, self.alphabet_size)],
            max_paa_size=self.paa_size,
            max_alphabet_size=self.alphabet_size,
            znorm_threshold=self.znorm_threshold,
            numerosity=self.numerosity,
        ).curves[0]

    def detect(self, series: np.ndarray, k: int = 3) -> list[Anomaly]:
        """Top-``k`` non-overlapping low-density windows, most anomalous first."""
        curve = self.density_curve(series)
        return extract_candidates(curve, self.window, k, minimize=True)
