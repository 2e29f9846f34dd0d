"""The paper's core contribution: grammar-induction anomaly detection and
its ensemble variant (Sections 5–6).

- :mod:`repro.core.anomaly` — anomaly records, candidate extraction from a
  density curve, and the detector protocol shared by all methods.
- :mod:`repro.core.detector` — single-run grammar-induction detector
  (discretize → Sequitur → rule density → rank minima).
- :mod:`repro.core.multiresolution` — shared-prefix-sum multi-resolution
  discretizer (Section 6.2) that the ensemble's members reuse.
- :mod:`repro.core.selection` — std-based member filtering and max
  normalization (Sections 6.1.1–6.1.2).
- :mod:`repro.core.combiners` — median/mean/max point-wise combination
  (Section 6.1.3).
- :mod:`repro.core.ensemble` — Algorithm 1, the ensemble rule density curve
  detector.
- :mod:`repro.core.executors` — the pluggable execution backends
  (serial/thread/process) with shared-memory series passing and reusable
  pools.
- :mod:`repro.core.cluster` — the cross-machine backend behind the same
  interface: the stdlib TCP cluster executor (scheduler + ``repro worker``
  fleet).
- :mod:`repro.core.engine` — the execution engine: shared stream state for
  streaming ensembles, executor-driven member execution, and the
  :func:`~repro.core.engine.detect_batch` /
  :func:`~repro.core.engine.iter_detect_batch` fan-out over independent
  series.
"""

from repro.core.anomaly import Anomaly, AnomalyDetector, extract_candidates
from repro.core.combiners import combine_curves
from repro.core.detector import GrammarAnomalyDetector
from repro.core.engine import (
    EVICTION_POLICIES,
    BatchItemError,
    SharedStreamState,
    detect_batch,
    detect_many,
    iter_detect_batch,
)
from repro.core.cluster import ClusterExecutor
from repro.core.ensemble import EnsembleGrammarDetector, EnsembleReport, combine_and_detect
from repro.core.executors import (
    EXECUTOR_KINDS,
    EXECUTOR_SPECS,
    MemberExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    as_executor,
)
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.core.selection import normalize_curve, select_by_std
from repro.core.streaming import StreamingEnsembleDetector, StreamingGrammarDetector

__all__ = [
    "Anomaly",
    "AnomalyDetector",
    "BatchItemError",
    "ClusterExecutor",
    "EVICTION_POLICIES",
    "EXECUTOR_KINDS",
    "EXECUTOR_SPECS",
    "EnsembleGrammarDetector",
    "EnsembleReport",
    "GrammarAnomalyDetector",
    "MemberExecutor",
    "MultiResolutionDiscretizer",
    "ProcessExecutor",
    "SerialExecutor",
    "SharedStreamState",
    "StreamingEnsembleDetector",
    "StreamingGrammarDetector",
    "ThreadExecutor",
    "as_executor",
    "combine_and_detect",
    "combine_curves",
    "detect_batch",
    "detect_many",
    "extract_candidates",
    "iter_detect_batch",
    "normalize_curve",
    "select_by_std",
]
