"""Corpus evaluation runners (the engine behind every accuracy bench).

The flow mirrors Section 7.1: per dataset, generate a corpus of planted
test series, run each method's detector (window = planted instance length
unless overridden), collect each case's best top-3 Score, and aggregate
into average Score / HitRate / win-tie-loss records.

Detectors are created per *corpus* via a factory (``window -> detector``)
so stateful baselines (GI-Random's parameter stream) behave as in the
paper: fresh randomness per series, reproducible per run.

Method comparisons parallelize over one shared executor
(:mod:`repro.core.executors`): each ``(dataset, method)`` pair is one task
that evaluates its corpus *sequentially* with its own detector, exactly as
the serial path does — so stateful parameter streams keep their in-order
semantics and results are identical across backends. Detectors are built in
the parent (factories may be closures) and pickled into process workers,
and the corpus travels by pickle once per task — a deliberate trade-off:
corpora are evaluation-sized, and sharing structured ``AnomalyTestCase``
records would need more machinery than the engine's flat-series path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.core.executors import MemberExecutor, open_executor
from repro.datasets.planting import AnomalyTestCase
from repro.evaluation.metrics import average_score, best_score, hit_rate


class _Detector(Protocol):
    def detect(self, series: np.ndarray, k: int = 3) -> list:
        ...


#: A factory mapping a window length to a ready detector.
DetectorFactory = Callable[[int], _Detector]


@dataclass(frozen=True)
class MethodScores:
    """Per-case best Scores of one method on one corpus."""

    method: str
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.scores:
            raise ValueError("a MethodScores needs at least one case")

    @property
    def average(self) -> float:
        """The paper's "average Score" (Table 4 cells)."""
        return average_score(self.scores)

    @property
    def hit_rate(self) -> float:
        """The paper's HitRate (Table 5 cells)."""
        return hit_rate(self.scores)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.scores, dtype=np.float64)


def evaluate_detector(
    detector: _Detector,
    cases: Sequence[AnomalyTestCase],
    k: int = 3,
) -> list[float]:
    """Best top-``k`` Score of one detector on each case."""
    results: list[float] = []
    for case in cases:
        anomalies = detector.detect(case.series, k)
        results.append(best_score(anomalies, case.gt_location, case.gt_length))
    return results


def _corpus_window(cases: Sequence[AnomalyTestCase], window: int | None) -> int:
    """The corpus' sliding window: explicit, or the shared ground-truth length."""
    if not cases:
        raise ValueError("empty corpus")
    if window is not None:
        return int(window)
    lengths = {case.gt_length for case in cases}
    if len(lengths) != 1:
        raise ValueError(
            f"corpus has mixed ground-truth lengths {sorted(lengths)}; "
            "pass an explicit window"
        )
    return lengths.pop()


def _evaluate_method_task(payload) -> list[float]:
    """Worker: evaluate one ready detector on one corpus, sequentially.

    The whole corpus stays in one task so stateful detectors (GI-Random's
    parameter stream) see the cases in the exact order the serial path
    would — which is what makes executor results identical to serial ones.
    """
    detector, cases, k = payload
    return evaluate_detector(detector, cases, k)


def _close_detectors(detectors) -> None:
    """Release any detector-owned executors (factory detectors are ours)."""
    for detector in detectors:
        close = getattr(detector, "close", None)
        if close is not None:
            close()


def _prepare_for_pool(detector, pool_kind: str):
    """Make a factory-built detector safe to ship into a pooled task.

    Detectors configured with ``n_jobs`` other than 1 (the ensemble's
    default ``None`` fans members out over every CPU) or their own executor
    would run a member pool per ``detect()`` call *inside* each harness
    worker — nested pools and an oversubscribed machine (and, under the
    thread backend, pools nobody ever closes). The harness owns these instances
    (the factory contract is to build a *fresh* detector per call — the
    harness configures and closes them), so force member execution fully
    serial whenever the harness itself is the parallel layer. Results are
    unchanged: member curves are identical across worker counts.
    """
    if pool_kind != "serial":
        if getattr(detector, "n_jobs", 1) != 1:
            detector.n_jobs = 1
        # Peek at the fields, not the lazy `executor` property (which would
        # build the very pool we're avoiding); close() drops spec and pool.
        if getattr(detector, "_executor", None) is not None or getattr(
            detector, "_executor_spec", None
        ) is not None:
            detector.close()
    return detector


def evaluate_methods_on_corpus(
    cases: Sequence[AnomalyTestCase],
    factories: Mapping[str, DetectorFactory],
    *,
    k: int = 3,
    window: int | None = None,
    executor: MemberExecutor | str | None = None,
) -> dict[str, MethodScores]:
    """Run every method on a corpus and collect per-case Scores.

    Parameters
    ----------
    cases:
        The corpus (all cases must share one ground-truth length unless an
        explicit ``window`` is given).
    factories:
        Method name -> detector factory.
    k:
        Candidates per method (paper: top-3, non-overlapping).
    window:
        Sliding-window length; defaults to the corpus ground-truth length
        (the paper's ``n = na`` setting). Tables 13/14 pass fractions of it.
    executor:
        Optional :class:`~repro.core.executors.MemberExecutor` (or backend
        name) to spread the methods across; each method's corpus is still
        evaluated sequentially inside one task, so results are identical to
        the serial path.
    """
    window = _corpus_window(cases, window)
    if executor is None:
        results: dict[str, MethodScores] = {}
        for name, factory in factories.items():
            detector = factory(window)
            try:
                scores = evaluate_detector(detector, cases, k)
            finally:
                _close_detectors([detector])
            results[name] = MethodScores(name, tuple(scores))
        return results
    names = list(factories)
    with open_executor(executor) as pool:
        # Detectors are built here in serial order (factories may be
        # closures or share construction-time randomness) and shipped to
        # workers ready-made.
        payloads = [
            (_prepare_for_pool(factories[name](window), pool.kind), tuple(cases), k)
            for name in names
        ]
        try:
            score_lists = pool.map(_evaluate_method_task, payloads)
        finally:
            _close_detectors(payload[0] for payload in payloads)
    return {
        name: MethodScores(name, tuple(scores))
        for name, scores in zip(names, score_lists)
    }


def evaluate_methods(
    corpora: Mapping[str, Sequence[AnomalyTestCase]],
    factories: Mapping[str, DetectorFactory],
    *,
    k: int = 3,
    executor: MemberExecutor | str | None = None,
) -> dict[str, dict[str, MethodScores]]:
    """Run every method on every dataset corpus: ``{dataset: {method: scores}}``.

    With an ``executor``, every ``(dataset, method)`` pair becomes one task
    and the whole comparison runs through a single shared pool — the paper's
    five-method suite saturates the machine instead of running dataset by
    dataset. Results are identical to the serial path.
    """
    if executor is None:
        return {
            dataset: evaluate_methods_on_corpus(cases, factories, k=k)
            for dataset, cases in corpora.items()
        }
    pairs: list[tuple[str, str]] = []
    payloads = []
    with open_executor(executor) as pool:
        for dataset, cases in corpora.items():
            window = _corpus_window(cases, None)
            for name, factory in factories.items():
                pairs.append((dataset, name))
                payloads.append(
                    (_prepare_for_pool(factory(window), pool.kind), tuple(cases), k)
                )
        try:
            score_lists = pool.map(_evaluate_method_task, payloads)
        finally:
            _close_detectors(payload[0] for payload in payloads)
    results: dict[str, dict[str, MethodScores]] = {dataset: {} for dataset in corpora}
    for (dataset, name), scores in zip(pairs, score_lists):
        results[dataset][name] = MethodScores(name, tuple(scores))
    return results
