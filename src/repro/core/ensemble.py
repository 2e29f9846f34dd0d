"""Ensemble grammar induction (paper Section 6, Algorithm 1).

Instead of committing to one ``(w, a)``, the ensemble:

1. samples ``N`` distinct ``(w, a)`` combinations uniformly from
   ``[2, wmax] x [2, amax]`` ("any w, a combination is used only once");
2. computes one rule density curve per member — via the shared
   :class:`repro.core.multiresolution.MultiResolutionDiscretizer`, which is
   backed by a :class:`repro.sax.plan.DiscretizationPlan`: prefix statistics
   are built once per series and the expensive PAA/binary-search work runs
   once per distinct ``w`` through the ``REPRO_KERNEL`` seam
   (:mod:`repro.sax._kernel`);
3. discards low-quality members: curves are ranked by standard deviation and
   only the top ``tau`` fraction kept (Section 6.1.1);
4. normalizes each survivor by its maximum — *not* min–max, so zero density
   stays zero (Section 6.1.2);
5. combines the survivors point-wise with the median (Section 6.1.3).

Anomalies are then ranked exactly as in the single-run detector: top-k
non-overlapping minima of the windowed mean of the ensemble curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.anomaly import Anomaly, extract_candidates
from repro.core.combiners import COMBINERS, combine_curves
from repro.core.engine import compute_member_curves, detect_batch, iter_detect_batch
from repro.core.executors import ExecutorOwnerMixin, MemberExecutor
from repro.core.selection import curve_std, normalize_curve, select_by_std
from repro.obs.stages import stage_timer
from repro.sax.znorm import DEFAULT_ZNORM_THRESHOLD
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import (
    ensure_time_series,
    validate_alphabet_size,
    validate_paa_size,
    validate_window,
)


@dataclass(frozen=True)
class EnsembleReport:
    """Diagnostics of one ensemble run (useful for inspection and tests).

    Attributes
    ----------
    curve:
        The final ensemble rule density curve ``d_e``.
    parameters:
        The sampled ``(w, a)`` combination of every member, in sample order.
    stds:
        Standard deviation of every member's raw curve (same order).
    kept:
        Indices (into ``parameters``) of the members that survived the
        selectivity filter, best first.
    """

    curve: np.ndarray
    parameters: tuple[tuple[int, int], ...]
    stds: tuple[float, ...]
    kept: tuple[int, ...]
    member_curves: tuple[np.ndarray, ...] = field(repr=False, default=())

    @property
    def ensemble_size(self) -> int:
        """Number of sampled members in this run."""
        return len(self.parameters)


class EnsembleGrammarDetector(ExecutorOwnerMixin):
    """Algorithm 1: the ensemble rule density curve anomaly detector.

    Parameters
    ----------
    window:
        Sliding-window length ``n``.
    max_paa_size, max_alphabet_size:
        Sampling ranges ``wmax``/``amax``; members draw from
        ``[2, wmax] x [2, amax]``. Paper default 10 for both.
    ensemble_size:
        Number of members ``N`` (paper default 50). Capped at the number of
        distinct combinations available.
    selectivity:
        Fraction ``tau`` of members kept after std ranking (paper default
        0.4; Section 7.2.5 recommends ~0.2).
    combiner:
        Point-wise combination method; the paper uses ``"median"``.
    select_members / normalize_members:
        Ablation switches for the benches; both True reproduces Algorithm 1.
    seed:
        Seed or generator controlling the parameter sampling.
    n_jobs:
        Member threads per ``detect`` when no ``executor`` is given. The
        default ``None`` uses every CPU available to the process (its
        affinity mask): the per-``w`` sweeps and then the members, each one
        native call that releases the GIL, fan out across the calling
        thread and a process-wide thread pool. ``1`` runs every member on
        the calling thread, one after another. No process is ever spawned
        for ``n_jobs``; with an ``executor`` it sizes a backend built from
        a name. Results are bitwise identical for every value; see
        :mod:`repro.core.engine`.
    executor:
        Execution backend for member and batch fan-out: a live
        :class:`~repro.core.executors.MemberExecutor` (caller owns it; the
        detector only borrows), a backend name from
        :data:`~repro.core.executors.EXECUTOR_KINDS` (the detector creates
        it lazily on first use, reuses it across ``detect`` calls — so a
        process pool spawns once, not per call — and releases it in
        :meth:`close`), or ``None`` to fall back to the ``n_jobs``
        semantics. Results are bitwise identical across backends.

    Example
    -------
    >>> import numpy as np
    >>> t = np.linspace(0, 80 * np.pi, 4000)
    >>> series = np.sin(t) + 0.05 * np.random.default_rng(0).standard_normal(4000)
    >>> series[2000:2100] *= 0.1  # damp one cycle
    >>> detector = EnsembleGrammarDetector(window=100, seed=1)
    >>> candidates = detector.detect(series, k=3)
    >>> any(1900 <= c.position <= 2100 for c in candidates)
    True
    """

    def __init__(
        self,
        window: int,
        *,
        max_paa_size: int = 10,
        max_alphabet_size: int = 10,
        ensemble_size: int = 50,
        selectivity: float = 0.4,
        combiner: str = "median",
        numerosity: str = "exact",
        select_members: bool = True,
        normalize_members: bool = True,
        znorm_threshold: float = DEFAULT_ZNORM_THRESHOLD,
        seed: RandomState = None,
        n_jobs: int | None = None,
        executor: MemberExecutor | str | None = None,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        self.window = int(window)
        self.max_paa_size = validate_paa_size(max_paa_size, self.window)
        self.max_alphabet_size = validate_alphabet_size(max_alphabet_size)
        if self.max_paa_size < 2:
            raise ValueError("max_paa_size must be at least 2 to sample from [2, wmax]")
        if ensemble_size < 1:
            raise ValueError(f"ensemble_size must be positive, got {ensemble_size}")
        if not 0.0 < selectivity <= 1.0:
            raise ValueError(f"selectivity must be in (0, 1], got {selectivity}")
        if combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {combiner!r}; expected one of {COMBINERS}")
        if n_jobs is not None and int(n_jobs) < 1:
            raise ValueError(f"n_jobs must be a positive integer or None, got {n_jobs}")
        self.ensemble_size = int(ensemble_size)
        self.selectivity = float(selectivity)
        self.combiner = combiner
        self.numerosity = numerosity
        self.select_members = bool(select_members)
        self.normalize_members = bool(normalize_members)
        self.znorm_threshold = float(znorm_threshold)
        self.n_jobs = n_jobs if n_jobs is None else int(n_jobs)
        self._init_executor(executor)
        #: The seed as given, kept for spawning per-series clones in
        #: :meth:`detect_batch`.
        self.seed = seed
        self._rng = ensure_rng(seed)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(window={self.window}, "
            f"wmax={self.max_paa_size}, amax={self.max_alphabet_size}, "
            f"N={self.ensemble_size}, tau={self.selectivity})"
        )

    def _executor_pool_size(self) -> int | None:
        # Asking for a backend by name is asking for parallelism: size the
        # pool by n_jobs, but let the do-nothing default (1) mean "every
        # core" rather than a one-worker pool.
        return None if self.n_jobs in (None, 1) else self.n_jobs

    # ------------------------------------------------------------------
    # Algorithm 1.
    # ------------------------------------------------------------------

    def sample_parameters(self, rng: np.random.Generator | None = None) -> list[tuple[int, int]]:
        """Draw ``N`` distinct ``(w, a)`` combinations uniformly.

        Combinations are drawn without replacement from
        ``[2, wmax] x [2, amax]``; when ``N`` exceeds the pool size, the
        whole pool is used (shuffled).
        """
        rng = self._rng if rng is None else rng
        w_values = np.arange(2, self.max_paa_size + 1)
        a_values = np.arange(2, self.max_alphabet_size + 1)
        pool = [(int(w), int(a)) for w in w_values for a in a_values]
        count = min(self.ensemble_size, len(pool))
        chosen = rng.choice(len(pool), size=count, replace=False)
        return [pool[int(i)] for i in chosen]

    def ensemble_report(
        self,
        series: np.ndarray,
        *,
        keep_member_curves: bool = False,
    ) -> EnsembleReport:
        """Run Algorithm 1 and return the curve plus member diagnostics."""
        series = ensure_time_series(series, name="series", min_length=2)
        validate_window(self.window, len(series))
        parameters = self.sample_parameters()
        curves = compute_member_curves(
            series,
            self.window,
            parameters,
            max_paa_size=self.max_paa_size,
            max_alphabet_size=self.max_alphabet_size,
            znorm_threshold=self.znorm_threshold,
            numerosity=self.numerosity,
            n_jobs=self.n_jobs,
            executor=self.executor,
        )
        with stage_timer("combine"):
            stds = tuple(curve_std(curve) for curve in curves)
            if self.select_members:
                kept = tuple(select_by_std(curves, self.selectivity, stds=stds))
            else:
                kept = tuple(range(len(curves)))
            if self.normalize_members:
                survivors = [normalize_curve(curves[i]) for i in kept]
            else:
                survivors = [curves[i] for i in kept]
            ensemble_curve = combine_curves(survivors, self.combiner)
        return EnsembleReport(
            curve=ensemble_curve,
            parameters=tuple(parameters),
            stds=stds,
            kept=kept,
            member_curves=tuple(curves) if keep_member_curves else (),
        )

    def density_curve(self, series: np.ndarray) -> np.ndarray:
        """The ensemble rule density curve ``d_e`` of ``series``."""
        return self.ensemble_report(series).curve

    def detect(self, series: np.ndarray, k: int = 3) -> list[Anomaly]:
        """Top-``k`` non-overlapping anomaly candidates from the ensemble curve."""
        curve = self.density_curve(series)
        return extract_candidates(curve, self.window, k, minimize=True)

    def clone_kwargs(self) -> dict:
        """Constructor kwargs reproducing this configuration (minus seed/n_jobs).

        Used by :func:`repro.core.engine.detect_batch` to build identically
        configured per-series clones in worker processes.
        """
        return {
            "window": self.window,
            "max_paa_size": self.max_paa_size,
            "max_alphabet_size": self.max_alphabet_size,
            "ensemble_size": self.ensemble_size,
            "selectivity": self.selectivity,
            "combiner": self.combiner,
            "numerosity": self.numerosity,
            "select_members": self.select_members,
            "normalize_members": self.normalize_members,
            "znorm_threshold": self.znorm_threshold,
        }

    def detect_batch(
        self,
        series_iterable,
        k: int = 3,
        *,
        n_jobs: int | None = None,
        executor=None,
        labels=None,
        seeds=None,
        return_exceptions: bool = False,
        chunksize: int = 1,
    ) -> list[list[Anomaly]]:
        """Top-``k`` anomalies of many independent series (the serving shape).

        Each series is handled by a fresh clone of this detector whose seed
        derives deterministically from ``self.seed`` (or is taken verbatim
        from ``seeds``), so results are identical whether the batch runs
        serially, across a process pool, or on any executor backend
        (``n_jobs=None`` defers to ``self.n_jobs``; ``executor=None`` defers
        to the detector's own executor). With ``return_exceptions=True`` a
        failing series yields its :class:`~repro.core.executors.BatchItemError`
        in place instead of aborting the batch. See
        :func:`repro.core.engine.detect_batch`.
        """
        executor = self.executor if executor is None else executor
        return detect_batch(
            self,
            series_iterable,
            k,
            n_jobs=n_jobs,
            executor=executor,
            labels=labels,
            seeds=seeds,
            return_exceptions=return_exceptions,
            chunksize=chunksize,
        )

    def iter_detect_batch(
        self,
        series_iterable,
        k: int = 3,
        *,
        n_jobs: int | None = None,
        executor=None,
        labels=None,
        seeds=None,
        return_exceptions: bool = False,
        chunksize: int = 1,
    ):
        """Yield ``(index, anomalies)`` per series as results complete.

        The incremental form of :meth:`detect_batch`: per-index results are
        identical, but each series is delivered the moment its worker
        finishes instead of after the whole batch. See
        :func:`repro.core.engine.iter_detect_batch`.
        """
        executor = self.executor if executor is None else executor
        return iter_detect_batch(
            self,
            series_iterable,
            k,
            n_jobs=n_jobs,
            executor=executor,
            labels=labels,
            seeds=seeds,
            return_exceptions=return_exceptions,
            chunksize=chunksize,
        )


def combine_and_detect(
    member_curves: list[np.ndarray] | tuple[np.ndarray, ...],
    window: int,
    k: int = 3,
    *,
    selectivity: float = 0.4,
    combiner: str = "median",
    select_members: bool = True,
    normalize_members: bool = True,
) -> list[Anomaly]:
    """Steps 2–4 of Algorithm 1 on pre-computed member curves.

    Given raw rule density curves (e.g. from
    ``EnsembleGrammarDetector.ensemble_report(..., keep_member_curves=True)``),
    apply std filtering, normalization, combination, and candidate
    extraction. The parameter-sweep benches use this to vary ``tau``, ``N``
    (by passing a prefix of the sampled members), and the combiner without
    re-running grammar induction.
    """
    if not member_curves:
        raise ValueError("member_curves must be non-empty")
    curves = list(member_curves)
    if select_members:
        kept = select_by_std(curves, selectivity)
    else:
        kept = list(range(len(curves)))
    if normalize_members:
        survivors = [normalize_curve(curves[i]) for i in kept]
    else:
        survivors = [curves[i] for i in kept]
    ensemble_curve = combine_curves(survivors, combiner)
    return extract_candidates(ensemble_curve, window, k, minimize=True)
