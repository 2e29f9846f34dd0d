"""Section 6.2.3 — the multi-resolution discretization speedup.

The paper accelerates ensemble discretization two ways: prefix-sum FastPAA
(Algorithm 2) and the merged-breakpoint symbol matrix that yields all
alphabet resolutions from one binary search. This bench measures the end
effect: producing the numerosity-reduced token sequences for the full
(w, a) grid via the shared MultiResolutionDiscretizer — whose PAA and
interval matrices come from one :class:`repro.sax.plan.DiscretizationPlan`
sweep of native passes, and whose tokens are ids from one native pass per
member — versus discretizing words from scratch per combination.

Shape check: the shared path is substantially faster than the naive path
(the asymptotic claim is O(w_max^2 log a_max) vs O(n w_max a_max + ...)).
"""

from __future__ import annotations

from benchlib import scale_note
from repro.core.multiresolution import MultiResolutionDiscretizer
from repro.datasets.generators import synthetic_ecg
from repro.evaluation.tables import format_table
from repro.sax.numerosity import numerosity_reduction
from repro.sax.sax import discretize
from repro.utils.timing import Timer

LENGTH = 20_000
WINDOW = 200
WMAX = 10
AMAX = 10


def _naive(series) -> float:
    with Timer() as timer:
        for w in range(2, WMAX + 1):
            for a in range(2, AMAX + 1):
                words = discretize(series, WINDOW, w, a)
                numerosity_reduction(words, WINDOW)
    return timer.elapsed


def _shared(series) -> float:
    with Timer() as timer:
        discretizer = MultiResolutionDiscretizer(series, WINDOW, WMAX, AMAX)
        for w in range(2, WMAX + 1):
            for a in range(2, AMAX + 1):
                discretizer.token_ids(w, a)
    return timer.elapsed


def bench_discretization_speedup(benchmark, report):
    series = synthetic_ecg(LENGTH, seed=0)

    # Warm caches once so the timed naive/shared comparison is fair.
    naive_time = _naive(series)
    shared_time = benchmark.pedantic(lambda: _shared(series), rounds=1, iterations=1)

    speedup = naive_time / max(shared_time, 1e-9)
    table = format_table(
        ["Path", "Grid", "Time (s)"],
        [
            ["naive per-(w,a) SAX", f"{WMAX - 1}x{AMAX - 1}", f"{naive_time:.3f}"],
            ["shared multi-resolution", f"{WMAX - 1}x{AMAX - 1}", f"{shared_time:.3f}"],
        ],
        title=(
            f"Section 6.2.3: discretizing a {LENGTH:,}-point series "
            f"(window {WINDOW}) at every (w, a)"
        ),
    )
    report(table + f"\nspeedup: {speedup:.1f}x\n" + scale_note(), "speedup.txt")

    # Equivalence is covered by unit tests; here assert the speed claim.
    assert speedup > 1.5, f"expected a clear speedup, got {speedup:.2f}x"
