"""In-memory span tracing around the public calls into each layer.

The traced run wraps, from the benchmark's side only, the public functions
and methods listed in :data:`LAYER_CALLS`; nothing in the program is edited
and the wrappers are removed when the run ends. Every wrapped call records
a span ``(id, parent, name, layer, start_ns, end_ns, op)``; spans of one
benchmark operation (one ``detect``, one ``append``, one poll) share the
operation id of the root span opened by :meth:`Tracer.operation`.

A layer's self time is its spans' durations minus the part covered by their
child spans (spans nest strictly: the workloads are single-threaded). The
root span's self time is the operation time no layer span covers, reported
as ``trace.unattributed_ms``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: Layer metric base name -> the public calls timed for it, as
#: ``module:Qualified.name``. Self time lands on ``<layer>_ms``.
LAYER_CALLS = {
    "sax.sweep": (
        "repro.sax.plan:DiscretizationPlan.sweep_series",
        "repro.sax.plan:DiscretizationSweep.interval_rows",
        "repro.core.engine:SharedStreamState.sweep",
    ),
    "sax.tokenize": (
        "repro.core.multiresolution:MultiResolutionDiscretizer.token_ids",
        "repro.sax.plan:DiscretizationSweep.symbol_rows",
        "repro.sax.breakpoints:MultiResolutionAlphabet.symbols_for",
        "repro.sax.alphabet:WordInterner.intern_packed",
    ),
    "grammar.feed": (
        "repro.grammar._kernel:make_builder",
        "repro.grammar._kernel:FastSequitur.feed_many",
    ),
    "grammar.spans": ("repro.grammar._kernel:FastSequitur.occurrence_spans",),
    "grammar.density": ("repro.grammar.density:density_curve_from_token_spans",),
    "core.combine": (
        "repro.core.selection:select_by_std",
        "repro.core.selection:normalize_curve",
        "repro.core.combiners:combine_curves",
    ),
    "core.extract": ("repro.core.anomaly:extract_candidates",),
    "engine.state_extend": ("repro.core.engine:SharedStreamState.extend",),
    "streaming.member_curve": (
        "repro.core.streaming:StreamingGrammarDetector.density_curve",
    ),
}

#: Per-call counters, keyed by the timed call: ``(args, result) -> {counter: n}``.
COUNTERS = {
    "repro.grammar._kernel:FastSequitur.feed_many": lambda args, result: {
        "grammar.tokens": len(args[1])
    },
    "repro.sax.breakpoints:MultiResolutionAlphabet.symbols_for": lambda args, result: {
        "sax.windows": len(result)
    },
    "repro.sax.alphabet:WordInterner.intern_packed": lambda args, result: {
        "sax.kept": len(result)
    },
    "repro.core.streaming:StreamingGrammarDetector.density_curve": lambda args, result: {
        "streaming.live_tokens": args[0].n_tokens,
        "streaming.member_curves": 1,
    },
}


class Tracer:
    """Span recorder for one thread (the traced workloads are serial)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.operations = 0
        self._stack: list[tuple] = []  # (span_id, name, layer, start_ns, op)
        self._next_id = 0
        self._op = None

    def _enter(self, name: str, layer: str) -> None:
        self._next_id += 1
        self._stack.append((self._next_id, name, layer, time.perf_counter_ns(), self._op))

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, layer, start, op = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, parent, name, layer, start, end, op))

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its self time is unattributed."""
        self.operations += 1
        self._op = self.operations
        self._enter(name, "trace.unattributed")
        try:
            yield
        finally:
            self._exit()
            self._op = None

    def count(self, values: dict) -> None:
        for key, value in values.items():
            self.counters[key] = self.counters.get(key, 0) + int(value)

    def wrap(self, target: str, layer: str, function):
        counter = COUNTERS.get(target)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            self._enter(target, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                self.count(counter(args, result))
            return result

        return traced

    def self_ms(self, probe) -> dict[str, float]:
        """Speed-normalized self time per layer, in ms per operation.

        A span's self time is its duration minus its child spans'; each is
        scaled by ``probe`` over its operation's root span, like every
        end-to-end time.
        """
        children: dict[int, int] = {}
        roots: dict[int, tuple[int, int]] = {}
        for span_id, parent, _name, _layer, start, end, op in self.spans:
            if parent is None:
                roots[op] = (start, end)
            else:
                children[parent] = children.get(parent, 0) + end - start
        scales = {op: probe.scale(start / 1e9, end / 1e9) for op, (start, end) in roots.items()}
        totals: dict[str, float] = {}
        for span_id, _parent, _name, layer, start, end, op in self.spans:
            own = (end - start - children.get(span_id, 0)) * scales[op]
            totals[layer] = totals.get(layer, 0.0) + own
        return {layer: total / 1e6 / max(1, self.operations) for layer, total in totals.items()}

    def write(self, path: Path, header: dict) -> None:
        """Write every recorded span (kept in memory until now) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "name", "layer", "start_ns", "end_ns", "op"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "fields": fields, "spans": self.spans}, handle)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def traced_layers(tracer: Tracer):
    """Install the :data:`LAYER_CALLS` wrappers for the duration of the block.

    Methods are replaced on their class. Module-level functions are
    replaced in every loaded ``repro`` module that bound the same function
    object by name (``from x import f`` copies the reference), so calls
    through any import path are timed.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, targets in LAYER_CALLS.items():
            for target in targets:
                owner, attr = _resolve(target)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    setattr(owner, attr, tracer.wrap(target, layer, original))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(owner, attr)
                wrapper = tracer.wrap(target, layer, original)
                for name, module in list(sys.modules.items()):
                    if not (name == "repro" or name.startswith("repro.")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, probe) -> dict[str, float]:
    """The in-process per-layer metrics of a traced run (ms per operation)."""
    self_ms = tracer.self_ms(probe)
    metrics = {f"{layer}_ms": self_ms.get(layer, 0.0) for layer in LAYER_CALLS}
    counters = tracer.counters
    metrics["sax.kept_ratio"] = counters.get("sax.kept", 0) / max(1, counters.get("sax.windows", 0))
    metrics["grammar.tokens"] = counters.get("grammar.tokens", 0) / max(1, tracer.operations)
    metrics["streaming.live_tokens"] = counters.get("streaming.live_tokens", 0) / max(
        1, counters.get("streaming.member_curves", 0)
    )
    metrics["trace.unattributed_ms"] = self_ms.get("trace.unattributed", 0.0)
    return metrics
