"""End-to-end benchmark of the repro detector: one command, three workloads.

Run from the root of a source checkout (the benchmark imports ``src/``)::

    python3 perfbench/run.py --workload batch_corpus --seed 1 --seconds 20 --trace 0

Workloads (each module's docstring says why it was chosen, which layers it
loads and bypasses, and which layer metric should move which end-to-end
metric on it):

- ``batch_corpus`` — ``EnsembleGrammarDetector.detect`` over the paper's
  planted corpus, closed loop (``batch_corpus.py``);
- ``stream_ingest`` — bounded sliding ``StreamingEnsembleDetector``
  sessions, append-heavy, in process (``stream_ingest.py``);
- ``served_mix`` — one closed-loop client sending detect/append/poll
  through ``repro router`` to one ``repro serve --executor process`` node
  with auto-checkpoints (``served_mix.py``).

End-to-end metrics (``--trace 0``), the same definitions on every workload:

- ``setup_s``: median of five full set-ups. In process: a fresh
  interpreter importing the program, the inputs, the detectors and one
  warm-up call. Served: start node and router, wait for ``/v1/healthz`` on
  both, create the sessions, warm-up requests.
- ``success_ratio``: 1 - failed / attempted, where failed counts failed or
  refused operations plus correctness mismatches (a failure ratio inverted,
  so the metric is never 0).
- ``points_per_s``: points carried by successful operations over their
  summed time.
- ``hit_rate``: share of top-1 candidates that overlap a planted anomaly.
- ``detect_p50_ms``, ``detect_p90_ms``: latency of the call that returns
  ranked anomalies (batch ``detect``, the streaming poll, served
  ``POST /v1/detect``). p90 is the highest percentile with ten samples
  beyond it on every workload (``batch_corpus`` makes about 100 calls).
- ``peak_rss_mb``: peak resident memory of the processes doing the work.

Every time is speed-normalized against a reference kernel sampled next to
it (see ``common.SpeedProbe``): the shared machine this was written on
changes speed by up to 1.7x from one 5-second window to the next.

``--trace 1`` runs the separate traced run and prints the per-layer
metrics: self times of the public calls into each layer (``tracing.py``)
for the in-process workloads, ``/v1/metrics`` and ``/v1/stats`` deltas for
``served_mix``. The spans are written to ``.perfbench/``.

The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it are a readable
report, including figures a workload has beyond the shared set. Any
correctness mismatch or failed operation makes the exit code 1.

The benchmark measures the production default: ``REPRO_KERNEL`` and
``REPRO_TELEMETRY`` are removed from the environment before the program is
imported, and the resolved kernel is printed with every run.
``--record-golden`` rewrites ``perfbench/golden/`` from the current code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from pathlib import Path

from common import END_TO_END_UNITS, PER_LAYER_UNITS, adopt_orphans, end_children

WORKLOADS = ("batch_corpus", "stream_ingest", "served_mix")

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"


def _prepare_import() -> None:
    """Import the program from ``./src`` with its production defaults."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no program source at {source}; run from the root of a checkout"
        )
    for name in ("REPRO_KERNEL", "REPRO_TELEMETRY"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(source))


def _record_golden() -> None:
    for name in ("batch_corpus", "stream_ingest"):
        module = importlib.import_module(name)
        module.GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        with open(module.GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(module.record_golden(), handle, indent=1)
            handle.write("\n")
        print(f"wrote {module.GOLDEN}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    _prepare_import()
    if args.record_golden:
        _record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from repro.grammar._kernel import current_kernel

    module = importlib.import_module(args.workload)
    kernel = current_kernel()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} kernel {kernel}")
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        result, layers = module.run_traced(args.seed, args.seconds, tracer)
        tracer.write(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "kernel": kernel},
        )
        for name, unit in PER_LAYER_UNITS.items():
            result.metric(name, layers.get(name, 0.0), unit)
    else:
        result = module.run(args.seed, args.seconds)
        if set(result.metrics) != set(END_TO_END_UNITS):
            raise RuntimeError(f"{args.workload} reported {sorted(result.metrics)}")
    for name, value, unit in result.report:
        if name not in result.metrics:
            print(f"  {name:34s} {value:14.4f} {unit}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    for message in result.failures[:20]:
        print(f"FAILED {message}")
    for message in result.mismatches[:20]:
        print(f"MISMATCH {message}")
    print(result.result_line())
    return 0 if result.correct else 1


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # Every path out, SIGTERM included, stops and reaps what the run started.
    adopt_orphans()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    finally:
        killed = end_children()
        if killed:
            print(f"killed leftover child processes {killed}", file=sys.stderr)
    sys.exit(code)
