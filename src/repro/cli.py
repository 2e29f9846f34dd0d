"""Command-line interface: ``python -m repro <command>``.

Five subcommands cover the library's main workflows:

- ``detect`` — run a detector over one or more series files and print/save
  the ranked anomalies. Passing several ``--input`` files fans the batch out
  with :meth:`repro.core.ensemble.EnsembleGrammarDetector.detect_batch`;
  ``--executor {serial,thread,process}`` picks the execution backend (the
  process backend passes series through shared memory and reuses one pool
  across the run) and ``--n-jobs`` sizes it. A file that fails to load or
  detect does not abort the others: their results are still emitted, the
  failing path(s) are reported on stderr, and the exit code is nonzero.
  Results do not depend on the backend, but each file in a batch gets its
  own seed spawned from ``--seed``, so a file's batch result intentionally
  differs from a single-file run with the same seed::

      python -m repro detect --input series.csv --window 100 \\
          --method ensemble --top 3 --json out.json
      python -m repro detect --input a.csv b.csv c.csv --window 100 \\
          --method ensemble --executor process --n-jobs 4

- ``generate`` — produce the paper's synthetic workloads (planted UCR-like
  test series, appliance traces, scalability series) as CSV plus a ground
  truth sidecar::

      python -m repro generate --dataset Trace --seed 7 --out case.csv
      python -m repro generate --kind fridge --length 120000 --out trace.csv

- ``evaluate`` — run the paper's protocol (Table 4/5 row) on one dataset::

      python -m repro evaluate --dataset Wafer --cases 5 --methods ensemble gi-fix

- ``stream`` — feed a series file chunk-by-chunk through the streaming
  ensemble, optionally with bounded memory for infinite inputs:
  ``--stream-capacity`` retains only the last N points and
  ``--eviction-policy {sliding,decay}`` picks exact or generation-wise
  grammar forgetting (see the README's "Streaming on infinite inputs")::

      python -m repro stream --input feed.csv --window 100 \\
          --stream-capacity 50000 --eviction-policy sliding --chunk-size 8192

- ``serve`` — run the async serving subsystem (:mod:`repro.service`): a
  long-lived HTTP endpoint that micro-batches concurrent ``detect``
  requests onto one shared executor pool (a batch is what queued while
  the previous one ran, never a timed wait), hosts named multi-tenant
  streaming sessions, and caches results by series digest. See
  ``docs/serving.md``::

      python -m repro serve --port 8765 --executor process --n-jobs 4 --max-batch 16

- ``worker`` — join a cluster scheduler as one task-at-a-time worker
  (:mod:`repro.core.cluster`). Any command run with ``--executor cluster
  --scheduler HOST:PORT`` (including ``serve``) binds a scheduler at that
  address; workers on any reachable machine dial in. See
  ``docs/deployment.md``::

      python -m repro worker --connect 10.0.0.5:9123

- ``bench`` — run the declarative benchmark matrix
  (``benchmarks/bench_matrix.toml``) through the ``benchmarks/runner``
  harness: warmup + repeated measurement (median/IQR), normalized NDJSON +
  summary records carrying a machine fingerprint and git SHA, and a
  noise-aware regression gate against the committed per-metric baselines
  in ``benchmarks/baselines/``. See ``docs/benchmarking.md``::

      python -m repro bench --list
      python -m repro bench --compare benchmarks/baselines/
      python -m repro bench --ci    # what the CI bench job runs

Every subcommand that executes work accepts the same ``--executor`` flag,
parsed by one shared helper: ``serial``, ``thread``, ``process``, or
``cluster`` (``--scheduler HOST:PORT`` binds a fixed address for remote
workers; without it a local mini-cluster of ``--n-jobs`` workers is
spawned). Unknown names are rejected up front with the list of valid
choices. Without ``--executor``, ``--n-jobs`` counts the member threads of
each detect (default 1: every member on the calling thread) and no process
is spawned. An executor carries whole series: a one-file ``detect`` runs
its members on this process's threads even with one. Results are bitwise
identical across backends.

``detect`` and ``stream`` also take ``--profile FILE``: the run executes
under :mod:`cProfile`, binary stats are dumped to ``FILE`` and a
top-25-by-cumulative-time summary is printed to stderr — the supported way
to see where a slow run spends its time (tokenizer, grammar kernel, or
density accumulation).

Series files are one value per line (CSV with a single column; a header
line is tolerated). All commands are deterministic under ``--seed``.
Executors the CLI creates are context-managed: every pool (and any shared
memory or worker fleet it manages) is released on success *and* on error
paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from repro import __version__
from repro.core.cluster import ClusterError, run_worker
from repro.core.detector import GrammarAnomalyDetector
from repro.core.engine import EVICTION_POLICIES
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import (
    BatchItemError,
    MemberExecutor,
    as_executor,
    validate_executor_spec,
)
from repro.core.streaming import StreamingEnsembleDetector
from repro.datasets.generators import random_walk, synthetic_ecg, synthetic_eeg
from repro.datasets.planting import make_corpus, make_test_case
from repro.datasets.power import dishwasher_series, fridge_freezer_series
from repro.datasets.ucr_like import DATASETS, dataset_by_name
from repro.discord.discords import DiscordDetector
from repro.discord.hotsax import HotSaxDetector
from repro.evaluation.baselines import GIRandomDetector, GISelectDetector, gi_fix_detector
from repro.evaluation.harness import evaluate_methods_on_corpus
from repro.evaluation.reporting import write_detections_csv, write_detections_json
from repro.evaluation.tables import format_table
from repro.grammar.rra import RRADetector

#: Methods available to ``detect`` and ``evaluate``.
METHODS = ("ensemble", "gi", "gi-fix", "gi-random", "gi-select", "discord", "hotsax", "rra")


def load_series(path: str | Path) -> np.ndarray:
    """Read a one-column series file (values separated by newlines/commas)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"series file not found: {path}")
    values: list[float] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            token = line.strip().split(",")[0]
            if not token:
                continue
            try:
                values.append(float(token))
            except ValueError:
                if line_number == 1:
                    continue  # tolerate a header line
                raise ValueError(f"{path}:{line_number}: not a number: {token!r}") from None
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 observations, got {len(values)}")
    return np.asarray(values, dtype=np.float64)


def save_series(path: str | Path, series: np.ndarray) -> None:
    """Write a one-column series file."""
    Path(path).write_text("\n".join(f"{x:.8g}" for x in series) + "\n")


#: The one ``--executor`` help string every subcommand shares (the parsing
#: helper below is the single place executor flags are interpreted).
EXECUTOR_HELP = (
    "execution backend for batches of series: 'serial' (inline reference), "
    "'thread' (reusable thread pool; every hot loop is native code that "
    "releases the GIL), 'process' (shared-memory series passing, reusable "
    "pool), or 'cluster' (dispatch to `repro worker` processes over TCP; "
    "spawns --n-jobs local workers, or binds --scheduler HOST:PORT for "
    "remote ones). It carries whole series: the members of one detection "
    "always run on this process's threads. Results are bitwise identical "
    "across backends. Default: none; --n-jobs then counts member threads "
    "and no process is spawned"
)


def _executor_argument(value: str) -> str:
    """Argparse type for ``--executor``: reject unknown names with the choices."""
    try:
        validate_executor_spec(value)
    except (ValueError, TypeError) as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _add_executor_options(parser: argparse.ArgumentParser) -> None:
    """Attach the shared execution-backend flags (one help string, one parser)."""
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help=(
            "without --executor: member threads per detect (default 1, every "
            "member on the calling thread); with one: its worker count, and "
            "the member threads of a one-file detect, which runs here (1: the "
            "backend's width, capped at the CPUs)"
        ),
    )
    parser.add_argument(
        "--executor",
        type=_executor_argument,
        default=None,
        metavar="BACKEND",
        help=EXECUTOR_HELP,
    )
    parser.add_argument(
        "--scheduler",
        metavar="HOST:PORT",
        default=None,
        help=(
            "with --executor cluster: bind the scheduler at this address and "
            "wait for externally started `repro worker --connect HOST:PORT` "
            "processes instead of spawning local ones"
        ),
    )


def open_cli_executor(args: argparse.Namespace, stack: ExitStack) -> MemberExecutor | None:
    """Build the executor the shared flags ask for; ``None`` means inline.

    The single place CLI executor flags become a live backend: the
    executor is registered on ``stack`` so every subcommand releases its
    pool (or worker fleet) on success and on error paths alike. With
    ``--executor cluster --scheduler HOST:PORT`` the scheduler is bound
    immediately and the worker bring-up line is printed to stderr.
    """
    spec = args.executor
    scheduler = getattr(args, "scheduler", None)
    if spec is None:
        if scheduler:
            raise ValueError("--scheduler requires --executor cluster")
        return None
    if scheduler:
        if spec != "cluster":
            raise ValueError(f"--scheduler requires --executor cluster, not {spec!r}")
        spec = f"cluster:{scheduler}"
    executor = as_executor(spec, None if args.n_jobs <= 1 else args.n_jobs)
    stack.enter_context(executor)
    if scheduler:
        host, port = executor.start(wait=False)
        print(
            f"cluster: scheduler listening on {host}:{port} — start workers "
            f"with: python -m repro worker --connect {host}:{port}",
            file=sys.stderr,
        )
    return executor


def build_detector(
    method: str,
    window: int,
    args: argparse.Namespace,
    executor: str | None = None,
):
    """Instantiate the requested detector with the CLI's parameters.

    ``executor`` wires an execution backend into detectors that can own one
    (the ensemble); the ``evaluate`` command instead parallelizes at the
    harness level, so it leaves this unset.
    """
    if method == "ensemble":
        return EnsembleGrammarDetector(
            window,
            max_paa_size=args.wmax,
            max_alphabet_size=args.amax,
            ensemble_size=args.ensemble_size,
            selectivity=args.selectivity,
            seed=args.seed,
            n_jobs=getattr(args, "n_jobs", 1),
            executor=executor,
        )
    if method == "gi":
        return GrammarAnomalyDetector(window, args.paa_size, args.alphabet_size)
    if method == "gi-fix":
        return gi_fix_detector(window)
    if method == "gi-random":
        return GIRandomDetector(
            window, max_paa_size=args.wmax, max_alphabet_size=args.amax, seed=args.seed
        )
    if method == "gi-select":
        return GISelectDetector(window, max_paa_size=args.wmax, max_alphabet_size=args.amax)
    if method == "discord":
        return DiscordDetector(window)
    if method == "hotsax":
        return HotSaxDetector(window, seed=args.seed)
    if method == "rra":
        return RRADetector(window, args.paa_size, args.alphabet_size)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def _numbered_path(path: str | Path, index: int, count: int) -> Path:
    """Sidecar path for batch outputs: ``out.json`` -> ``out.0.json``, ``out.1.json``, ..."""
    path = Path(path)
    if count == 1:
        return path
    return path.with_suffix(f".{index}{path.suffix}")


def _emit_detections(anomalies, title: str, json_path, csv_path, metadata: dict) -> None:
    """Print one ranked-anomaly table and write the optional JSON/CSV sidecars."""
    rows = [
        [str(a.rank), str(a.position), str(a.length), f"{a.score:.4f}"] for a in anomalies
    ]
    print(format_table(["rank", "position", "length", "score"], rows, title=title))
    if json_path:
        write_detections_json(json_path, anomalies, metadata=metadata)
        print(f"wrote {json_path}")
    if csv_path:
        write_detections_csv(csv_path, anomalies)
        print(f"wrote {csv_path}")


def _run_profiled(handler, args: argparse.Namespace) -> int:
    """Run one command under :mod:`cProfile` (the ``--profile FILE`` flag).

    Binary stats land in ``args.profile`` (load them with ``pstats`` or
    ``snakeviz``); a top-25-by-cumulative-time summary goes to stderr so the
    hot path — tokenizer, grammar kernel, density scatter — is visible
    without leaving the terminal. Stats are written even when the command
    fails, so a slow *failing* run can still be diagnosed.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(handler, args)
    finally:
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        print(f"profile: stats written to {args.profile}", file=sys.stderr)


def _cmd_detect(args: argparse.Namespace) -> int:
    inputs = args.input
    # A batch run must not let one bad file abort the rest: every series
    # that loads and detects cleanly is reported no matter what its
    # neighbours do, failures are collected per file, and the exit code is
    # nonzero iff anything failed (regression-tested in tests/test_cli.py).
    failures: dict[int, str] = {}
    series_list: list[np.ndarray | None] = []
    for index, path in enumerate(inputs):
        try:
            series_list.append(load_series(path))
        except (ValueError, OSError) as error:
            # OSError covers the non-missing-file load failures too
            # (IsADirectoryError, PermissionError, ...): any unreadable
            # input is reported, not allowed to abort the batch.
            if len(inputs) == 1:
                raise
            failures[index] = str(error)
            series_list.append(None)
    loadable = [(index, series) for index, series in enumerate(series_list) if series is not None]
    results: list = [None] * len(inputs)
    # Every executor (and the shared memory it publishes) is released by the
    # stack on success and on every exception path — including a failure
    # between batch calls — so no pool or /dev/shm segment outlives the
    # command (regression-tested in tests/test_cli.py).
    with ExitStack() as stack:
        executor = open_cli_executor(args, stack)
        detector = build_detector(args.method, args.window, args, executor=executor)
        if hasattr(detector, "close"):
            stack.callback(detector.close)
        if len(inputs) > 1 and hasattr(detector, "detect_batch"):
            # Many independent series: the engine's batch fan-out over the
            # selected executor backend, identical to running each series
            # serially. Labels make a failing file identifiable, and
            # return_exceptions keeps one failing series from aborting the
            # others — its error lands in its own result slot.
            labels = [str(inputs[index]) for index, _ in loadable]
            batch = [series for _, series in loadable]
            if isinstance(detector, EnsembleGrammarDetector):
                # The ensemble detector owns its executor (built from
                # --executor above) and reuses it across the batch. Seeds
                # are spawned over *all* inputs and passed explicitly, so a
                # file's result never depends on whether a neighbour failed
                # to load (matching the worker-failure path, which keeps
                # full-batch seed positions).
                from repro.utils.rng import spawn_rngs

                all_seeds = spawn_rngs(args.seed, len(inputs))
                outcomes = detector.detect_batch(
                    batch,
                    args.top,
                    labels=labels,
                    seeds=[all_seeds[index] for index, _ in loadable],
                    return_exceptions=True,
                )
            else:
                outcomes = detector.detect_batch(
                    batch,
                    args.top,
                    n_jobs=args.n_jobs,
                    executor=executor,
                    labels=labels,
                    return_exceptions=True,
                )
            for (index, _), outcome in zip(loadable, outcomes):
                if isinstance(outcome, BatchItemError):
                    failures[index] = outcome.cause_message
                else:
                    results[index] = outcome
        else:
            if args.executor and not isinstance(detector, EnsembleGrammarDetector):
                # Baselines have no intra-series parallelism: with one input
                # (or no batch support) the flag would change nothing.
                reason = (
                    f"{args.method} does not support batch detection"
                    if len(inputs) > 1
                    else f"a single-series {args.method} run has nothing to parallelize"
                )
                print(f"note: --executor has no effect: {reason}", file=sys.stderr)
            for index, series in loadable:
                try:
                    results[index] = detector.detect(series, args.top)
                except ValueError as error:
                    if len(inputs) == 1:
                        raise
                    failures[index] = str(error)
    for index, path in enumerate(inputs):
        if results[index] is None:
            continue
        _emit_detections(
            results[index],
            title=f"{args.method} anomalies in {path} (window {args.window})",
            json_path=_numbered_path(args.json, index, len(inputs)) if args.json else None,
            csv_path=_numbered_path(args.csv, index, len(inputs)) if args.csv else None,
            metadata={
                "input": str(path),
                "method": args.method,
                "window": args.window,
                "series_length": len(series_list[index]),
            },
        )
    for index in sorted(failures):
        print(f"error: {inputs[index]}: {failures[index]}", file=sys.stderr)
    if failures:
        done = len(inputs) - len(failures)
        print(
            f"error: {len(failures)} of {len(inputs)} input file(s) failed "
            f"({done} succeeded above)",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    ground_truth: list[dict] = []
    if args.dataset:
        dataset = dataset_by_name(args.dataset)
        case = make_test_case(dataset, seed=args.seed)
        series = case.series
        ground_truth.append(
            {
                "position": case.gt_location,
                "length": case.gt_length,
                "kind": f"{args.dataset}-class-{case.anomaly_class}",
            }
        )
    elif args.kind == "fridge":
        series, truths = fridge_freezer_series(length=args.length, seed=args.seed)
        ground_truth = [
            {"position": t.position, "length": t.length, "kind": t.kind} for t in truths
        ]
    elif args.kind == "dishwasher":
        n_cycles = max(3, args.length // 400)
        series, truth = dishwasher_series(n_cycles=n_cycles, seed=args.seed)
        ground_truth = [
            {"position": truth.position, "length": truth.length, "kind": truth.kind}
        ]
    elif args.kind == "rw":
        series = random_walk(args.length, seed=args.seed)
    elif args.kind == "ecg":
        series = synthetic_ecg(args.length, seed=args.seed)
    elif args.kind == "eeg":
        series = synthetic_eeg(args.length, seed=args.seed)
    else:
        raise ValueError("generate needs --dataset or --kind")
    save_series(args.out, series)
    print(f"wrote {args.out} ({len(series)} points)")
    if ground_truth:
        sidecar = Path(args.out).with_suffix(".truth.json")
        sidecar.write_text(json.dumps(ground_truth, indent=2) + "\n")
        print(f"wrote {sidecar}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = dataset_by_name(args.dataset)
    corpus = make_corpus(dataset, n_cases=args.cases, seed=args.seed)
    factories = {
        method: (lambda window, m=method: build_detector(m, window, args))
        for method in args.methods
    }
    # Size the harness pool by --n-jobs (default 1 means "every core" once a
    # backend is named); member-level parallelism inside pooled tasks is
    # disabled by the harness, so --n-jobs bounds total workers.
    with ExitStack() as stack:
        executor = open_cli_executor(args, stack)
        results = evaluate_methods_on_corpus(
            corpus, factories, k=args.top, executor=executor
        )
    rows = [
        [name, f"{scores.average:.4f}", f"{scores.hit_rate:.2f}"]
        for name, scores in results.items()
    ]
    print(
        format_table(
            ["method", "avg Score", "HitRate"],
            rows,
            title=f"{args.dataset}: {args.cases} series, top-{args.top} candidates",
        )
    )
    if args.json:
        from repro.evaluation.reporting import write_evaluation_json

        write_evaluation_json(args.json, results)
        print(f"wrote {args.json}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    series = load_series(args.input)
    if args.chunk_size < 1:
        raise ValueError(f"chunk-size must be positive, got {args.chunk_size}")
    # A streaming ensemble runs in this process: no executor is built.
    detector = StreamingEnsembleDetector(
        args.window,
        max_paa_size=args.wmax,
        max_alphabet_size=args.amax,
        ensemble_size=args.ensemble_size,
        selectivity=args.selectivity,
        capacity=args.stream_capacity,
        policy=args.eviction_policy,
        segments=args.segments,
        seed=args.seed,
    )
    for offset in range(0, len(series), args.chunk_size):
        detector.extend(series[offset : offset + args.chunk_size])
    anomalies = detector.detect(args.top)
    horizon_start = detector.horizon_start
    live_length = detector.state.live_length
    mode = (
        "unbounded"
        if args.stream_capacity is None
        else f"capacity {args.stream_capacity}, {args.eviction_policy} eviction"
    )
    _emit_detections(
        anomalies,
        title=(
            f"streaming ensemble anomalies in {args.input} "
            f"(window {args.window}, {mode})"
        ),
        json_path=args.json,
        csv_path=args.csv,
        metadata={
            "input": str(args.input),
            "method": "streaming-ensemble",
            "window": args.window,
            "series_length": len(series),
            "stream_capacity": args.stream_capacity,
            "eviction_policy": None if args.stream_capacity is None else args.eviction_policy,
            "horizon_start": horizon_start,
            "live_length": live_length,
        },
    )
    print(
        f"stream: {len(series)} points seen, live range "
        f"[{horizon_start}, {len(series)}) ({live_length} points retained)"
    )
    return 0


def _setup_cli_logging(args: argparse.Namespace) -> None:
    from repro.obs import setup_logging

    setup_logging(log_format=args.log_format, level=args.log_level)


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: the serving stack (asyncio, sessions, HTTP) is only
    # needed by this command.
    import asyncio

    from repro.service import DetectService
    from repro.service.http import serve
    from repro.service.snapshot import LocalSnapshotStore

    _setup_cli_logging(args)
    memory_budget = (
        None if args.memory_budget_mb is None else int(args.memory_budget_mb * 1024 * 1024)
    )
    snapshot_store = None if args.snapshot_dir is None else LocalSnapshotStore(args.snapshot_dir)

    async def _main(executor: MemberExecutor | None) -> None:
        service = DetectService(
            executor=executor,
            n_jobs=args.n_jobs,
            max_batch_size=args.max_batch,
            max_pending=args.max_pending,
            cache_entries=args.cache_entries,
            max_sessions=args.max_sessions,
            idle_timeout=args.idle_timeout,
            memory_budget=memory_budget,
            snapshot_store=snapshot_store,
            snapshot_interval=args.snapshot_every,
            node_id=args.node_id,
            default_timeout=args.request_timeout,
        )

        def _ready(server) -> None:
            # The exact line scripts and the smoke tests key on; printed
            # only once the socket is bound (so --port 0 shows the real
            # ephemeral port).
            print(f"serving on http://{server.host}:{server.port}", flush=True)
            print(
                "endpoints: /v1: GET /healthz /stats /nodes /sessions[/<name>] | "
                "POST /detect /detect_batch /sessions /sessions/<name>/"
                "{append,snapshot,restore} | GET|POST /sessions/<name>/anomalies | "
                "DELETE /sessions/<name> (legacy unprefixed paths are "
                "deprecated aliases)",
                flush=True,
            )

        await serve(
            service,
            args.host,
            args.port,
            ready=_ready,
            slow_request_ms=args.slow_request_ms,
        )
        print("serve: shut down cleanly", flush=True)

    # The executor is built (and torn down) here rather than inside the
    # service, so `serve` shares the exact flag semantics of every other
    # subcommand — including `--executor cluster --scheduler HOST:PORT`,
    # which lets the HTTP front end dispatch to a worker fleet.
    with ExitStack() as stack:
        executor = open_cli_executor(args, stack)
        try:
            asyncio.run(_main(executor))
        except KeyboardInterrupt:  # pragma: no cover — non-Unix fallback path
            pass
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    # Imported here like the serve stack: only this command needs it.
    import asyncio

    from repro.service.router import SessionRouter, serve_router

    _setup_cli_logging(args)
    nodes = [node.strip() for node in args.nodes.split(",") if node.strip()]
    if not nodes:
        raise ValueError("--nodes must list at least one host:port serve node")
    router = SessionRouter(
        nodes,
        tenant_quota=args.tenant_quota,
        request_timeout=args.request_timeout,
    )

    async def _main() -> None:
        def _ready(server) -> None:
            # Mirrors the serve banner so scripts can scrape the bound port.
            print(f"routing on http://{server.host}:{server.port}", flush=True)
            print(f"nodes: {', '.join(nodes)}", flush=True)

        await serve_router(
            router,
            args.host,
            args.port,
            ready=_ready,
            slow_request_ms=args.slow_request_ms,
        )
        print("router: shut down cleanly", flush=True)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover — non-Unix fallback path
        pass
    return 0


def find_benchmarks_dir() -> Path:
    """Locate the ``benchmarks/`` tree the ``bench`` subcommand drives.

    The runner is repo tooling, not installed library code, so it is found
    rather than imported: ``$REPRO_BENCH_ROOT`` wins, then ``benchmarks/``
    under the working directory, then the checkout this module lives in
    (``src/repro/cli.py`` -> repo root). A directory only counts if it
    holds the ``runner`` package, so a stray ``benchmarks/`` folder in the
    working directory cannot shadow the real harness.
    """
    override = os.environ.get("REPRO_BENCH_ROOT")
    candidates = [Path(override)] if override else []
    candidates.append(Path.cwd() / "benchmarks")
    candidates.append(Path(__file__).resolve().parents[2] / "benchmarks")
    for candidate in candidates:
        if (candidate / "runner" / "__init__.py").is_file():
            return candidate
    raise ValueError(
        "cannot locate the benchmarks/runner harness; run from the repo "
        "checkout or set REPRO_BENCH_ROOT to its benchmarks/ directory"
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    # The runner lives under benchmarks/ (like benchlib), outside the
    # installed package: put that directory on sys.path, then hand the
    # parsed flags to runner.cli. Import errors there are real failures
    # and propagate as such.
    import importlib

    bench_dir = find_benchmarks_dir()
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    runner_cli = importlib.import_module("runner.cli")
    return runner_cli.run_bench(args, bench_dir)


def _cmd_worker(args: argparse.Namespace) -> int:
    _setup_cli_logging(args)
    return run_worker(
        args.connect,
        authkey=args.authkey,
        name=args.name,
        heartbeat=args.heartbeat,
        connect_retry=args.connect_retry,
    )


def _add_logging_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="log line format: human-readable text (default) or one JSON object per line",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum level written to stderr (default info)",
    )


def _add_slow_request_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "log requests slower than MS milliseconds at WARNING (default "
            "$REPRO_SLOW_REQUEST_MS, then 1000)"
        ),
    )


def _add_detector_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--top", type=int, default=3, help="candidates to report (default 3)")
    parser.add_argument("--wmax", type=int, default=10, help="max PAA size for sampling")
    parser.add_argument("--amax", type=int, default=10, help="max alphabet size for sampling")
    parser.add_argument("--ensemble-size", type=int, default=50, help="ensemble members N")
    parser.add_argument("--selectivity", type=float, default=0.4, help="member keep fraction tau")
    parser.add_argument("--paa-size", type=int, default=4, help="w for gi/rra methods")
    parser.add_argument("--alphabet-size", type=int, default=4, help="a for gi/rra methods")
    _add_executor_options(parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with the detect/generate/evaluate commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ensemble grammar induction for time series anomaly detection (EDBT 2020)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    detect = commands.add_parser("detect", help="detect anomalies in series files")
    detect.add_argument(
        "--input",
        required=True,
        nargs="+",
        help="one-column series file(s); several files run as one batch",
    )
    detect.add_argument("--window", type=int, required=True, help="sliding window length n")
    detect.add_argument("--method", choices=METHODS, default="ensemble")
    detect.add_argument("--json", help="write detections to this JSON file")
    detect.add_argument("--csv", help="write detections to this CSV file")
    detect.add_argument(
        "--profile",
        metavar="FILE",
        help=(
            "run under cProfile: write binary stats to FILE and print the "
            "top 25 functions by cumulative time to stderr"
        ),
    )
    _add_detector_options(detect)
    detect.set_defaults(handler=_cmd_detect)

    generate = commands.add_parser("generate", help="generate synthetic workloads")
    generate.add_argument("--dataset", choices=sorted(DATASETS), help="planted UCR-like test series")
    generate.add_argument(
        "--kind",
        choices=["rw", "ecg", "eeg", "fridge", "dishwasher"],
        help="raw series generator (alternative to --dataset)",
    )
    generate.add_argument("--length", type=int, default=20_000, help="series length for --kind")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output series file")
    generate.set_defaults(handler=_cmd_generate)

    stream = commands.add_parser(
        "stream",
        help="run the streaming ensemble over a series fed chunk-by-chunk",
    )
    stream.add_argument("--input", required=True, help="one-column series file")
    stream.add_argument("--window", type=int, required=True, help="sliding window length n")
    stream.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        help="points fed per extend() call (default 4096)",
    )
    stream.add_argument(
        "--stream-capacity",
        type=int,
        default=None,
        help=(
            "retain only the last N stream points (bounded memory for "
            "infinite inputs); must be at least --window. Default: unbounded"
        ),
    )
    stream.add_argument(
        "--eviction-policy",
        choices=EVICTION_POLICIES,
        default="sliding",
        help=(
            "grammar forgetting once --stream-capacity is set: 'sliding' "
            "(exact horizon, snapshot re-induction) or 'decay' (generation-"
            "segmented grammars dropped wholesale); default sliding"
        ),
    )
    stream.add_argument(
        "--segments",
        type=int,
        default=4,
        help="generations per capacity for the decay policy (default 4)",
    )
    stream.add_argument("--json", help="write detections to this JSON file")
    stream.add_argument("--csv", help="write detections to this CSV file")
    stream.add_argument(
        "--profile",
        metavar="FILE",
        help=(
            "run under cProfile: write binary stats to FILE and print the "
            "top 25 functions by cumulative time to stderr"
        ),
    )
    _add_detector_options(stream)
    stream.set_defaults(handler=_cmd_stream)

    serve = commands.add_parser(
        "serve",
        help="run the async detect service (micro-batched HTTP endpoint)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port; 0 picks an ephemeral port"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="largest number of requests coalesced into one batch (default 16)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=128,
        help="backpressure bound: queued requests before 429 rejection (default 128)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="LRU result-cache capacity; 0 disables caching (default 256)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="live streaming-session cap (default 64)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="evict streaming sessions idle for this many seconds (default: never)",
    )
    serve.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help="global memory budget for streaming sessions in MiB (default: unlimited)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds (default 30)",
    )
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory for session checkpoints; sharing one directory "
            "across nodes enables cross-node restore/migration (default: "
            "no checkpoints)"
        ),
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="POINTS",
        help=(
            "checkpoint a session every POINTS appended points (default: "
            "only on demand, idle eviction, and shutdown)"
        ),
    )
    serve.add_argument(
        "--node-id",
        default=None,
        help="stable node name reported under GET /v1/nodes (default 'node')",
    )
    _add_logging_options(serve)
    _add_slow_request_option(serve)
    _add_executor_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    router = commands.add_parser(
        "router",
        help="route sessions across serve nodes (consistent hashing + failover)",
    )
    router.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    router.add_argument(
        "--port", type=int, default=8766, help="bind port; 0 picks an ephemeral port"
    )
    router.add_argument(
        "--nodes",
        required=True,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="comma-separated serve-node addresses (the static placement ring)",
    )
    router.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        metavar="N",
        help=(
            "max live sessions per tenant (session-name prefix before the "
            "first '.'); default: unlimited"
        ),
    )
    router.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-proxied-request deadline in seconds (default 30)",
    )
    _add_logging_options(router)
    _add_slow_request_option(router)
    router.set_defaults(handler=_cmd_router)

    worker = commands.add_parser(
        "worker",
        help="join a cluster scheduler and execute dispatched tasks",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="scheduler address (printed by --executor cluster --scheduler)",
    )
    worker.add_argument(
        "--name", default=None, help="worker name shown in scheduler stats"
    )
    worker.add_argument(
        "--authkey",
        default=None,
        help=(
            "shared connection secret; defaults to $REPRO_CLUSTER_AUTHKEY, "
            "then a development constant"
        ),
    )
    worker.add_argument(
        "--heartbeat",
        type=float,
        default=5.0,
        help="seconds between keep-alive heartbeats while computing (default 5)",
    )
    worker.add_argument(
        "--connect-retry",
        type=float,
        default=10.0,
        help="seconds to keep retrying the initial connection (default 10)",
    )
    _add_logging_options(worker)
    worker.set_defaults(handler=_cmd_worker)

    bench = commands.add_parser(
        "bench",
        help="run the benchmark matrix with baselines and a regression gate",
    )
    bench.add_argument(
        "--matrix",
        metavar="FILE",
        default=None,
        help="matrix spec (default: benchmarks/bench_matrix.toml)",
    )
    bench.add_argument(
        "--list",
        action="store_true",
        help="print the selected matrix cells and their metrics; run nothing",
    )
    bench.add_argument(
        "--filter",
        metavar="SUBSTR",
        default=None,
        help="only cells whose id contains SUBSTR (e.g. a workload name or executor=process)",
    )
    bench.add_argument(
        "--tier",
        default="1",
        metavar="{1,2,all}",
        help="workload tier to run: 1 (CI subset, default), 2 (heavy), or all",
    )
    bench.add_argument(
        "--compare",
        metavar="DIR",
        default=None,
        help=(
            "after running, gate against the per-metric baselines in DIR; "
            "exit 1 on a significant regression (unless REPRO_BENCH_STRICT=0)"
        ),
    )
    bench.add_argument(
        "--update-baselines",
        action="store_true",
        help="after running, (over)write benchmarks/baselines/ from this run",
    )
    bench.add_argument(
        "--ci",
        action="store_true",
        help=(
            "the CI job's mode: tier-1 cells, compare against the committed "
            "benchmarks/baselines/, artifacts under benchmarks/results/"
        ),
    )
    bench.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="artifact directory for the NDJSON + summary (default: benchmarks/results)",
    )
    bench.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help=(
            "print a trend report from the bench_matrix.ndjson files under "
            "DIR (recursively); run nothing"
        ),
    )
    bench.add_argument(
        "--repeats", type=int, default=None, help="override every cell's repeat count"
    )
    bench.add_argument(
        "--warmup", type=int, default=None, help="override every cell's warmup count"
    )
    bench.set_defaults(handler=_cmd_bench)

    evaluate = commands.add_parser("evaluate", help="run the paper's protocol on one dataset")
    evaluate.add_argument("--dataset", required=True, choices=sorted(DATASETS))
    evaluate.add_argument("--cases", type=int, default=5, help="test series to generate")
    evaluate.add_argument(
        "--methods", nargs="+", choices=METHODS, default=["ensemble", "gi-fix", "discord"]
    )
    evaluate.add_argument("--json", help="write the evaluation to this JSON file")
    _add_detector_options(evaluate)
    evaluate.set_defaults(handler=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "profile", None):
            return _run_profiled(args.handler, args)
        return args.handler(args)
    except (ValueError, OSError, KeyError, BatchItemError, ClusterError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover — workers stopped by ^C
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
