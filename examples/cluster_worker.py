"""Cluster walkthrough: one scheduler, two CLI workers, one batch.

Run with:  python examples/cluster_worker.py

This is the multi-host deployment shape scaled down to one machine — every
step is exactly what a real fleet does, only the hostnames differ:

1. bind a cluster scheduler on an ephemeral localhost port
   (``ClusterExecutor`` in fleet mode: it spawns no workers itself);
2. start two workers the way an operator would on remote machines:
   ``python -m repro worker --connect HOST:PORT``;
3. run ``detect_batch`` over several independent series through the fleet;
4. verify the results are bitwise identical to a plain serial run — the
   cluster backend honours the same parity contract as every other
   executor — then shut everything down.

See ``docs/deployment.md`` for the production run-book (fixed ports,
auth keys, serving in front of a fleet).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from repro import EnsembleGrammarDetector
from repro.core.cluster import ClusterExecutor

RNG = np.random.default_rng(3)


def make_batch(count: int = 4) -> list[np.ndarray]:
    """Independent noisy sine series, each with one planted anomaly."""
    batch = []
    for index in range(count):
        series = np.sin(np.linspace(0.0, 24.0 * np.pi, 1200))
        series += 0.05 * RNG.standard_normal(len(series))
        position = 200 + 200 * index
        series[position : position + 60] = np.sin(np.linspace(0.0, 8.0 * np.pi, 60))
        batch.append(series)
    return batch


def start_worker(host: str, port: int) -> subprocess.Popen:
    """Start one worker process, exactly as an operator would on any host."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", f"{host}:{port}"],
        env=env,
    )


def main() -> None:
    batch = make_batch()
    detector = EnsembleGrammarDetector(window=60, ensemble_size=6, seed=11)
    reference = detector.detect_batch(batch, k=3)
    print(f"serial reference: {len(batch)} series detected")

    # Fleet mode: spawn_workers=0 — the scheduler waits for workers we
    # bring up ourselves through the CLI, like a real multi-host fleet.
    with ClusterExecutor(2, spawn_workers=0, min_workers=2, worker_wait=120.0) as executor:
        host, port = executor.start(wait=False)
        print(f"scheduler listening on {host}:{port}")
        workers = [start_worker(host, port) for _ in range(2)]
        try:
            # Dispatch only once the whole fleet is in (start is idempotent).
            executor.start(wait=True)
            with EnsembleGrammarDetector(
                window=60, ensemble_size=6, seed=11, executor=executor
            ) as clustered:
                results = clustered.detect_batch(batch, k=3)
            fleet = executor.worker_stats()
            print(
                f"fleet: {len(fleet)} workers "
                f"(pids {sorted(w['pid'] for w in fleet)}), "
                f"{executor.stats()['tasks_submitted']} tasks dispatched"
            )
            assert results == reference, "cluster results must be bitwise identical"
            print("bitwise parity with the serial run: OK")
            for index, anomalies in enumerate(results):
                top = anomalies[0]
                print(
                    f"  series {index}: top anomaly at {top.position} "
                    f"(score {top.score:.4f})"
                )
        finally:
            # Closing the executor tells workers to stop; reap them.
            executor.close()
            for worker in workers:
                worker.wait(timeout=10.0)
    print("cluster example done")


if __name__ == "__main__":
    main()
