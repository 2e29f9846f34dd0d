"""Drive the detect service through the typed ``/v1`` client.

Starts ``python -m repro serve`` as a subprocess on an ephemeral port (pass
``--url http://host:port`` to target an already-running server or router
instead), then uses :class:`repro.service.ServiceClient`:

1. fires 8 concurrent ``/v1/detect`` requests from threads — arriving
   together, they get coalesced into micro-batches (visible in stats);
2. repeats one request to show the digest-keyed result cache;
3. opens a streaming session, feeds it chunk by chunk, and polls
   ``/v1/sessions/{name}/anomalies`` between chunks — the multi-tenant
   path — then checkpoints it to the snapshot store, closes it, and
   restores it to show the durability round trip;
4. prints the batcher/cache counters plus a slice of ``/v1/metrics``, and
   shuts the server down cleanly.

Every request is tagged with one pinned ``X-Request-Id`` (printed at
startup), so the whole run can be grepped out of the server's logs.

Run: ``PYTHONPATH=src python examples/serve_client.py``
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.obs import new_request_id
from repro.service import ServiceClient, ServiceClientError

WINDOW = 60
CONFIG = {"window": WINDOW, "ensemble_size": 8, "max_paa_size": 6, "max_alphabet_size": 6}


def make_series(seed: int, n: int = 800) -> list[float]:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 16.0 * np.pi, n)
    series = np.sin(t) + 0.05 * rng.standard_normal(n)
    series[450:510] *= 0.15  # plant one damped cycle
    return [float(v) for v in series]


def start_server(snapshot_dir: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--max-batch", "16",
            "--snapshot-dir", snapshot_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        match = re.search(r"serving on (http://[\d.]+:\d+)", line or "")
        if match:
            return process, match.group(1)
    process.kill()
    raise RuntimeError("server did not start")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", help="target an already-running server instead of spawning one")
    args = parser.parse_args()

    process = None
    snapshots = tempfile.TemporaryDirectory(prefix="repro-snapshots-")
    if args.url:
        url = args.url.rstrip("/")
    else:
        process, url = start_server(snapshots.name)
        print(f"spawned server at {url}")
    trace_id = f"serve-client-{new_request_id()}"
    print(f"request id for this run: {trace_id}")
    client = ServiceClient(url, request_id=trace_id)

    try:
        # -- 1. concurrent one-shot requests (micro-batched together) -----
        def one_request(i: int) -> dict:
            return client.detect(make_series(i), seed=i, k=3, **CONFIG)

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(one_request, range(8)))
        elapsed = time.perf_counter() - started
        print(f"\n8 concurrent detects in {elapsed * 1000:.0f} ms:")
        for i, response in enumerate(responses):
            top = response["anomalies"][0]
            print(f"  client {i}: top anomaly at {top['position']} (score {top['score']:.4f})")

        # -- 2. the result cache ------------------------------------------
        repeat = one_request(0)
        print(f"\nrepeat of client 0: cached={repeat['cached']}")

        # -- 3. a streaming session ---------------------------------------
        feed = make_series(99, 1600)
        client.create_session("demo", seed=7, **CONFIG)
        for offset in range(0, 1600, 400):
            client.append("demo", feed[offset : offset + 400])
            poll = client.anomalies("demo", k=1)
            if poll["anomalies"]:
                top = poll["anomalies"][0]
                print(
                    f"  after {poll['length']:4d} points: top anomaly at "
                    f"{top['position']} (score {top['score']:.4f}, cached={poll['cached']})"
                )
        reference = client.anomalies("demo", k=3)["anomalies"]

        # checkpoint -> close (keeping snapshots) -> restore: the session
        # comes back with bitwise-identical detections.
        checkpoint = client.snapshot("demo")
        client.close_session("demo", keep_snapshots=True)
        try:
            client.anomalies("demo")
        except ServiceClientError as error:
            print(f"\nafter close: {error.status} {error.code} (as expected)")
        restored = client.restore("demo")
        resumed = client.anomalies("demo", k=3)["anomalies"]
        print(
            f"restored from checkpoint {restored['restored_from']} "
            f"(seq {checkpoint['snapshot_seq']}): detections identical: "
            f"{resumed == reference}"
        )
        client.close_session("demo")

        # -- 4. operational counters --------------------------------------
        stats = client.stats()
        batcher, cache = stats["batcher"], stats["cache"]
        print(
            f"\nstats: {batcher['dispatched']} requests in {batcher['batches']} batches "
            f"(mean batch {batcher['mean_batch_size']:.1f}); "
            f"cache {cache['hits']} hits / {cache['misses']} misses"
        )
        scrape = client.metrics()
        requests_total = [
            line for line in scrape.splitlines()
            if line.startswith("repro_http_requests_total")
        ]
        print("metrics (request counts by path):")
        for line in requests_total:
            print(f"  {line}")
    finally:
        if process is not None:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            print("server shut down cleanly")
        snapshots.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
