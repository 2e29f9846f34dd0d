"""The one normalized bench record shape (NDJSON + summary JSON).

Before the runner, every bench emitted its own ad-hoc
``json.dumps(payload)`` under ``benchmarks/results/BENCH_*.json`` — no two
shapes alike, none carrying provenance. This module defines the single
record schema everything now flows through:

- **NDJSON** (``bench_matrix.ndjson``): one :class:`BenchRecord` per line,
  one line per metric per matrix cell, in measurement order. This is the
  artifact CI uploads — append-friendly, greppable, machine-joinable.
- **Summary JSON** (``bench_matrix_summary.json``): the same records keyed
  by metric id with raw samples dropped — what humans and the comparison
  gate read.
- **Legacy payload envelope** (:func:`write_bench_payload`): the
  ``bench_*.py`` scripts keep their narrative payloads, but wrapped in one
  envelope carrying the schema version, machine fingerprint, and git SHA
  instead of each inventing a shape.

Every record carries the machine fingerprint (CPU model, core count,
python/numpy versions, git SHA) from
:mod:`runner.machine` — a number without provenance is not a baseline.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.timing import Measurement

#: Bumped on any incompatible record-shape change; readers reject unknown
#: versions instead of misinterpreting fields.
SCHEMA_VERSION = 1

#: Gate directions: "lower" = cost metric (regression is an increase),
#: "higher" = throughput metric (regression is a decrease).
DIRECTIONS = ("lower", "higher")


def utc_now() -> str:
    """ISO-8601 UTC timestamp for record provenance."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass(frozen=True)
class BenchRecord:
    """One measured metric of one matrix cell — one NDJSON line.

    ``metric`` is the globally unique id (``workload.axis=value....name``)
    the baselines are keyed by; ``value`` is the median over ``repeats``
    recorded runs and ``iqr`` the interquartile range the regression gate
    treats as the noise band. ``params`` holds the full cell parameters
    (fixed params and axis values merged), ``machine`` the fingerprint
    dict from :func:`runner.machine.machine_fingerprint`.
    """

    metric: str
    workload: str
    unit: str
    value: float
    iqr: float
    best: float
    mean: float
    repeats: int
    warmup: int
    direction: str = "lower"
    tolerance: float = 0.75
    samples: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)
    machine: dict = field(default_factory=dict)
    created: str = ""
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )

    def as_json(self) -> dict:
        """The record as a JSON-ready dict (tuples become lists)."""
        payload = dataclasses.asdict(self)
        payload["samples"] = list(self.samples)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "BenchRecord":
        """Inverse of :meth:`as_json`; rejects unknown schema versions."""
        version = payload.get("schema", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"record schema v{version} is not supported (expected v{SCHEMA_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown record fields: {sorted(unknown)}")
        payload = dict(payload)
        payload["samples"] = tuple(payload.get("samples", ()))
        return cls(**payload)


def record_from_measurement(
    *,
    metric: str,
    workload: str,
    unit: str,
    measurement: Measurement,
    warmup: int,
    params: dict,
    machine: dict,
    direction: str = "lower",
    tolerance: float = 0.75,
) -> BenchRecord:
    """Fold a :class:`repro.utils.timing.Measurement` into one record."""
    return BenchRecord(
        metric=metric,
        workload=workload,
        unit=unit,
        value=measurement.median,
        iqr=measurement.iqr,
        best=measurement.best,
        mean=measurement.mean,
        repeats=len(measurement.samples),
        warmup=warmup,
        direction=direction,
        tolerance=tolerance,
        samples=tuple(measurement.samples),
        params=dict(params),
        machine=dict(machine),
        created=utc_now(),
    )


def write_ndjson(path: str | Path, records: list[BenchRecord]) -> Path:
    """Write records as NDJSON (one compact JSON object per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(record.as_json(), sort_keys=True) for record in records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def read_ndjson(path: str | Path) -> list[BenchRecord]:
    """Read an NDJSON record stream back (blank lines tolerated)."""
    records = []
    for line_number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(BenchRecord.from_json(json.loads(line)))
        except (json.JSONDecodeError, TypeError, ValueError) as error:
            raise ValueError(f"{path}:{line_number}: bad bench record: {error}") from None
    return records


def summarize(records: list[BenchRecord]) -> dict:
    """The summary document: records keyed by metric id, samples dropped.

    One machine fingerprint for the whole document (all records of one run
    share it; mixing runs from different machines into one summary is a
    caller error and raises).
    """
    machines = {json.dumps(r.machine, sort_keys=True) for r in records}
    if len(machines) > 1:
        raise ValueError("refusing to summarize records from different machines")
    metrics = {}
    for record in records:
        if record.metric in metrics:
            raise ValueError(f"duplicate metric id in record stream: {record.metric}")
        entry = record.as_json()
        del entry["samples"]
        del entry["machine"]
        metrics[record.metric] = entry
    return {
        "schema": SCHEMA_VERSION,
        "created": utc_now(),
        "machine": dict(records[0].machine) if records else {},
        "metrics": metrics,
    }


def write_summary(path: str | Path, records: list[BenchRecord]) -> Path:
    """Write the summary JSON next to the NDJSON artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summarize(records), indent=1, sort_keys=True) + "\n")
    return path


def write_bench_payload(name: str, payload: dict, results_dir: str | Path) -> Path:
    """Write a narrative bench's payload in the one normalized envelope.

    Replaces the per-bench ad-hoc ``json.dumps(payload)`` shapes: the
    measured dict goes under ``data``, and the envelope adds the schema
    version, machine fingerprint, git SHA, and timestamp — so even the
    non-matrix artifacts (``BENCH_*.json``) carry provenance.
    """
    from runner.machine import machine_fingerprint

    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    envelope = {
        "schema": SCHEMA_VERSION,
        "bench": name,
        "created": utc_now(),
        "machine": machine_fingerprint(),
        "data": payload,
    }
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(envelope, indent=1) + "\n")
    return path
