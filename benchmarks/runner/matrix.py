"""Declarative bench matrix: load ``bench_matrix.toml``, expand cells.

The spec file declares *what to measure*, the runner decides *how*:

.. code-block:: toml

    [defaults]
    warmup = 1
    repeats = 3
    tolerance = 0.75            # relative regression tolerance
    cross_machine_slack = 1.0   # extra tolerance multiplier off-baseline-machine

    [workloads.detect_batch]
    tier = 1                    # 1 = CI subset, 2 = heavy/local
    description = "..."
    [workloads.detect_batch.params]      # fixed parameters
    n_series = 4
    [workloads.detect_batch.axes]        # swept parameters (product)
    executor = ["serial", "thread", "process"]
    [workloads.detect_batch.units]       # metric name -> unit
    ms_per_series = "ms/series"
    [workloads.detect_batch.tolerances]  # optional per-metric override
    ms_per_series = 1.0

A workload's cells are the cartesian product of its axes; each cell's
metric ids are ``workload.axis=value....metric`` (e.g.
``detect_batch.executor=process.ms_per_series``; a workload without axes
is one cell, ``grammar_tokens.us_per_token``) — globally unique, stable
under axis reordering (axes are sorted), and filename-safe for the
per-metric baseline files.

Parsing uses :mod:`tomllib` on Python 3.11+; on 3.10 a minimal fallback
parser covers the subset this file uses (dotted table headers, scalar and
array values) so ``repro bench --list`` works on every CI python.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

#: Metrics where larger is better (throughput); everything else is a cost.
_HIGHER_KEY = "higher_is_better"


# ----------------------------------------------------------------------
# TOML loading (tomllib, with a 3.10-compatible subset fallback).
# ----------------------------------------------------------------------


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"unsupported TOML value: {text!r}") from None


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part) for part in inner.split(",") if part.strip()]
    return _parse_scalar(text)


def _fallback_parse(text: str) -> dict:
    """Parse the TOML subset ``bench_matrix.toml`` uses (Python 3.10 path).

    Supported: ``[dotted.table.headers]``, ``key = scalar`` and
    ``key = [array]`` on one line, ``#`` comments, bare/quoted keys.
    Unsupported syntax raises rather than being silently misread.
    """
    root: dict = {}
    table = root
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            table = root
            for part in line[1:-1].split("."):
                key = part.strip().strip('"')
                if not key:
                    raise ValueError(f"line {line_number}: empty table-name segment")
                table = table.setdefault(key, {})
                if not isinstance(table, dict):
                    raise ValueError(f"line {line_number}: {key!r} is not a table")
            continue
        if "=" not in line:
            raise ValueError(f"line {line_number}: expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        comment = value.find("#")
        if comment != -1 and '"' not in value[:comment]:
            value = value[:comment]
        table[key.strip().strip('"')] = _parse_value(value)
    return root


def load_toml(path: str | Path) -> dict:
    """Load a TOML file (stdlib tomllib when available, else the fallback)."""
    path = Path(path)
    try:
        import tomllib
    except ModuleNotFoundError:
        return _fallback_parse(path.read_text())
    with open(path, "rb") as handle:
        return tomllib.load(handle)


# ----------------------------------------------------------------------
# The matrix model.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One ``[workloads.*]`` entry: fixed params, swept axes, metric specs."""

    name: str
    tier: int
    description: str
    params: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    higher_is_better: tuple[str, ...] = ()
    warmup: int = 1
    repeats: int = 3

    def direction(self, metric_name: str) -> str:
        """Gate direction of one metric (``lower`` unless declared higher)."""
        return "higher" if metric_name in self.higher_is_better else "lower"


@dataclass(frozen=True)
class MatrixCell:
    """One workload x one axis combination — the unit the runner executes."""

    workload: WorkloadSpec
    axis_values: dict = field(default_factory=dict)

    @property
    def params(self) -> dict:
        """Fixed params merged with this cell's axis values."""
        return {**self.workload.params, **self.axis_values}

    @property
    def cell_id(self) -> str:
        """Stable id: workload name + sorted ``axis=value`` segments."""
        suffix = "".join(
            f".{key}={self.axis_values[key]}" for key in sorted(self.axis_values)
        )
        return f"{self.workload.name}{suffix}"

    def metric_id(self, metric_name: str) -> str:
        """The globally unique, filename-safe id baselines are keyed by."""
        return f"{self.cell_id}.{metric_name}"


@dataclass(frozen=True)
class Matrix:
    """The loaded spec: workloads plus run-wide defaults."""

    workloads: tuple[WorkloadSpec, ...]
    defaults: dict = field(default_factory=dict)

    @property
    def cross_machine_slack(self) -> float:
        """Extra tolerance multiplier applied off the baseline machine."""
        return float(self.defaults.get("cross_machine_slack", 1.0))

    def cells(
        self, *, tier: int | None = None, pattern: str | None = None
    ) -> list[MatrixCell]:
        """Expand the matrix, optionally restricted by tier and substring.

        ``pattern`` matches against the cell id (so ``executor=process`` or a
        workload name both work). Cells come out in spec order, axes in
        sorted-key order — deterministic for NDJSON diffing.
        """
        cells = []
        for workload in self.workloads:
            if tier is not None and workload.tier != tier:
                continue
            axis_names = sorted(workload.axes)
            combos = itertools.product(*(workload.axes[name] for name in axis_names))
            for combo in combos:
                cell = MatrixCell(workload, dict(zip(axis_names, combo)))
                if pattern is None or pattern in cell.cell_id:
                    cells.append(cell)
        return cells


def _workload_from_table(name: str, table: dict, defaults: dict) -> WorkloadSpec:
    known = {
        "tier",
        "description",
        "params",
        "axes",
        "units",
        "tolerances",
        _HIGHER_KEY,
        "warmup",
        "repeats",
    }
    unknown = set(table) - known
    if unknown:
        raise ValueError(f"workload {name!r}: unknown keys {sorted(unknown)}")
    units = dict(table.get("units", {}))
    if not units:
        raise ValueError(f"workload {name!r}: declares no metrics ([workloads.{name}.units])")
    tolerances = dict(table.get("tolerances", {}))
    stray = set(tolerances) - set(units)
    if stray:
        raise ValueError(f"workload {name!r}: tolerances for unknown metrics {sorted(stray)}")
    default_tolerance = float(defaults.get("tolerance", 0.75))
    return WorkloadSpec(
        name=name,
        tier=int(table.get("tier", 2)),
        description=str(table.get("description", "")),
        params=dict(table.get("params", {})),
        axes={key: list(values) for key, values in table.get("axes", {}).items()},
        units=units,
        tolerances={m: float(tolerances.get(m, default_tolerance)) for m in units},
        higher_is_better=tuple(table.get(_HIGHER_KEY, [])),
        warmup=int(table.get("warmup", defaults.get("warmup", 1))),
        repeats=int(table.get("repeats", defaults.get("repeats", 3))),
    )


def load_matrix(path: str | Path) -> Matrix:
    """Load and validate the matrix spec."""
    document = load_toml(path)
    unknown = set(document) - {"defaults", "workloads"}
    if unknown:
        raise ValueError(f"{path}: unknown top-level tables {sorted(unknown)}")
    defaults = dict(document.get("defaults", {}))
    tables = document.get("workloads", {})
    if not tables:
        raise ValueError(f"{path}: no [workloads.*] tables")
    workloads = tuple(
        _workload_from_table(name, table, defaults) for name, table in tables.items()
    )
    return Matrix(workloads=workloads, defaults=defaults)
