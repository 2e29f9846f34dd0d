"""Zero-dependency telemetry: metrics, structured logs, stage timers.

The observability subsystem the serving and routing tiers report through:

- :mod:`repro.obs.metrics` — a thread-safe in-process metrics registry
  (``Counter``/``Gauge``/``Histogram`` with labeled children).
- :mod:`repro.obs.expfmt` — Prometheus text-format exposition for
  ``GET /v1/metrics``.
- :mod:`repro.obs.context` — the per-request correlation id, carried via
  ``contextvars`` from the HTTP edge (and through the router to its
  nodes) into the batcher.
- :mod:`repro.obs.logging` — stdlib ``logging`` setup with a JSON
  formatter and automatic ``request_id`` stamping.
- :mod:`repro.obs.stages` — the low-overhead pipeline stage timer seam
  (PAA, discretization, grammar, density, combine).

Everything here is stdlib-only; importing it never pulls in numpy or any
service-layer module, so the grammar hot path can depend on it freely.
"""

from repro.obs.context import bind_request_id, ensure_request_id, get_request_id, new_request_id
from repro.obs.expfmt import EXPOSITION_CONTENT_TYPE, render
from repro.obs.logging import get_logger, setup_logging
from repro.obs.metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry, stats_families
from repro.obs.stages import stage_timer, stage_timing_enabled

__all__ = [
    "REGISTRY",
    "EXPOSITION_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bind_request_id",
    "ensure_request_id",
    "get_logger",
    "get_request_id",
    "new_request_id",
    "render",
    "setup_logging",
    "stage_timer",
    "stage_timing_enabled",
    "stats_families",
]
