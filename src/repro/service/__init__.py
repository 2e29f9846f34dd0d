"""Async serving subsystem: micro-batched detection as a long-lived service.

The deployment mode the ROADMAP's "heavy traffic from millions of users"
north star implies: one long-lived process that

- **coalesces** concurrent one-shot ``detect`` requests into micro-batches
  on a single shared executor pool
  (:class:`~repro.service.batching.MicroBatcher`), with backpressure and
  per-request deadlines;
- **hosts** many named multi-tenant streaming sessions
  (:class:`~repro.service.sessions.StreamSessionManager`) with idle
  eviction and a global memory budget;
- **caches** results by series content digest and detector configuration
  (:class:`~repro.service.cache.LRUCache`), and answers repeated streaming
  polls from the stream-version memoization;
- serves it all over a dependency-free stdlib HTTP front end
  (:mod:`repro.service.http`; CLI: ``python -m repro serve``).

Served results are **bitwise identical** to the equivalent direct
``detect()``/streaming calls — the parity suite enforces it across every
executor backend. Several nodes go behind one router
(:mod:`repro.service.router`; CLI: ``python -m repro router``), which
places sessions, fails them over and splits a ``/v1/detect_batch`` over
the hosts of the live nodes — the one way this package reaches other hosts.
"""

from repro.service.batching import MicroBatcher
from repro.service.cache import LRUCache, series_digest
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.config import DetectorConfig
from repro.service.core import DetectResult, DetectService
from repro.service.errors import (
    BadRequest,
    DeadlineExceeded,
    MemoryBudgetExceeded,
    NodeUnavailable,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    SessionExists,
    SessionGone,
    SessionNotFound,
    TenantQuotaExceeded,
)
from repro.service.http import BaseHTTPServer, ServiceHTTPServer, serve
from repro.service.sessions import StreamSessionManager
from repro.service.snapshot import (
    LocalSnapshotStore,
    SnapshotStore,
    decode_snapshot,
    encode_snapshot,
)

__all__ = [
    "BadRequest",
    "BaseHTTPServer",
    "DeadlineExceeded",
    "DetectResult",
    "DetectService",
    "DetectorConfig",
    "LRUCache",
    "LocalSnapshotStore",
    "MemoryBudgetExceeded",
    "MicroBatcher",
    "NodeUnavailable",
    "ServiceClient",
    "ServiceClientError",
    "ServiceClosed",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceOverloaded",
    "SessionExists",
    "SessionGone",
    "SessionNotFound",
    "SnapshotStore",
    "StreamSessionManager",
    "TenantQuotaExceeded",
    "decode_snapshot",
    "encode_snapshot",
    "serve",
    "series_digest",
]
