"""repro.server — recommender-as-a-service.

A long-lived, multi-tenant tuning service over the same engine the
one-shot CLI drives — the point is *warmth*: ``Database`` instances,
dictionary caches, and what-if cost state survive across
requests instead of being rebuilt per invocation, and outlive the
session that built them (one artifact store per tenant and settings),
while tenant-scoped artifact keys keep tenants fully isolated from
each other.

Layers (bottom up):

* :mod:`repro.server.sessions` — :class:`SessionStore`, the lock-guarded
  tenant-session registry (LRU eviction, idle TTL), and
  :class:`TenantContext`, the tenant-scoped bench context;
* :mod:`repro.server.jobs` — :class:`JobQueue`, the bounded job intake
  (429 backpressure) with recorded execution and per-job progress feeds;
* :mod:`repro.server.app` — the stdlib HTTP surface
  (:class:`TuningServer`, ``ThreadingHTTPServer``) and error mapping;
* :mod:`repro.server.client` — :class:`TuningClient`, the stdlib
  reference client used by tests, examples, and CI.

Run it with ``python -m repro.server``; the full API reference lives in
``docs/server.md``.  A served experiment report is canonically
byte-identical to the one-shot CLI's ``--report`` output — see
:func:`repro.obs.canonicalize_run_report`.
"""

from .app import TuningServer, TuningService
from .client import ServerError, TuningClient
from .jobs import (
    BadJobSpec,
    Job,
    JobQueue,
    JobQueueFull,
    UnknownJobError,
    parse_spec,
)
from .sessions import (
    SessionLimitError,
    SessionStore,
    TenantContext,
    TenantSession,
    UnknownSessionError,
)

__all__ = [
    "BadJobSpec",
    "Job",
    "JobQueue",
    "JobQueueFull",
    "ServerError",
    "SessionLimitError",
    "SessionStore",
    "TenantContext",
    "TenantSession",
    "TuningClient",
    "TuningServer",
    "TuningService",
    "UnknownJobError",
    "UnknownSessionError",
    "parse_spec",
]
