"""Tenant sessions: warm per-tenant state with eviction and TTL.

A *session* is one tenant's long-lived tuning context: the loaded
:class:`~repro.engine.database.Database` instances (with their plan,
dictionary, and what-if caches), the sampled workloads,
and the recommendations — everything the one-shot CLI rebuilds from
scratch on every invocation stays warm here across requests.

Isolation is layered:

* every session owns a :class:`TenantContext`, a
  :class:`~repro.bench.context.BenchContext` whose artifact keys are
  prefixed with the tenant name — so even when sessions share one
  artifact store (or one ``--cache-dir`` disk directory), a tenant
  can never observe another tenant's cached plans, workloads, or
  measurements;
* the live ``Database`` objects (and their plan/bind/what-if/dictionary
  caches) are per-context and therefore per-tenant by construction.

The :class:`SessionStore` is the lock-guarded registry: creation,
lookup, LRU eviction under ``max_sessions``, and idle-TTL expiry all
happen under one lock, with a monotonic injectable clock so tests can
drive expiry deterministically.  Sessions with jobs in flight are never
evicted or expired.
"""

import itertools
import threading
from collections import OrderedDict

from ..bench.context import BenchContext, BenchSettings
from ..obs.clock import perf_seconds
from ..runtime.artifacts import ArtifactCache, artifact_key

DEFAULT_MAX_SESSIONS = 8
DEFAULT_TTL_SECONDS = 3600.0


class SessionLimitError(RuntimeError):
    """The store is full and every resident session has jobs in flight."""


class UnknownSessionError(KeyError):
    """No session with the requested id (never existed, evicted, or
    expired)."""


class TenantContext(BenchContext):
    """A bench context whose artifact keys are scoped to one tenant.

    Every cache key produced by :meth:`_key` mixes the tenant name in
    front of the usual settings content key, so two tenants issuing the
    same request against a shared artifact store (in memory or under a
    shared ``--cache-dir``) read and write *disjoint* entries —
    identical results, distinct keys.
    """

    def __init__(self, tenant, settings=None, artifacts=None):
        super().__init__(settings, artifacts=artifacts)
        self.tenant = tenant

    def _key(self, *parts):
        return artifact_key(
            "tenant", self.tenant, *self.settings.content_key(), *parts
        )


class TenantSession:
    """One tenant's warm tuning state plus its bookkeeping.

    Mutable fields (``last_used``, ``active_jobs``, ``jobs_run``) are
    only ever written while holding the owning store's lock; the session
    object itself carries no lock of its own.
    """

    def __init__(self, session_id, tenant, system, settings, context,
                 created):
        self.session_id = session_id
        self.tenant = tenant
        self.system = system
        self.settings = settings
        self.context = context
        self.created = created
        self.last_used = created
        self.active_jobs = 0
        self.jobs_run = 0

    def describe(self):
        """The session's public JSON shape (no live objects)."""
        settings = self.settings
        return {
            "id": self.session_id,
            "tenant": self.tenant,
            "system": self.system,
            "settings": {
                "scale": settings.scale,
                "workload_size": settings.workload_size,
                "timeout": settings.timeout,
                "seed": settings.seed,
                "jobs": self.context.jobs,
            },
            "active_jobs": self.active_jobs,
            "jobs_run": self.jobs_run,
        }


class SessionStore:
    """Lock-guarded, LRU-evicting, TTL-expiring session registry.

    Args:
        max_sessions: resident-session cap.  Creating a session beyond
            the cap evicts the least-recently-used *idle* session; when
            every resident session has jobs in flight,
            :class:`SessionLimitError` is raised instead.
        ttl_seconds: idle time after which a session expires (``None``
            disables expiry).  Expiry is swept opportunistically on
            every store operation — there is no background thread.
        clock: zero-argument monotonic-seconds callable (injectable for
            tests; defaults to :func:`repro.obs.clock.perf_seconds`).
        jobs: measurement-pool width of a session whose request names
            none (the server's ``--jobs``); each measurement opens and
            closes its own pool of that width.
        artifacts_dir: optional directory for per-session
            :class:`~repro.runtime.artifacts.ArtifactCache` persistence.
            Safe to share across tenants: keys are tenant-scoped.
    """

    def __init__(self, max_sessions=DEFAULT_MAX_SESSIONS,
                 ttl_seconds=DEFAULT_TTL_SECONDS, clock=perf_seconds,
                 jobs=1, artifacts_dir=None):
        self.max_sessions = max(1, int(max_sessions))
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self.jobs = jobs
        self._artifacts_dir = artifacts_dir
        self._lock = threading.Lock()
        self._sessions = OrderedDict()
        self._ids = itertools.count(1)
        self._created = 0
        self._evicted = 0
        self._expired = 0
        self._deleted = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def create(self, tenant, settings=None, system="A"):
        """Create (and register) a session for ``tenant``.

        Args:
            tenant: tenant name; scopes every artifact key the session's
                context will ever produce.
            settings: a :class:`~repro.bench.context.BenchSettings`
                (defaults to the stock settings).
            system: default system profile for family-level jobs.

        Returns:
            The new :class:`TenantSession`.

        Raises:
            SessionLimitError: store full and nothing is evictable.
        """
        settings = settings or BenchSettings()
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            self._make_room_locked()
            session_id = f"s-{next(self._ids):06d}"
            context = TenantContext(
                tenant,
                settings,
                artifacts=ArtifactCache(self._artifacts_dir),
            )
            session = TenantSession(
                session_id, tenant, system, settings, context, now
            )
            self._sessions[session_id] = session
            self._created += 1
            return session

    def get(self, session_id):
        """Look up a session and mark it as just used (LRU touch).

        Raises:
            UnknownSessionError: unknown, evicted, or expired id.
        """
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(session_id)
            session.last_used = now
            self._sessions.move_to_end(session_id)
            return session

    def remove(self, session_id):
        """Delete a session explicitly (``DELETE /v1/sessions/{id}``).

        Raises:
            UnknownSessionError: unknown id.
            SessionLimitError: the session still has jobs in flight.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(session_id)
            if session.active_jobs:
                raise SessionLimitError(
                    f"session {session_id} has {session.active_jobs} "
                    f"job(s) in flight"
                )
            del self._sessions[session_id]
            self._deleted += 1

    # ------------------------------------------------------------------
    # Job accounting (called by the job queue)

    def acquire_job(self, session_id):
        """Pin a session for a job: touches LRU, bumps ``active_jobs``.

        A pinned session cannot be evicted or expired until every
        acquired job is released.  Lookup and pinning are one atomic
        step so a concurrent ``create`` cannot evict the session in
        between.

        Raises:
            UnknownSessionError: unknown, evicted, or expired id.
        """
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(session_id)
            session.last_used = now
            self._sessions.move_to_end(session_id)
            session.active_jobs += 1
            return session

    def release_job(self, session_id):
        """Unpin a session after a job finished (idempotent on missing
        sessions: an explicit DELETE may have raced the job)."""
        now = self._clock()
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                session.active_jobs = max(0, session.active_jobs - 1)
                session.jobs_run += 1
                session.last_used = now

    # ------------------------------------------------------------------
    # Introspection

    def sessions(self):
        """Live sessions, least-recently-used first (a copied list)."""
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            return list(self._sessions.values())

    def __len__(self):
        with self._lock:
            return len(self._sessions)

    def snapshot(self):
        """Store counters for ``/v1/metrics`` (a plain dict)."""
        with self._lock:
            return {
                "active": len(self._sessions),
                "created": self._created,
                "evicted": self._evicted,
                "expired": self._expired,
                "deleted": self._deleted,
                "max_sessions": self.max_sessions,
            }

    # ------------------------------------------------------------------
    # Internals (all called with the lock held)

    def _sweep_locked(self, now):
        if self.ttl_seconds is None:
            return
        expired = [
            session_id
            for session_id, session in self._sessions.items()
            if not session.active_jobs
            and now - session.last_used > self.ttl_seconds
        ]
        for session_id in expired:
            del self._sessions[session_id]
            self._expired += 1

    def _make_room_locked(self):
        while len(self._sessions) >= self.max_sessions:
            victim = next(
                (
                    session_id
                    for session_id, session in self._sessions.items()
                    if not session.active_jobs
                ),
                None,
            )
            if victim is None:
                raise SessionLimitError(
                    f"{len(self._sessions)} resident sessions, all with "
                    f"jobs in flight (max_sessions={self.max_sessions})"
                )
            del self._sessions[victim]
            self._evicted += 1
