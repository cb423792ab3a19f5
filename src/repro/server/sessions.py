"""Tenant sessions: warm per-tenant state with eviction and TTL.

A *session* is one tenant's long-lived tuning context: the loaded
:class:`~repro.engine.database.Database` instances (with their plan,
dictionary, and what-if caches), the sampled workloads,
and the recommendations — everything the one-shot CLI rebuilds from
scratch on every invocation stays warm here across requests.

What a session builds lives in its *scope's* artifact store, not in
the session.  A scope is a tenant plus its settings' content key
(:meth:`~repro.bench.context.BenchSettings.content_key`: scale,
workload size, timeout, seed), and each scope has one
:class:`~repro.runtime.artifacts.ArtifactCache` that outlives the
sessions using it.  A session created for a scope that already has a
store gets that store, so its first job is answered from what an
earlier session of the scope built; ``DELETE /v1/sessions/{id}`` drops
the session and keeps its scope's store (``?drop_artifacts=1`` drops
the store too, unless another resident session uses it).  A kept
store is memory that the deletion no longer frees, so retention is
bounded three ways: a tenant's session in another scope drops the
tenant's stores that no session uses, so a tenant keeps at most one
idle store; at most ``max_sessions`` scopes are retained (least
recently used evicted first, never one a resident session uses); and
a scope idle longer than ``ttl_seconds`` expires like a session.

Isolation is layered:

* every session owns a :class:`TenantContext`, a
  :class:`~repro.bench.context.BenchContext` whose artifact keys are
  prefixed with the tenant name — so even where one ``--cache-dir``
  disk directory is shared, a tenant can never observe another
  tenant's cached plans, workloads, or measurements;
* a scope's store never crosses tenants, so the live ``Database``
  objects it holds (and their plan/bind/what-if/dictionary caches)
  are per-tenant by construction.

Within one scope, sessions share the store's live databases.  That is
safe for two reasons: engine work runs one job at a time (the job
queue's recording lock), and every context re-establishes the
configuration it needs before it touches a database
(``BenchContext._apply``, ``_ensure_configuration``); the sec44 driver
restores the rows it inserts.  A scope's shared store also means a
re-created session's report differs from a fresh session's the way a
warm session's does: its artifact counters are the store's, and the
stages an earlier session ran are absent.

The :class:`SessionStore` is the lock-guarded registry: creation,
lookup, LRU eviction under ``max_sessions``, and idle-TTL expiry of
sessions and scopes all happen under one lock, with a monotonic
injectable clock so tests can drive expiry deterministically.
Sessions with jobs in flight are never evicted or expired.
"""

import itertools
import threading
from collections import OrderedDict

from ..bench.context import BenchContext, BenchSettings
from ..obs.clock import perf_seconds
from ..runtime.artifacts import ArtifactCache, artifact_key

DEFAULT_MAX_SESSIONS = 8
DEFAULT_TTL_SECONDS = 3600.0

# The ArtifactCache counters that ``/v1/metrics`` sums over every
# retained scope store.
ARTIFACT_COUNTERS = ("memory_hits", "disk_hits", "misses", "stores")


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


class _Scope:
    """One (tenant, settings content key) scope's retained store.

    ``last_used`` is the last use of any session that has left the
    scope (its creation time before that); it is written only under the
    owning store's lock.
    """

    __slots__ = ("artifacts", "last_used")

    def __init__(self, artifacts, now):
        self.artifacts = artifacts
        self.last_used = now


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
        self.scope = (tenant, settings.content_key())
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
        max_sessions: resident-session cap, and the cap on retained
            scope stores.  Creating a session beyond the cap evicts the
            least-recently-used *idle* session; when every resident
            session has jobs in flight, :class:`SessionLimitError` is
            raised instead.  A new scope beyond the cap evicts the
            least-recently-used scope no resident session uses, and a
            tenant's new session drops the tenant's idle stores of
            other scopes.
        ttl_seconds: idle time after which a session, or a scope no
            resident session uses, expires (``None`` disables expiry).
            Expiry is swept opportunistically by every create, lookup,
            job pin, listing and artifacts snapshot — there is no
            background thread.
        clock: zero-argument monotonic-seconds callable (injectable for
            tests; defaults to :func:`repro.obs.clock.perf_seconds`).
        jobs: measurement-pool width of a session whose request names
            none (the server's ``--jobs``); each measurement opens and
            closes its own pool of that width.
        artifacts_dir: optional directory for the scope stores'
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
        self._scopes = {}
        self._ids = itertools.count(1)
        self._created = 0
        self._evicted = 0
        self._expired = 0
        self._deleted = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def create(self, tenant, settings=None, system="A"):
        """Create (and register) a session for ``tenant``.

        The session's context takes the artifact store of its scope
        (``tenant`` and ``settings.content_key()``), made on the scope's
        first session and kept after its sessions are gone.  The
        tenant's stores of other scopes that no session uses are
        dropped.

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
            key = (tenant, settings.content_key())
            for idle in self._idle_scopes_locked():
                if idle[0] == tenant and idle != key:
                    del self._scopes[idle]
            scope = self._scope_locked(key, now)
            session_id = f"s-{next(self._ids):06d}"
            context = TenantContext(
                tenant, settings, artifacts=scope.artifacts
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

    def remove(self, session_id, drop_artifacts=False):
        """Delete a session explicitly (``DELETE /v1/sessions/{id}``).

        Args:
            session_id: the session to delete.
            drop_artifacts: drop the session's scope store as well,
                unless another resident session uses it.

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
            self._left_locked(session)
            if drop_artifacts and session.scope in self._idle_scopes_locked():
                del self._scopes[session.scope]
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

    def artifacts_snapshot(self):
        """Retained scope stores and their summed traffic counters for
        ``/v1/metrics`` (a plain dict)."""
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            stores = [scope.artifacts for scope in self._scopes.values()]
        totals = dict.fromkeys(ARTIFACT_COUNTERS, 0)
        for artifacts in stores:
            counters = artifacts.snapshot()
            for name in ARTIFACT_COUNTERS:
                totals[name] += counters[name]
        return {"retained": len(stores), **totals}

    # ------------------------------------------------------------------
    # Internals (all called with the lock held)

    def _idle_scopes_locked(self):
        in_use = {session.scope for session in self._sessions.values()}
        return [key for key in self._scopes if key not in in_use]

    def _scope_locked(self, key, now):
        """The scope's store, made (evicting the least recently used
        scope no resident session uses) when the scope has none."""
        scope = self._scopes.get(key)
        if scope is None:
            while len(self._scopes) >= self.max_sessions:
                # ``_make_room_locked`` left fewer than max_sessions
                # sessions, so fewer scopes than this are in use.
                victim = min(
                    self._idle_scopes_locked(),
                    key=lambda idle: self._scopes[idle].last_used,
                )
                del self._scopes[victim]
            scope = self._scopes[key] = _Scope(
                ArtifactCache(self._artifacts_dir), now
            )
        return scope

    def _left_locked(self, session):
        """Date the session's scope by its last use as it leaves."""
        scope = self._scopes[session.scope]
        scope.last_used = max(scope.last_used, session.last_used)

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
            self._left_locked(self._sessions.pop(session_id))
            self._expired += 1
        for key in self._idle_scopes_locked():
            if now - self._scopes[key].last_used > self.ttl_seconds:
                del self._scopes[key]

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
            self._left_locked(self._sessions.pop(victim))
            self._evicted += 1
