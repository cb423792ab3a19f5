"""Jobs: bounded queueing, recorded execution, progress relay.

A *job* is one workload submission: either a full experiment driver
(``{"experiment": "fig3"}``) or a family-level measurement
(``{"family": "NREF2J", "configurations": ["P", "1C", "R"]}``).  The
:class:`JobQueue` owns a small worker pool and a hard pending-capacity
bound — submissions beyond it raise :class:`JobQueueFull`, which the
HTTP layer turns into ``429 Too Many Requests``.  Backpressure instead
of buffering: an unbounded queue on a recommender service just converts
overload into unbounded latency.

Execution is *recorded*: each job runs under a fresh
:class:`_JobRecorder` (a :class:`~repro.obs.TraceRecorder` that relays
every finished span into the job's progress feed, so ``GET
/v1/jobs/{id}`` can stream what the engine is doing), and the resulting
:mod:`repro.obs` report — schema-validated ``repro.report/v1`` — is
attached to the job for ``GET /v1/jobs/{id}/report``.  Because the
recorder install point is process-global (that is what lets the
measurement pool's worker threads reach it), recorded execution is
exclusive: ``_recording_lock`` serializes the engine portion of jobs.
Queueing, HTTP traffic, and result fetches all stay concurrent; the
engine's determinism does not depend on this lock, only the span/metric
attribution does.

Lock discipline: the worker callable (``_execute``) and everything it
reaches is submitted to a pool, so every shared-attribute write below
sits under a named lock — ``LCK002`` checks this across call edges.
"""

import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor

from .. import obs
from ..bench.cli import ABLATIONS
from ..bench.context import FAMILY_GENERATORS
from ..bench.experiments import ALL_EXPERIMENTS
from ..engine.systems import by_name as system_by_name
from .sessions import UnknownSessionError

DEFAULT_CAPACITY = 8
DEFAULT_WORKERS = 2
MAX_EVENTS = 512
MAX_FINISHED_JOBS = 256

QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"

CONFIG_NAMES = ("P", "1C", "R")

# Cross-query engine counters surfaced by ``GET /v1/metrics``: the
# shared-subplan cache.
ENGINE_COUNTER_PREFIX = "subplan."


class JobQueueFull(RuntimeError):
    """The pending-job bound is hit; the caller should retry later."""


class UnknownJobError(KeyError):
    """No job with the requested id."""


class BadJobSpec(ValueError):
    """The submitted workload body does not describe a runnable job."""


def parse_spec(body, default_system="A"):
    """Validate a workload-submission body into a normalized spec.

    Args:
        body: decoded JSON object from ``POST .../workloads``.
        default_system: the session's system, used when a family job
            does not name one.

    Returns:
        ``("experiment", {"experiment": id})`` or
        ``("workload", {"system", "family", "configurations"})``.

    Raises:
        BadJobSpec: unknown experiment/family/system/configuration or a
            body that names neither.
    """
    if not isinstance(body, dict):
        raise BadJobSpec("request body must be a JSON object")
    experiment = body.get("experiment")
    family = body.get("family")
    if experiment is not None and family is not None:
        raise BadJobSpec("pass either 'experiment' or 'family', not both")
    if experiment is not None:
        if experiment in ABLATIONS:
            raise BadJobSpec(
                f"ablation {experiment!r} runs via the CLI only"
            )
        if experiment not in ALL_EXPERIMENTS:
            raise BadJobSpec(f"unknown experiment {experiment!r}")
        return "experiment", {"experiment": experiment}
    if family is not None:
        if family not in FAMILY_GENERATORS:
            raise BadJobSpec(f"unknown family {family!r}")
        system = profile_letter(body.get("system", default_system))
        configurations = body.get("configurations", list(CONFIG_NAMES))
        if not isinstance(configurations, list) or not configurations:
            raise BadJobSpec("'configurations' must be a non-empty list")
        unknown = [c for c in configurations if c not in CONFIG_NAMES]
        if unknown:
            raise BadJobSpec(f"unknown configuration(s) {unknown}")
        return "workload", {
            "system": system,
            "family": family,
            "configurations": configurations,
        }
    raise BadJobSpec("body must name an 'experiment' or a 'family'")


def profile_letter(system):
    """The letter of the system profile ``system`` names (``"a"`` is
    ``"A"``), so that a spec, and every artifact key built from it,
    names a profile one way.

    Raises:
        BadJobSpec: ``system`` is not a string naming a profile.
    """
    if not isinstance(system, str):
        raise BadJobSpec("'system' must be a string")
    try:
        return system_by_name(system).name
    except ValueError as err:
        raise BadJobSpec(f"'system': {err}") from err


class Job:
    """One submission's lifecycle, progress feed, result, and report.

    All mutable state is guarded by the job's own lock; snapshots are
    plain JSON-ready dicts.
    """

    def __init__(self, job_id, session_id, tenant, kind, spec):
        self.job_id = job_id
        self.session_id = session_id
        self.tenant = tenant
        self.kind = kind
        self.spec = spec
        self._lock = threading.Lock()
        self._status = QUEUED
        self._error = None
        self._result = None
        self._report = None
        self._events = deque(maxlen=MAX_EVENTS)
        self._seq = 0

    # -- transitions ----------------------------------------------------

    def start(self):
        with self._lock:
            self._status = RUNNING
        self.emit("job.started")

    def finish(self, result, report):
        with self._lock:
            self._result = result
            self._report = report
            self._status = SUCCEEDED
        self.emit("job.finished")

    def fail(self, error):
        with self._lock:
            if self._status in (SUCCEEDED, FAILED):
                return
            self._error = f"{type(error).__name__}: {error}"
            self._status = FAILED
        self.emit("job.failed", error=str(error))

    # -- progress feed --------------------------------------------------

    def emit(self, name, **payload):
        """Append one progress event (bounded; oldest events drop)."""
        with self._lock:
            self._seq += 1
            self._events.append(
                {"seq": self._seq, "name": name, **payload}
            )

    def emit_span(self, span):
        """Relay a finished tracing span into the progress feed."""
        attrs = {
            key: value
            for key, value in span.attrs.items()
            if key not in ("seq", "name", "wall_s")
            and isinstance(value, (str, int, float, bool, type(None)))
        }
        self.emit(f"span.{span.name}", wall_s=round(span.wall_s, 6),
                  **attrs)

    # -- reads ----------------------------------------------------------

    @property
    def status(self):
        with self._lock:
            return self._status

    def snapshot(self, after=0):
        """The job's public JSON shape, with events newer than ``after``.

        The caller polls with the last seen ``cursor`` to receive only
        fresh events; ``cursor`` always reports the newest sequence
        number so the next poll can resume.
        """
        with self._lock:
            events = [e for e in self._events if e["seq"] > after]
            return {
                "id": self.job_id,
                "session": self.session_id,
                "tenant": self.tenant,
                "kind": self.kind,
                "spec": dict(self.spec),
                "status": self._status,
                "error": self._error,
                "result": self._result,
                "events": events,
                "cursor": self._seq,
            }

    def report_document(self):
        """The job's ``repro.report/v1`` dict, or ``None`` until done."""
        with self._lock:
            return self._report


class _JobRecorder(obs.TraceRecorder):
    """A trace recorder that relays finished spans to a job's feed."""

    def __init__(self, job):
        super().__init__()
        self._job = job

    def _finish(self, span):
        super()._finish(span)
        self._job.emit_span(span)


def run_spec(context, kind, spec):
    """Execute a normalized job spec against a tenant context.

    Mirrors the one-shot CLI exactly for ``experiment`` jobs (same span,
    same driver call), which is what makes a served report canonically
    byte-identical to ``python -m repro.bench run <id> --report``.

    Returns:
        A JSON-ready result summary dict.
    """
    if kind == "experiment":
        experiment_id = spec["experiment"]
        with obs.span("bench.experiment", experiment=experiment_id):
            result = ALL_EXPERIMENTS[experiment_id](context)
        return {
            "experiment": result.experiment,
            "title": result.title,
            "text": str(result),
        }
    system = spec["system"]
    family = spec["family"]
    measured = {}
    with obs.span("server.workload", system=system, family=family):
        for config_name in spec["configurations"]:
            measurement = context.measure(system, family, config_name)
            if measurement is None:
                measured[config_name] = None
                continue
            measured[config_name] = {
                "queries": len(measurement.elapsed),
                "total_seconds": float(measurement.elapsed.sum()),
                "timeouts": int(measurement.timed_out.sum()),
            }
    return {"system": system, "family": family, "measured": measured}


class JobQueue:
    """Bounded job intake over a shared worker pool.

    Args:
        store: the server's :class:`~repro.server.sessions.SessionStore`.
        capacity: maximum queued-or-running jobs; beyond it
            :meth:`submit` raises :class:`JobQueueFull` (HTTP 429).
        workers: worker threads draining the queue.  Engine work is
            additionally serialized by the recording lock (see the
            module docstring), so extra workers mainly overlap
            bookkeeping; the default keeps two jobs in flight.
    """

    def __init__(self, store, capacity=DEFAULT_CAPACITY,
                 workers=DEFAULT_WORKERS):
        self.store = store
        self.capacity = max(1, int(capacity))
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(workers)),
            thread_name_prefix="repro-server-job",
        )
        self._lock = threading.Lock()
        self._recording_lock = threading.Lock()
        self._jobs = OrderedDict()
        self._pending = 0
        self._next_id = 0
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._engine_counters = {}

    # ------------------------------------------------------------------
    # Intake

    def submit(self, session, kind, spec):
        """Queue a job for ``session`` (already pinned by the caller's
        ``acquire_job``) and return it.

        Raises:
            JobQueueFull: the pending bound is hit; the session pin is
                released before raising so backpressured submissions do
                not leak ``active_jobs``.
        """
        with self._lock:
            if self._pending >= self.capacity:
                self._rejected += 1
                self.store.release_job(session.session_id)
                raise JobQueueFull(
                    f"{self._pending} jobs pending "
                    f"(capacity {self.capacity})"
                )
            self._pending += 1
            self._next_id += 1
            self._submitted += 1
            job = Job(
                f"j-{self._next_id:06d}",
                session.session_id,
                session.tenant,
                kind,
                spec,
            )
            self._jobs[job.job_id] = job
            self._trim_locked()
        future = self._executor.submit(self._execute, job)
        future.add_done_callback(
            lambda finished: self._finalize(job, finished)
        )
        return job

    def job(self, job_id):
        """Look up a job by id.

        Raises:
            UnknownJobError: unknown (or long-since trimmed) id.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def snapshot(self):
        """Queue counters for ``/v1/metrics`` (a plain dict)."""
        with self._lock:
            return {
                "pending": self._pending,
                "capacity": self.capacity,
                "submitted": self._submitted,
                "rejected": self._rejected,
                "completed": self._completed,
                "failed": self._failed,
            }

    def engine_counters(self):
        """Queue-lifetime cross-query engine counters (a plain dict).

        The cumulative ``subplan.*`` counters of every finished job,
        folded together for ``GET /v1/metrics``.  Read-only aggregation
        after each job's recorder is closed, so nothing here can leak
        into a report.
        """
        with self._lock:
            return dict(self._engine_counters)

    def _absorb_engine_counters(self, counters):
        """Fold one finished job's engine counters into the totals."""
        with self._lock:
            for name, value in counters.items():
                if name.startswith(ENGINE_COUNTER_PREFIX):
                    self._engine_counters[name] = (
                        self._engine_counters.get(name, 0) + value
                    )

    def close(self):
        """Drain and shut down the worker pool."""
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Execution (pool-submitted: every shared write is lock-guarded)

    def _execute(self, job):
        try:
            session = self.store.get(job.session_id)
        except UnknownSessionError as err:
            job.fail(err)
            return
        job.start()
        # The global recorder slot is exclusive while a job's engine
        # work runs, so its spans/metrics (including those emitted by
        # measurement-pool worker threads) land on this job only.
        with self._recording_lock:
            recorder = _JobRecorder(job)
            with obs.recording(recorder):
                result = run_spec(session.context, job.kind, job.spec)
            report = session.context.run_report(
                recorder=recorder, experiments=[_label(job)]
            )
            obs.validate_run_report(report)
        self._absorb_engine_counters(
            recorder.metrics.snapshot().get("counters", {})
        )
        job.finish(result, report)

    def _finalize(self, job, future):
        error = future.exception()
        if error is not None:
            job.fail(error)
        self.store.release_job(job.session_id)
        with self._lock:
            self._pending -= 1
            if job.status == FAILED:
                self._failed += 1
            else:
                self._completed += 1

    def _trim_locked(self):
        finished = (SUCCEEDED, FAILED)
        while len(self._jobs) > MAX_FINISHED_JOBS:
            victim = next(
                (
                    job_id
                    for job_id, job in self._jobs.items()
                    if job.status in finished
                ),
                None,
            )
            if victim is None:
                return
            del self._jobs[victim]


def _label(job):
    """The manifest label of a job (the CLI's experiment-id analogue)."""
    if job.kind == "experiment":
        return job.spec["experiment"]
    return f"{job.spec['system']}/{job.spec['family']}"
