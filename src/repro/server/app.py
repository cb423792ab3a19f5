"""The HTTP surface: routing, JSON encoding, and error mapping.

Built entirely on the stdlib (:mod:`http.server` with
``ThreadingHTTPServer``) — the service adds no dependencies over the
one-shot CLI.  The handler is deliberately thin: it decodes JSON, maps
paths onto :class:`TuningService` methods, and translates the domain
errors into status codes:

========================================  ======
:class:`~repro.server.jobs.BadJobSpec`    ``400``
a bad session setting                     ``400``
unknown session / job id                  ``404``
queue full (backpressure)                 ``429``
store full, nothing evictable             ``503``
anything else                             ``500``
========================================  ======

``429`` responses carry a ``Retry-After`` header so well-behaved clients
(:mod:`repro.server.client`) can back off instead of hammering.

Reports are served exactly as :func:`repro.obs.write_report` lays them
out on disk (pretty-printed, key-sorted, trailing newline), so the HTTP
body of ``GET /v1/jobs/{id}/report`` can be byte-compared against a CLI
``--report`` file; ``?canonical=1`` serves the canonical form (stage
wall-clock zeroed, see :func:`repro.obs.canonicalize_run_report`) for
exact comparison across runs.
"""

import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..bench.context import BenchSettings
from .jobs import BadJobSpec, JobQueue, JobQueueFull, UnknownJobError, \
    parse_spec, profile_letter
from .sessions import SessionLimitError, SessionStore, UnknownSessionError

MAX_BODY_BYTES = 1 << 20

_ROUTES = (
    ("POST", re.compile(r"^/v1/sessions$"), "create_session"),
    ("GET", re.compile(r"^/v1/sessions$"), "list_sessions"),
    ("GET", re.compile(r"^/v1/sessions/(?P<sid>[\w-]+)$"), "get_session"),
    ("DELETE", re.compile(r"^/v1/sessions/(?P<sid>[\w-]+)$"),
     "delete_session"),
    ("POST", re.compile(r"^/v1/sessions/(?P<sid>[\w-]+)/workloads$"),
     "submit_workload"),
    ("GET", re.compile(r"^/v1/jobs/(?P<jid>[\w-]+)$"), "get_job"),
    ("GET", re.compile(r"^/v1/jobs/(?P<jid>[\w-]+)/report$"),
     "get_report"),
    ("GET", re.compile(r"^/v1/metrics$"), "get_metrics"),
    ("GET", re.compile(r"^/v1/healthz$"), "get_health"),
)


class ApiError(Exception):
    """An error with a definite HTTP status (raised by service methods)."""

    def __init__(self, status, message, retry_after=None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _positive(body, field, default):
    """A finite number above 0, as a ``float`` (a boolean is no
    number)."""
    value = body.get(field, default)
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:       # an integer too large for a float
            pass
    if not math.isfinite(number) or number <= 0:
        raise ApiError(400, f"'{field}' must be a finite number > 0")
    return number


def _integer(body, field, default, minimum):
    """An ``int`` of at least ``minimum`` (a boolean is no integer)."""
    value = body.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise ApiError(400, f"'{field}' must be an integer >= {minimum}")
    return value


def _session_settings(body, default_jobs):
    """Validate a ``POST /v1/sessions`` body's settings.

    Returns:
        ``(BenchSettings, system)``.

    Raises:
        ApiError: ``400`` naming the first bad field.
    """
    settings = BenchSettings(
        scale=_positive(body, "scale", 1.0),
        workload_size=_integer(body, "workload_size", 100, 1),
        timeout=_positive(body, "timeout", 1800.0),
        seed=_integer(body, "seed", 405, 0),
        jobs=_integer(body, "jobs", default_jobs, 0),
    )
    try:
        system = profile_letter(body.get("system", "A"))
    except BadJobSpec as err:
        raise ApiError(400, str(err)) from err
    return settings, system


def _report_bytes(report):
    """Serialize a report exactly like :func:`repro.obs.write_report`."""
    return (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


class TuningService:
    """The route targets: every method takes (match, query, body) and
    returns ``(status, payload)`` — payload is a JSON-ready dict, or a
    raw ``bytes`` body for the report endpoint."""

    def __init__(self, store, queue):
        self.store = store
        self.queue = queue

    # -- sessions -------------------------------------------------------

    def create_session(self, match, query, body):
        if not isinstance(body, dict):
            raise ApiError(400, "request body must be a JSON object")
        tenant = body.get("tenant")
        if not tenant or not isinstance(tenant, str):
            raise ApiError(400, "'tenant' (non-empty string) is required")
        settings, system = _session_settings(body, self.store.jobs)
        try:
            session = self.store.create(
                tenant, settings=settings, system=system
            )
        except SessionLimitError as err:
            raise ApiError(503, str(err)) from err
        return 201, session.describe()

    def list_sessions(self, match, query, body):
        return 200, {
            "sessions": [s.describe() for s in self.store.sessions()]
        }

    def get_session(self, match, query, body):
        try:
            session = self.store.get(match.group("sid"))
        except UnknownSessionError as err:
            raise ApiError(404, f"unknown session {err}") from err
        return 200, session.describe()

    def delete_session(self, match, query, body):
        session_id = match.group("sid")
        drop = query.get("drop_artifacts", ["0"])[0] in ("1", "true")
        try:
            self.store.remove(session_id, drop_artifacts=drop)
        except UnknownSessionError as err:
            raise ApiError(404, f"unknown session {err}") from err
        except SessionLimitError as err:
            raise ApiError(409, str(err)) from err
        return 200, {"deleted": session_id}

    # -- jobs -----------------------------------------------------------

    def submit_workload(self, match, query, body):
        session_id = match.group("sid")
        try:
            session = self.store.acquire_job(session_id)
        except UnknownSessionError as err:
            raise ApiError(404, f"unknown session {err}") from err
        try:
            kind, spec = parse_spec(body, default_system=session.system)
        except BadJobSpec as err:
            self.store.release_job(session_id)
            raise ApiError(400, str(err)) from err
        try:
            job = self.queue.submit(session, kind, spec)
        except JobQueueFull as err:
            # submit() released the session pin before raising.
            raise ApiError(429, str(err), retry_after=1) from err
        return 202, {"job": job.job_id, "status": job.status}

    def get_job(self, match, query, body):
        after = 0
        if "after" in query:
            try:
                after = int(query["after"][0])
            except ValueError as err:
                raise ApiError(400, "'after' must be an integer") from err
        try:
            job = self.queue.job(match.group("jid"))
        except UnknownJobError as err:
            raise ApiError(404, f"unknown job {err}") from err
        return 200, job.snapshot(after=after)

    def get_report(self, match, query, body):
        try:
            job = self.queue.job(match.group("jid"))
        except UnknownJobError as err:
            raise ApiError(404, f"unknown job {err}") from err
        report = job.report_document()
        if report is None:
            raise ApiError(
                409, f"job {job.job_id} is {job.status}; no report yet"
            )
        if query.get("canonical", ["0"])[0] in ("1", "true"):
            report = obs.canonicalize_run_report(report)
        return 200, _report_bytes(report)

    # -- operations -----------------------------------------------------

    def get_metrics(self, match, query, body):
        return 200, {
            "sessions": self.store.snapshot(),
            "jobs": self.queue.snapshot(),
            "engine": self.queue.engine_counters(),
            "artifacts": self.store.artifacts_snapshot(),
        }

    def get_health(self, match, query, body):
        return 200, {"status": "ok", "sessions": len(self.store)}


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`TuningService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-tuning/1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_DELETE(self):
        self._dispatch("DELETE")

    def _dispatch(self, method):
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        for route_method, pattern, target in _ROUTES:
            match = pattern.match(parts.path)
            if match is None:
                continue
            if route_method != method:
                continue
            handler = getattr(self.server.service, target)
            try:
                body = self._read_body() if method == "POST" else None
                status, payload = handler(match, query, body)
            except ApiError as err:
                self._send_error(err)
                return
            except (SystemExit, KeyboardInterrupt):
                raise
            except Exception as err:  # pragma: no cover - defensive
                self._send_error(ApiError(500, f"internal error: {err}"))
                raise
            self._send(status, payload)
            return
        self._send_error(ApiError(404, f"no route for {method} {parts.path}"))

    def _read_body(self):
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise ApiError(413, "request body too large")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ApiError(400, f"invalid JSON body: {err}") from err

    def _send(self, status, payload):
        if isinstance(payload, bytes):
            body = payload
            content_type = "application/json"
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode(
                "utf-8"
            )
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, err):
        body = (
            json.dumps({"error": str(err), "status": err.status},
                       sort_keys=True) + "\n"
        ).encode("utf-8")
        self.send_response(err.status)
        self.send_header("Content-Type", "application/json")
        if err.retry_after is not None:
            self.send_header("Retry-After", str(err.retry_after))
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TuningServer:
    """The assembled service: store + queue + threaded HTTP server.

    Args:
        host: bind address (default loopback).
        port: TCP port; ``0`` picks a free one (tests, examples).
        max_sessions: resident-session cap, and the cap on retained
            scope stores (LRU eviction beyond it).
        session_ttl: idle seconds before a session, or a scope store no
            session uses, expires.
        queue_capacity: pending-job bound (429 beyond it).
        workers: job worker threads.
        measure_jobs: the ``jobs`` (measurement-pool width) of a
            session whose request names none (``0`` or ``1``: serial).
        artifacts_dir: optional shared on-disk artifact directory
            (tenant-scoped keys keep it safe to share).
        verbose: log HTTP requests to stderr.
    """

    def __init__(self, host="127.0.0.1", port=0, max_sessions=8,
                 session_ttl=3600.0, queue_capacity=8, workers=2,
                 measure_jobs=0, artifacts_dir=None, verbose=False):
        self.store = SessionStore(
            max_sessions=max_sessions,
            ttl_seconds=session_ttl,
            jobs=measure_jobs,
            artifacts_dir=artifacts_dir,
        )
        self.queue = JobQueue(
            self.store, capacity=queue_capacity, workers=workers
        )
        self.service = TuningService(self.store, self.queue)
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self.service
        self.httpd.verbose = verbose
        self._thread = None

    @property
    def address(self):
        """``(host, port)`` actually bound (port resolved if 0)."""
        return self.httpd.server_address[:2]

    @property
    def base_url(self):
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        """Serve in a daemon thread; returns the base URL."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-server-http",
            daemon=True,
        )
        self._thread.start()
        return self.base_url

    def serve_forever(self):
        """Serve on the calling thread (the ``__main__`` path)."""
        self.httpd.serve_forever()

    def close(self):
        """Stop serving and drain the job pool."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.queue.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
