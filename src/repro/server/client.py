"""A stdlib HTTP client for the tuning server.

Thin :mod:`urllib.request` wrapper used by the tests, the example, and
the CI smoke script — it is also the reference for anyone driving the
API from another language: one method per endpoint, JSON in/out, and a
:meth:`TuningClient.wait` helper that polls a job every
``POLL_SECONDS`` (a fixed interval; it reads no ``Retry-After``) and
relays progress events to an optional callback.  A ``Retry-After``
header the server sends with an error response is parsed onto the
raised :class:`ServerError` as ``retry_after``, for the caller to act
on.

Raises :class:`ServerError` (carrying the HTTP status and the decoded
error body) on any non-2xx response.
"""

import json
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from ..obs.clock import perf_seconds

DEFAULT_TIMEOUT = 30.0
POLL_SECONDS = 0.05


class ServerError(RuntimeError):
    """A non-2xx response from the tuning server.

    Attributes:
        status: HTTP status code.
        payload: decoded JSON error body (``{"error", "status"}``), or
            ``{}`` when the body was not JSON.
        retry_after: parsed ``Retry-After`` header seconds, or ``None``.
    """

    def __init__(self, status, payload, retry_after=None):
        message = payload.get("error") if isinstance(payload, dict) \
            else None
        super().__init__(message or f"HTTP {status}")
        self.status = status
        self.payload = payload if isinstance(payload, dict) else {}
        self.retry_after = retry_after


class TuningClient:
    """Client for one tuning server.

    Args:
        base_url: e.g. ``http://127.0.0.1:8451`` (no trailing slash).
        timeout: per-request socket timeout in seconds.
    """

    def __init__(self, base_url, timeout=DEFAULT_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ------------------------------------------------------

    def _request(self, method, path, body=None, raw=False):
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = Request(
            self.base_url + path, data=data, headers=headers,
            method=method,
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                payload = response.read()
        except HTTPError as err:
            raw_body = err.read()
            try:
                decoded = json.loads(raw_body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                decoded = {}
            retry_after = err.headers.get("Retry-After")
            raise ServerError(
                err.code, decoded,
                retry_after=float(retry_after) if retry_after else None,
            ) from err
        if raw:
            return payload
        return json.loads(payload.decode("utf-8"))

    # -- sessions -------------------------------------------------------

    def create_session(self, tenant, scale=1.0, workload_size=100,
                       timeout=1800.0, seed=405, jobs=None, system="A"):
        """``POST /v1/sessions``; returns the session description.

        ``jobs=None`` names no width: the session takes the server's
        ``--jobs``.
        """
        body = {
            "tenant": tenant,
            "scale": scale,
            "workload_size": workload_size,
            "timeout": timeout,
            "seed": seed,
            "system": system,
        }
        if jobs is not None:
            body["jobs"] = jobs
        return self._request("POST", "/v1/sessions", body=body)

    def sessions(self):
        """``GET /v1/sessions``; returns the live-session list."""
        return self._request("GET", "/v1/sessions")["sessions"]

    def session(self, session_id):
        """``GET /v1/sessions/{id}``."""
        return self._request("GET", f"/v1/sessions/{session_id}")

    def delete_session(self, session_id, drop_artifacts=False):
        """``DELETE /v1/sessions/{id}``; ``drop_artifacts`` also drops
        the session's artifact store unless another session uses it."""
        query = "?drop_artifacts=1" if drop_artifacts else ""
        return self._request("DELETE", f"/v1/sessions/{session_id}{query}")

    # -- jobs -----------------------------------------------------------

    def submit_experiment(self, session_id, experiment):
        """Submit a full experiment driver; returns the job id."""
        reply = self._request(
            "POST", f"/v1/sessions/{session_id}/workloads",
            body={"experiment": experiment},
        )
        return reply["job"]

    def submit_workload(self, session_id, family, system=None,
                        configurations=None):
        """Submit a family-level measurement; returns the job id."""
        body = {"family": family}
        if system is not None:
            body["system"] = system
        if configurations is not None:
            body["configurations"] = configurations
        reply = self._request(
            "POST", f"/v1/sessions/{session_id}/workloads", body=body
        )
        return reply["job"]

    def job(self, job_id, after=0):
        """``GET /v1/jobs/{id}`` with an event cursor."""
        return self._request("GET", f"/v1/jobs/{job_id}?after={after}")

    def wait(self, job_id, timeout=300.0, on_event=None):
        """Poll a job until it settles; returns its final snapshot.

        Args:
            job_id: the id from a submit call.
            timeout: overall deadline in seconds.
            on_event: optional callable invoked with each fresh progress
                event dict as it is observed.

        Raises:
            TimeoutError: the job did not settle before the deadline.
        """
        deadline = perf_seconds() + timeout
        cursor = 0
        while True:
            snapshot = self.job(job_id, after=cursor)
            if on_event is not None:
                for event in snapshot["events"]:
                    on_event(event)
            cursor = snapshot["cursor"]
            if snapshot["status"] in ("succeeded", "failed"):
                return snapshot
            if perf_seconds() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['status']} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(POLL_SECONDS)

    def fetch_report(self, job_id, canonical=False):
        """``GET /v1/jobs/{id}/report`` — raw bytes, byte-comparable
        against a CLI ``--report`` file (use ``canonical=True`` for
        cross-run comparison; see ``docs/server.md``)."""
        suffix = "?canonical=1" if canonical else ""
        return self._request(
            "GET", f"/v1/jobs/{job_id}/report{suffix}", raw=True
        )

    # -- operations -----------------------------------------------------

    def metrics(self):
        """``GET /v1/metrics``."""
        return self._request("GET", "/v1/metrics")

    def health(self):
        """``GET /v1/healthz``."""
        return self._request("GET", "/v1/healthz")
