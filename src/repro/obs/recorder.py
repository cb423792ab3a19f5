"""Recorders: where instrumentation calls go.

The whole observability layer funnels through one process-global
*recorder*.  Two implementations exist:

* :class:`NullRecorder` — the default.  Every method is a ``pass`` and
  :meth:`NullRecorder.span` returns a shared no-op context manager, so
  instrumentation sites cost one attribute lookup and one call when
  observability is off.  Nothing is allocated, nothing is locked, and —
  crucially for the fig3 byte-identity smoke — nothing can perturb the
  virtual clock or any result.
* :class:`TraceRecorder` — collects finished :class:`~repro.obs.spans.Span`
  trees, ordered events, and a :class:`~repro.obs.metrics.MetricsRegistry`,
  and can export the lot as JSONL (:meth:`TraceRecorder.write_trace`).

Instrumented code never imports a recorder class; it calls the
module-level helpers (:func:`span`, :func:`counter_add`, :func:`event`,
…) which dispatch to whatever recorder is installed *at call time*.
Install one with :func:`install` or, preferably, the :func:`recording`
context manager which restores the previous recorder on exit (what the
bench CLI and the tests use).
"""

import itertools
import json
import threading
from contextlib import contextmanager

from .clock import perf_seconds, wall_time
from .metrics import MetricsRegistry
from .spans import Span


class _NullSpanHandle:
    """Reusable, stateless no-op stand-in for an open span."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def set(self, **attrs):
        return self


_NULL_SPAN = _NullSpanHandle()


class NullRecorder:
    """The disabled recorder: every instrumentation call is a no-op.

    ``enabled`` is ``False`` so rare call sites that would do real work
    just to *prepare* observability data (e.g. serializing a per-query
    cost list) can skip it entirely.
    """

    enabled = False

    def span(self, name, **attrs):
        """A no-op context manager (one shared instance, never allocates)."""
        return _NULL_SPAN

    def counter_add(self, name, value=1):
        pass

    def observe(self, name, value):
        pass

    def event(self, kind, /, **payload):
        pass


class _SpanHandle:
    """Context manager that opens/closes one span on a TraceRecorder."""

    __slots__ = ("_recorder", "_span", "_t0")

    def __init__(self, recorder, name, attrs):
        self._recorder = recorder
        self._span = Span(
            span_id=0,              # assigned at __enter__
            parent_id=None,
            name=name,
            start=0.0,
            attrs=dict(attrs),
        )
        self._t0 = 0.0

    def __enter__(self):
        recorder = self._recorder
        stack = recorder._stack()
        span = self._span
        span.span_id = next(recorder._ids)
        span.parent_id = stack[-1].span_id if stack else None
        span.start = wall_time()
        stack.append(span)
        self._t0 = perf_seconds()
        return span

    def __exit__(self, *exc_info):
        span = self._span
        span.wall_s = perf_seconds() - self._t0
        stack = self._recorder._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self._recorder._finish(span)
        return False


class TraceRecorder:
    """Collects spans, events, and metrics for one observed run.

    The recorder is thread-safe: span parentage is tracked per thread
    (each ``--jobs`` worker grows its own span tree), while span
    ids, the finished-span list, the event log, and the metrics registry
    are shared under locks.

    Attributes:
        metrics: the run's :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    enabled = True

    def __init__(self):
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._event_seq = itertools.count(1)
        self._finished = []
        self._events = []
        self._local = threading.local()

    # -- span plumbing --------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span):
        with self._lock:
            self._finished.append(span)

    def span(self, name, **attrs):
        """Open a span named ``name`` when entered as a context manager.

        Args:
            name: dotted span name (``"db.execute"``, …).
            **attrs: initial attributes; the yielded
                :class:`~repro.obs.spans.Span` accepts more via ``set``.

        Returns:
            A context manager yielding the open span.
        """
        return _SpanHandle(self, name, attrs)

    # -- metrics --------------------------------------------------------

    def counter_add(self, name, value=1):
        self.metrics.counter_add(name, value)

    def observe(self, name, value):
        self.metrics.observe(name, value)

    # -- events ---------------------------------------------------------

    def event(self, kind, /, **payload):
        """Append one ordered, structured event to the run log.

        Events carry data that is not a duration: configuration
        fingerprints (``kind="configuration"``) and per-query workload
        cost breakdowns (``kind="measurement"``).

        Args:
            kind: event discriminator (see ``docs/observability.md``).
                Positional-only, so payloads may themselves carry a
                ``kind`` field (the measurement A/E/H tag does).
            **payload: JSON-serializable event body.
        """
        with self._lock:
            self._events.append(
                {"type": "event", "seq": next(self._event_seq),
                 "kind": kind, "payload": payload}
            )

    # -- export ---------------------------------------------------------

    def events(self, kind=None):
        """Recorded events (copies), optionally filtered by ``kind``."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        return events

    def trace_records(self):
        """Every span and event as JSONL-ready dicts.

        Spans come first (ordered by ``span_id``), then events (ordered
        by ``seq``); both orders are deterministic for a serial run.
        """
        with self._lock:
            spans = sorted(self._finished, key=lambda s: s.span_id)
            events = list(self._events)
        return [s.to_record() for s in spans] + events

    def write_trace(self, path):
        """Write the trace as JSON Lines (one record per line).

        Args:
            path: destination file path (parent directory must exist).

        Returns:
            The number of records written.
        """
        records = self.trace_records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        return len(records)


# ----------------------------------------------------------------------
# The process-global recorder

_active = NullRecorder()


def get_recorder():
    """The currently installed recorder (a NullRecorder by default)."""
    return _active


def install(recorder):
    """Install ``recorder`` globally; returns the previous recorder.

    Passing ``None`` installs a fresh :class:`NullRecorder` (i.e.
    disables observability).
    """
    global _active
    previous = _active
    _active = recorder if recorder is not None else NullRecorder()
    return previous


@contextmanager
def recording(recorder=None):
    """Run a block with ``recorder`` installed, then restore the old one.

    Args:
        recorder: the recorder to install; ``None`` creates a fresh
            :class:`TraceRecorder`.

    Yields:
        The installed recorder.
    """
    if recorder is None:
        recorder = TraceRecorder()
    previous = install(recorder)
    try:
        yield recorder
    finally:
        install(previous)


# ----------------------------------------------------------------------
# Dispatch helpers — what instrumented modules actually call.  They look
# up the active recorder at call time, so `recording(...)` affects code
# that imported these functions long before.

def span(name, **attrs):
    """Open a span on the active recorder (no-op when disabled)."""
    return _active.span(name, **attrs)


def counter_add(name, value=1):
    """Increment a counter on the active recorder (no-op when disabled)."""
    _active.counter_add(name, value)


def observe(name, value):
    """Record a histogram observation (no-op when disabled)."""
    _active.observe(name, value)


def event(kind, /, **payload):
    """Record a structured event (no-op when disabled)."""
    _active.event(kind, **payload)


def is_enabled():
    """Whether a real (non-null) recorder is installed."""
    return _active.enabled
