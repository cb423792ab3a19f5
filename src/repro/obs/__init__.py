"""repro.obs — the observability layer.

First-class instrumentation for the whole measurement pipeline:

* **spans** (:mod:`repro.obs.spans`) — hierarchical timed regions
  carrying wall-clock *and* virtual-clock time (``db.execute``,
  ``session.measure``, ``bench.recommend``, …);
* **metrics** (:mod:`repro.obs.metrics`) — a thread-safe registry of
  counters/histograms fed by the engine (rows scanned, pages
  read), the optimizer (plans enumerated, what-if calls, hypothetical
  index probes), and the runtime caches (hits/misses/evictions);
* **recorders** (:mod:`repro.obs.recorder`) — the dispatch point.  A
  :class:`NullRecorder` is installed by default, making every
  instrumentation site a no-op: observability is strictly zero-cost and
  side-effect-free when disabled, which is what keeps traced and
  untraced bench runs byte-identical.  Install a :class:`TraceRecorder`
  (usually via :func:`recording`) to collect spans, events, and metrics;
* **exports** — a JSONL trace (:meth:`TraceRecorder.write_trace`) and a
  structured per-run report (:mod:`repro.obs.report`), both validated
  against pinned schemas (:mod:`repro.obs.schemas`,
  ``python -m repro.obs.validate``).

The bench CLI exposes all of it as ``--trace FILE``, ``--metrics`` and
``--report FILE``; see ``docs/observability.md`` for the span/metric
vocabulary and the file schemas.
"""

from .clock import perf_seconds, wall_time
from .metrics import MetricsRegistry
from .recorder import (
    NullRecorder,
    TraceRecorder,
    counter_add,
    event,
    get_recorder,
    install,
    is_enabled,
    observe,
    recording,
    span,
)
from .report import (
    REPORT_SCHEMA_ID,
    build_run_report,
    canonicalize_run_report,
    render_metrics,
    render_text,
    write_report,
)
from .schemas import (
    EVENT_RECORD_SCHEMA,
    RUN_REPORT_SCHEMA,
    SPAN_RECORD_SCHEMA,
    SchemaError,
    validate_run_report,
    validate_trace_record,
)
from .spans import Span

__all__ = [
    "EVENT_RECORD_SCHEMA",
    "MetricsRegistry",
    "NullRecorder",
    "REPORT_SCHEMA_ID",
    "RUN_REPORT_SCHEMA",
    "SPAN_RECORD_SCHEMA",
    "SchemaError",
    "Span",
    "TraceRecorder",
    "build_run_report",
    "canonicalize_run_report",
    "counter_add",
    "event",
    "get_recorder",
    "install",
    "is_enabled",
    "observe",
    "perf_seconds",
    "recording",
    "render_metrics",
    "render_text",
    "span",
    "validate_run_report",
    "validate_trace_record",
    "wall_time",
    "write_report",
]
