"""Hierarchical tracing spans.

A :class:`Span` is one timed region of the pipeline — planning a query,
measuring a workload, building a configuration.  Spans nest: each thread
keeps its own stack of open spans, and a span opened while another is
open on the *same thread* records it as its parent.  Worker threads of a
``--jobs`` pool therefore start their own span trees (their work has
no meaningful single parent on the submitting thread), which keeps the
trace deterministic in *structure* even though wall-clock numbers vary.

Every span carries two clocks:

* ``wall_s`` — real elapsed seconds (``time.perf_counter`` delta), the
  number profiles care about;
* ``attrs["virtual_s"]`` — when the instrumented region has a meaningful
  virtual-clock cost (query execution, workload measurement), the
  deterministic virtual seconds charged by the cost model.

Span names are dotted, layer-first (``db.execute``, ``session.measure``,
``bench.recommend``); the full vocabulary is listed in
``docs/observability.md``.
"""

from dataclasses import dataclass, field


@dataclass
class Span:
    """One finished (or still-open) region of a trace.

    Attributes:
        span_id: process-unique positive integer, assigned at open time.
        parent_id: ``span_id`` of the enclosing span on the same thread,
            or ``None`` for a root span.
        name: dotted span name (see ``docs/observability.md``).
        start: wall-clock start, seconds since the Unix epoch.
        wall_s: wall-clock duration in seconds (0 while still open).
        attrs: free-form JSON-serializable attributes; the well-known
            keys ``virtual_s`` (virtual seconds) and ``timed_out`` are
            set by the engine integrations.
    """

    span_id: int
    parent_id: object
    name: str
    start: float
    wall_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    def set(self, **attrs):
        """Attach attributes to the span (chainable).

        Args:
            **attrs: JSON-serializable values; keys already present are
                overwritten.

        Returns:
            The span itself, so instrumented code can write
            ``span.set(virtual_s=total)`` inside a ``with`` block.
        """
        self.attrs.update(attrs)
        return self

    def to_record(self):
        """The span as a JSONL trace record (a plain dict).

        Returns:
            ``{"type": "span", "span_id", "parent_id", "name", "start",
            "wall_s", "attrs"}`` — the shape validated by
            :data:`repro.obs.schemas.SPAN_RECORD_SCHEMA`.
        """
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "wall_s": self.wall_s,
            "attrs": dict(self.attrs),
        }
