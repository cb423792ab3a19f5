"""The metrics registry: counters and log-bucket histograms.

A :class:`MetricsRegistry` is a flat, thread-safe namespace of named
instruments.  Producers never hold instrument objects — they call
``registry.counter_add("engine.rows_scanned", n)`` and the registry
creates the counter on first touch.  That keeps the instrumentation
sites trivial (one line, no setup) and makes the whole registry
serializable as a single :meth:`MetricsRegistry.snapshot` dict, which is
what the run report embeds.

Metric names are dotted paths: the first segment is the producing layer
(``engine``, ``optimizer``, ``cache``, ``session``, ``recommender``,
``artifact``), documented in ``docs/observability.md``.
"""

import math
import threading

# Histogram buckets are powers of ten; values outside this exponent range
# are clamped into the edge buckets so the bucket set is fixed and small.
_MIN_EXP = -6
_MAX_EXP = 6


class _Histogram:
    """Count/sum/min/max plus decade (log10) bucket counts."""

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.buckets = {}

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)
        if value <= 0:
            exp = _MIN_EXP - 1          # dedicated "<= 0" bucket
        else:
            exp = min(_MAX_EXP, max(_MIN_EXP, math.floor(math.log10(value))))
        self.buckets[exp] = self.buckets.get(exp, 0) + 1

    def snapshot(self):
        labelled = {}
        for exp in sorted(self.buckets):
            if exp < _MIN_EXP:
                label = "<=0"
            else:
                label = f"[1e{exp},1e{exp + 1})"
            labelled[label] = self.buckets[exp]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "buckets": labelled,
        }


class MetricsRegistry:
    """A thread-safe, create-on-first-touch registry of named metrics.

    Two instrument kinds are supported:

    * **counters** — monotonically increasing integers
      (:meth:`counter_add`);
    * **histograms** — decade-bucketed distributions of observed values
      (:meth:`observe`), used for per-query virtual seconds.

    All mutations take one shared lock, so a :class:`MetricsRegistry`
    may be fed concurrently by every worker of a ``--jobs`` pool;
    counter totals are exact regardless of interleaving.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._histograms = {}

    def counter_add(self, name, value=1):
        """Add ``value`` (default 1) to the counter called ``name``.

        Args:
            name: dotted metric name, e.g. ``"engine.rows_scanned"``.
            value: non-negative increment (coerced to ``int`` so numpy
                integers from the executor stay JSON-serializable).
        """
        value = int(value)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name, value):
        """Record one observation into the histogram called ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(value)

    def snapshot(self):
        """A plain-dict copy of every instrument.

        Returns:
            ``{"counters": {name: int},
            "histograms": {name: {count, sum, min, max, buckets}}}`` —
            the exact shape embedded in the run report's ``metrics``
            block (see ``docs/observability.md``).
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: h.snapshot()
                    for name, h in self._histograms.items()
                },
            }
