"""The benchmark's own tracing: spans recorded from outside ``src/``.

A traced run wraps the *public* functions at each layer boundary of the
program (the table in :func:`boundaries`) with a span, so a call made
deep inside ``BenchContext.database()`` still shows up under the layer
that did the work.  Nothing inside ``src/`` is edited; the wrappers are
installed for the duration of one run and removed afterwards.  An
untraced run installs nothing.

Spans live in memory as small lists and are written out once, when the
run ends.  A span's *self time* is its duration minus the part of its
interval that its child spans cover, so the self times of one thread's
span tree add up to the duration of its root.
"""

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# Span fields, by position (a list per span keeps the hot path cheap).
ID, NAME, START, END, PARENT, COUNT = range(6)


class Tracer:
    """Collects spans; one parent stack per thread."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None):
        """Start a span; ``parent`` overrides the thread's current span
        (a worker thread hangs its first span under the phase that
        started it)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][ID]
        span = [next(self._ids), name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span, count=None):
        span[END] = time.perf_counter()
        span[COUNT] = count
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, parent=None):
        span = self.open(name, parent)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name, count=None):
        """``fn`` with a span around every call.  ``count``, given the
        call's arguments, returns the amount of work the call was asked
        to do (rows to index, rows to insert)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(
                    span, count(*args, **kwargs) if count else None
                )

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        saved = []
        try:
            for owner, key, name, count in boundaries():
                original = _get(owner, key)
                saved.append((owner, key, original))
                _set(owner, key, self.wrap(original, name, count))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                _set(owner, key, original)

    def write(self, path):
        """One JSON object per span: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span[ID], "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "run": self.run_id,
                }
                if span[COUNT] is not None:
                    record["count"] = span[COUNT]
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    """The untraced run's tracer: spans cost one generator frame."""

    spans = ()

    @contextlib.contextmanager
    def span(self, name, parent=None):
        yield None

    @contextlib.contextmanager
    def installed(self):
        yield self


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def boundaries():
    """``(owner, attribute, span name, work count)`` per layer boundary.

    The span name's first segment is the layer.  Each entry is a public
    function or method that the layers above reach through the owner
    named here, so replacing the attribute is enough to see every call.
    """
    from repro.bench import context
    from repro.datagen import nref, tpch
    from repro.engine.database import Database
    from repro.index.data import IndexData
    from repro.recommender.whatif import WhatIfRecommender
    from repro.runtime.session import MeasurementSession
    from repro.storage.encoding import DictionaryCache

    def rows_indexed(self, definition, table, *args, **kwargs):
        return table.row_count

    def rows_inserted(self, table_name, columns):
        return len(next(iter(columns.values())))

    def queries(self, workload, *args, **kwargs):
        return len(workload)

    table = [
        (nref, "generate_nref", "datagen.generate", None),
        (tpch, "generate_tpch", "datagen.generate", None),
        (Database, "load_table", "storage.load_table", None),
        (DictionaryCache, "dictionary", "storage.dictionary", None),
        (Database, "collect_statistics", "stats.collect", None),
        (Database, "apply_configuration", "index.apply_configuration",
         None),
        (IndexData, "__init__", "index.build", rows_indexed),
        (Database, "bind", "sql.bind", None),
        (Database, "plan", "optimizer.plan", None),
        (Database, "hypothetical_env", "optimizer.hypothetical_env", None),
        (Database, "estimate_hypothetical", "optimizer.what_if", None),
        (Database, "estimated_configuration_bytes",
         "optimizer.configuration_bytes", None),
        (Database, "execute", "executor.execute", None),
        (Database, "insert_rows", "engine.insert_rows", rows_inserted),
        (WhatIfRecommender, "recommend", "recommender.recommend", None),
        (MeasurementSession, "measure", "runtime.measure", queries),
    ]
    table += [
        (context.FAMILY_GENERATORS, family, "workload.generate", None)
        for family in context.FAMILY_GENERATORS
    ]
    return table


# ----------------------------------------------------------------------
# Reading a finished trace

def layer_of(span):
    return span[NAME].split(".", 1)[0]


def children_of(spans):
    """``{parent id: [child spans]}`` (top-level spans under ``None``)."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
    return children


def self_times(spans):
    """``{span id: self seconds}``: duration minus the union of the
    intervals its children cover (children of different threads may
    overlap, so their durations cannot simply be summed)."""
    children = children_of(spans)
    result = {}
    for span in spans:
        covered, edge = 0.0, span[START]
        for child in sorted(children[span[ID]], key=lambda c: c[START]):
            start = max(child[START], edge)
            if child[END] > start:
                covered += child[END] - start
                edge = child[END]
        result[span[ID]] = (span[END] - span[START]) - covered
    return result


def descendants(spans, roots):
    """Every span at or below the given root spans."""
    children = children_of(spans)
    found, pending = [], list(roots)
    while pending:
        span = pending.pop()
        found.append(span)
        pending.extend(children[span[ID]])
    return found


def layer_self_seconds(spans, own):
    """``{layer: summed self seconds}`` of ``spans``, given the
    :func:`self_times` of the trace they come from."""
    totals = defaultdict(float)
    for span in spans:
        totals[layer_of(span)] += own[span[ID]]
    return totals


def by_name(spans):
    """``{span name: [spans]}``."""
    index = defaultdict(list)
    for span in spans:
        index[span[NAME]].append(span)
    return index


# ----------------------------------------------------------------------
# Counters

def counter_recorder():
    """A recorder for ``obs.recording()`` that keeps the program's
    counters and drops its spans and events — the benchmark records its
    own spans, and the program's would only add cost to a traced run."""
    from repro import obs

    class CounterRecorder(obs.NullRecorder):
        def __init__(self):
            self.counters = defaultdict(int)

        def counter_add(self, name, value=1):
            self.counters[name] += int(value)

    return CounterRecorder()
