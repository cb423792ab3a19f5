"""The observability primitives: recorders, spans, metrics, events."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    recording,
)


# ----------------------------------------------------------------------
# Disabled (NullRecorder) behaviour


def test_null_recorder_is_default_and_disabled():
    assert isinstance(obs.get_recorder(), NullRecorder)
    assert not obs.is_enabled()


def test_disabled_instrumentation_records_nothing():
    # Drive every dispatch helper while the NullRecorder is active...
    with obs.span("some.work", detail=1) as handle:
        handle.set(more=2)
    obs.counter_add("some.counter", 5)
    obs.observe("some.histogram", 0.5)
    obs.event("some_event", payload=True)
    # ...then check a freshly installed recorder sees none of it.
    with recording() as recorder:
        pass
    assert recorder.trace_records() == []
    assert recorder.events() == []
    snapshot = recorder.metrics.snapshot()
    assert snapshot["counters"] == {}
    assert snapshot["histograms"] == {}


def test_null_span_handle_is_shared_and_chainable():
    first = obs.span("a")
    second = obs.span("b", attr=1)
    assert first is second              # one shared no-op instance
    with first as handle:
        assert handle.set(x=1) is handle


# ----------------------------------------------------------------------
# recording() install/restore


def test_recording_installs_and_restores():
    before = obs.get_recorder()
    with recording() as recorder:
        assert obs.get_recorder() is recorder
        assert obs.is_enabled()
    assert obs.get_recorder() is before
    assert not obs.is_enabled()


def test_recording_restores_on_error():
    before = obs.get_recorder()
    with pytest.raises(RuntimeError):
        with recording():
            raise RuntimeError("boom")
    assert obs.get_recorder() is before


# ----------------------------------------------------------------------
# Spans


def test_span_nesting_assigns_parent_ids():
    with recording() as recorder:
        with obs.span("outer") as outer:
            with obs.span("inner", depth=2):
                pass
            outer.set(children=1)
    spans = {r["name"]: r for r in recorder.trace_records()}
    assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
    assert spans["outer"]["parent_id"] is None
    assert spans["outer"]["attrs"]["children"] == 1
    assert spans["inner"]["attrs"]["depth"] == 2
    assert spans["outer"]["wall_s"] >= 0.0


def test_span_stacks_are_per_thread():
    with recording() as recorder:
        barrier = threading.Barrier(2)

        def work(name):
            barrier.wait()              # both threads open spans together
            with obs.span(name):
                barrier.wait()
            return name

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, ["t0", "t1"]))
    # Concurrent spans on different threads must both be roots — neither
    # may adopt the other as a parent.
    records = recorder.trace_records()
    assert [r["parent_id"] for r in records] == [None, None]
    ids = [r["span_id"] for r in records]
    assert len(set(ids)) == 2


# ----------------------------------------------------------------------
# Metrics


def test_counters_aggregate_across_threads():
    with recording() as recorder:
        def bump(_):
            for _i in range(100):
                obs.counter_add("obs_test.hits")
                obs.counter_add("obs_test.bytes", 3)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(bump, range(8)))
    counters = recorder.metrics.snapshot()["counters"]
    assert counters["obs_test.hits"] == 800
    assert counters["obs_test.bytes"] == 2400


def test_counter_coerces_numpy_values_to_int():
    registry = MetricsRegistry()
    registry.counter_add("rows", np.int64(7))
    registry.counter_add("rows", np.int64(5))
    value = registry.snapshot()["counters"]["rows"]
    assert value == 12
    assert type(value) is int


def test_histogram_summary_and_decade_buckets():
    registry = MetricsRegistry()
    for value in (0.5, 5.0, 50.0, 0.0):
        registry.observe("seconds", value)
    hist = registry.snapshot()["histograms"]["seconds"]
    assert hist["count"] == 4
    assert hist["sum"] == pytest.approx(55.5)
    assert hist["min"] == 0.0
    assert hist["max"] == 50.0
    assert hist["buckets"]["<=0"] == 1
    assert hist["buckets"]["[1e-1,1e0)"] == 1
    assert hist["buckets"]["[1e0,1e1)"] == 1
    assert hist["buckets"]["[1e1,1e2)"] == 1


# ----------------------------------------------------------------------
# Events


def test_events_are_ordered_and_filterable():
    recorder = TraceRecorder()
    recorder.event("alpha", n=1)
    recorder.event("beta", n=2)
    recorder.event("alpha", n=3)
    assert [e["seq"] for e in recorder.events()] == [1, 2, 3]
    alphas = recorder.events(kind="alpha")
    assert [e["payload"]["n"] for e in alphas] == [1, 3]


def test_event_payload_may_carry_its_own_kind_field():
    # The measurement events tag A/E/H costs with a payload key named
    # "kind"; the discriminator argument is positional-only so the two
    # cannot collide.
    recorder = TraceRecorder()
    recorder.event("measurement", kind="A", queries=4)
    (event,) = recorder.events()
    assert event["kind"] == "measurement"
    assert event["payload"]["kind"] == "A"
