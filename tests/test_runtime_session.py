"""MeasurementSession: parallel determinism, timeouts, weights, stats."""

import numpy as np
import pytest

from repro.analysis.measurements import estimate_workload, measure_workload
from repro.engine.configuration import one_column_configuration
from repro.runtime.session import MeasurementSession
from repro.workload.nref_families import generate_nref2j
from repro.workload.sampling import sample_benchmark_workload
from repro.workload.workload import Workload, make_instance


def small_workload(weights=(1.0, 1.0, 1.0)):
    sqls = [
        "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = 3 "
        "GROUP BY o.city",
        "SELECT u.city, COUNT(*) FROM users u GROUP BY u.city",
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid GROUP BY u.city",
    ]
    return Workload(
        "W",
        [
            make_instance(s, "W", weight=w, i=i)
            for i, (s, w) in enumerate(zip(sqls, weights))
        ],
    )


def nref2j_sample(db, size=10):
    full = generate_nref2j(db)
    return sample_benchmark_workload(db, full, size=size, seed=7)


# ----------------------------------------------------------------------
# Determinism: parallel == serial, bit for bit

def test_parallel_measure_bit_identical_on_nref2j(tiny_nref):
    workload = nref2j_sample(tiny_nref)
    with MeasurementSession(tiny_nref, jobs=1) as session:
        serial = session.measure(workload)
    tiny_nref.invalidate_caches()
    with MeasurementSession(tiny_nref, jobs=4) as session:
        parallel = session.measure(workload)
    assert np.array_equal(serial.elapsed, parallel.elapsed)
    assert np.array_equal(serial.timed_out, parallel.timed_out)
    assert serial.sqls == parallel.sqls
    assert np.array_equal(serial.weights, parallel.weights)


def test_estimate_on_a_wide_session_is_serial(tiny_nref):
    """Estimates are priced on the calling thread whatever the width:
    a ``jobs=4`` session returns the serial costs and opens no pool."""
    workload = nref2j_sample(tiny_nref)
    one_c = one_column_configuration(tiny_nref.catalog, name="1C")
    with MeasurementSession(tiny_nref, jobs=1) as session:
        serial_e = session.estimate(workload)
        serial_h = session.estimate(workload, hypothetical=one_c)
    tiny_nref.invalidate_caches()
    with MeasurementSession(tiny_nref, jobs=4) as session:
        wide_e = session.estimate(workload)
        wide_h = session.estimate(workload, hypothetical=one_c)
        assert session._pool is None
    assert np.array_equal(serial_e.elapsed, wide_e.elapsed)
    assert np.array_equal(serial_h.elapsed, wide_h.elapsed)
    assert wide_h.configuration == "1C"


def test_parallel_timeouts_bit_identical(tiny_nref):
    workload = nref2j_sample(tiny_nref)
    with MeasurementSession(tiny_nref, jobs=1) as session:
        serial = session.measure(workload, timeout=1e-5)
    with MeasurementSession(tiny_nref, jobs=4) as session:
        parallel = session.measure(workload, timeout=1e-5)
    assert serial.timed_out.all()
    assert np.array_equal(serial.elapsed, parallel.elapsed)
    assert np.array_equal(serial.timed_out, parallel.timed_out)
    assert np.allclose(parallel.elapsed, 1e-5)


# ----------------------------------------------------------------------
# The wrapper API

def test_jobs_argument_controls_wrappers(city_db_p):
    parallel = measure_workload(city_db_p, small_workload(), jobs=4)
    serial = measure_workload(city_db_p, small_workload(), jobs=1)
    assert np.array_equal(parallel.elapsed, serial.elapsed)


def test_weights_propagate_through_measure_and_estimate(city_db_p):
    workload = small_workload(weights=(3.0, 1.0, 2.0))
    measured = measure_workload(city_db_p, workload)
    estimated = estimate_workload(city_db_p, workload)
    assert np.array_equal(measured.weights, [3.0, 1.0, 2.0])
    assert np.array_equal(estimated.weights, [3.0, 1.0, 2.0])
    # Weighted totals follow the bag semantics of Section 2.2.
    expected = float((measured.elapsed * measured.weights).sum())
    assert measured.completed_total() == pytest.approx(expected)


def test_session_is_reusable_across_batches(city_db_p):
    with MeasurementSession(city_db_p, jobs=2) as session:
        first = session.measure(small_workload())
        second = session.measure(small_workload())
    assert np.array_equal(first.elapsed, second.elapsed)


# ----------------------------------------------------------------------
# Statistics

def test_session_stats_report_cache_hit_rates(city_db_p):
    with MeasurementSession(city_db_p, jobs=2) as session:
        session.measure(small_workload())
        session.measure(small_workload())     # warm: plans all cached
    stats = city_db_p.cache_stats()
    assert stats["plan_cache"]["hits"] >= 3
    assert stats["plan_cache"]["hit_rate"] > 0
