"""Measurement helpers: estimate paths, sampling costs, API surface."""

import numpy as np
import pytest

import repro
from repro.analysis.measurements import estimate_workload, measure_workload
from repro.engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from repro.workload.sampling import estimated_costs
from repro.workload.workload import Workload, make_instance


def small_workload():
    sqls = [
        "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = 3 "
        "GROUP BY o.city",
        "SELECT u.city, COUNT(*) FROM users u GROUP BY u.city",
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid GROUP BY u.city",
    ]
    return Workload(
        "W", [make_instance(s, "W", i=i) for i, s in enumerate(sqls)]
    )


def test_public_api_importable():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_estimated_costs_positive(city_db_p):
    workload = small_workload()
    costs = estimated_costs(city_db_p, workload)
    assert len(costs) == 3
    assert (costs > 0).all()


def test_estimate_workload_current_config(city_db_p):
    workload = small_workload()
    estimates = estimate_workload(city_db_p, workload)
    assert estimates.configuration == city_db_p.configuration.name
    assert not estimates.timed_out.any()
    assert len(estimates.sqls) == 3


def test_estimate_workload_hypothetical(city_db_p):
    workload = small_workload()
    one_c = one_column_configuration(city_db_p.catalog, name="1C")
    hypothetical = estimate_workload(
        city_db_p, workload, hypothetical=one_c
    )
    current = estimate_workload(city_db_p, workload)
    assert hypothetical.configuration == "1C"
    # Hypothetically adding indexes never raises the estimated cost.
    assert (hypothetical.elapsed <= current.elapsed + 1e-9).all()


def test_measure_matches_execute(city_db_p):
    workload = small_workload()
    measurement = measure_workload(city_db_p, workload)
    for sql, elapsed in zip(measurement.sqls, measurement.elapsed):
        assert city_db_p.execute(sql).elapsed == elapsed


def test_measure_respects_custom_timeout(city_db_p):
    workload = small_workload()
    measurement = measure_workload(city_db_p, workload, timeout=1e-4)
    assert measurement.timed_out.all()
    assert np.allclose(measurement.elapsed, 1e-4)
    assert measurement.lower_bound_total() == pytest.approx(3e-4)


def test_workload_container_api():
    workload = small_workload()
    assert len(workload) == 3
    assert len(workload.sqls()) == 3
    assert all(q.family == "W" for q in workload)
    assert dict(workload.queries[0].meta) == {"i": "0"}


def test_configuration_names_survive_pipeline(city_db):
    p = primary_configuration(city_db.catalog, name="P")
    city_db.apply_configuration(p)
    measurement = measure_workload(city_db, small_workload())
    assert measurement.configuration == "P"
    explicit = measure_workload(
        city_db, small_workload(), configuration="custom"
    )
    assert explicit.configuration == "custom"
