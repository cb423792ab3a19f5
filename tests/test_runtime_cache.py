"""Cache correctness: fingerprints, plan/estimate memoization, invalidation."""

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engine.configuration import (
    Configuration,
    one_column_configuration,
    primary_configuration,
)
from repro.index.definition import IndexDefinition
from repro.common.cache import BoundedCache
from repro.optimizer.plans import explain
from repro.views.matview import MatViewDefinition, ViewColumn

from conftest import city_columns, load_city_database

GROUPED = (
    "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = 3 GROUP BY o.city"
)
SCAN = "SELECT u.city, COUNT(*) FROM users u GROUP BY u.city"
JOIN = (
    "SELECT u.city, COUNT(*) FROM users u, orders o "
    "WHERE u.uid = o.uid GROUP BY u.city"
)
SQLS = [GROUPED, SCAN, JOIN]

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Fingerprints

def test_fingerprint_is_content_based(city_db):
    p1 = primary_configuration(city_db.catalog, name="P")
    p2 = primary_configuration(city_db.catalog, name="initial")
    assert p1.fingerprint == p2.fingerprint          # name is excluded
    one_c = one_column_configuration(city_db.catalog)
    assert one_c.fingerprint != p1.fingerprint


def test_fingerprint_order_insensitive():
    a = IndexDefinition(table="users", columns=("uid",))
    b = IndexDefinition(table="orders", columns=("oid",))
    assert (
        Configuration(name="x", indexes=(a, b)).fingerprint
        == Configuration(name="y", indexes=(b, a)).fingerprint
    )


FINGERPRINTS = """
from repro.engine.configuration import Configuration, content_fingerprint
from repro.index.definition import IndexDefinition
from repro.views.matview import MatViewDefinition, ViewColumn

views = (
    MatViewDefinition(
        tables=("orders",), group_columns=(ViewColumn("orders", "uid"),),
    ),
    MatViewDefinition(
        tables=("users", "orders"),
        join_pred=(("users", "uid"), ("orders", "uid")),
        group_columns=(
            ViewColumn("users", "city"), ViewColumn("orders", "city"),
        ),
    ),
)
indexes = tuple(
    IndexDefinition(table=table, columns=columns)
    for table, columns in (
        ("users", ("uid",)), ("users", ("city",)),
        ("users", ("city", "uid")), ("orders", ("oid",)),
        ("orders", ("uid",)), ("orders", ("city", "uid")),
    )
)
print(content_fingerprint(("ix", "users", ("uid",), False), 1.0, 100))
print(Configuration(name="R", indexes=indexes, views=views).fingerprint)
"""


def test_fingerprint_stable_across_processes():
    # The artifact store names its files by fingerprint, so a
    # fingerprint must not depend on PYTHONHASHSEED (set and dict order
    # over strings) or on object ids: two processes that differ only in
    # the hash seed print the same ones.
    printed = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", FINGERPRINTS],
            env=env, capture_output=True, text=True, check=True,
        )
        printed.append(proc.stdout.split())
    assert printed[0] == printed[1], printed
    assert [len(key) for key in printed[0]] == [16, 16]


def test_database_tracks_current_fingerprint(city_db):
    fp_default = city_db.configuration_fingerprint
    city_db.apply_configuration(one_column_configuration(city_db.catalog))
    assert city_db.configuration_fingerprint != fp_default
    city_db.apply_configuration(primary_configuration(city_db.catalog))
    assert city_db.configuration_fingerprint == fp_default


# ----------------------------------------------------------------------
# The BoundedCache primitive

def test_bounded_cache_lru_eviction_and_stats():
    cache = BoundedCache("t", maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refreshes "a"
    cache.put("c", 3)                   # evicts "b", the LRU entry
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1
    assert cache.stats.misses == 1
    assert cache.stats.hits == 3
    cache.invalidate()
    assert len(cache) == 0
    assert cache.stats.invalidations == 1


def test_bounded_cache_backing_validates_entries_by_identity():
    cache = BoundedCache("t", maxsize=4)
    old, new = np.arange(3), np.arange(3)
    assert cache.get_or_build("k", lambda: "old", backing=(old,)) == "old"
    assert cache.get_or_build("k", lambda: "x", backing=(old,)) == "old"
    # An equal but distinct array is other data: a miss that replaces
    # the entry, which then no longer serves the old array.
    assert cache.get_or_build("k", lambda: "new", backing=(new,)) == "new"
    assert cache.get("k", backing=(old,)) is None
    # Neither does a lookup naming no arrays, or another number of them.
    assert cache.get("k") is None
    assert cache.get("k", backing=(new, new)) is None
    assert cache.get("k", backing=(new,)) == "new"
    assert len(cache) == 1
    assert (cache.stats.hits, cache.stats.misses) == (2, 5)


# ----------------------------------------------------------------------
# The bind cache: counted under threads, bounded, catalog-lifetime

def test_concurrent_binds_are_all_counted(city_db_p):
    """Session workers bind concurrently; an unlocked ``+=`` would lose
    some of the N x M lookups."""
    threads, rounds = 8, 300
    sqls = [
        f"SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = {u} "
        "GROUP BY o.city"
        for u in range(5)
    ]
    start = threading.Barrier(threads)

    def work():
        start.wait(timeout=30)
        for i in range(rounds):
            city_db_p.bind(sqls[i % len(sqls)])

    before = city_db_p.cache_stats()["bind_cache"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    after = city_db_p.cache_stats()["bind_cache"]
    lookups = (after["hits"] + after["misses"]
               - before["hits"] - before["misses"])
    assert lookups == threads * rounds


def test_bind_cache_is_bounded_and_survives_invalidation(monkeypatch):
    from repro.engine.database import Database

    monkeypatch.setattr(Database, "BIND_CACHE_SIZE", 4)
    db = load_city_database()
    for uid in range(10):
        db.bind(f"SELECT o.city FROM orders o WHERE o.uid = {uid}")
    bind = db.cache_stats()["bind_cache"]
    assert (bind["misses"], bind["evictions"]) == (10, 6)
    # Binding depends on the catalog only: state transitions keep it.
    db.invalidate_caches()
    db.bind("SELECT o.city FROM orders o WHERE o.uid = 9")
    assert db.cache_stats()["bind_cache"]["hits"] == 1
    # Reloading a table is the one transition that drops it.
    users = db.table("users")
    db.load_table(
        "users", {name: users.column(name) for name in users.column_names()}
    )
    db.bind("SELECT o.city FROM orders o WHERE o.uid = 9")
    assert db.cache_stats()["bind_cache"]["misses"] == 11


def test_every_registered_cache_is_reported_invalidated_and_unpickled(
        city_db_p):
    expected = {
        "plan_cache", "env_cache", "whatif_cache", "dict_cache",
        "bind_cache", "subplan_cache", "kernel_cache", "measure_cache",
    }
    before = city_db_p.cache_stats()
    assert set(before) == expected
    for stats in before.values():
        assert set(stats) == {
            "name", "hits", "misses", "evictions", "invalidations",
            "hit_rate",
        }
    city_db_p.invalidate_caches()
    after = city_db_p.cache_stats()
    kept = {"bind_cache", "measure_cache"}
    for name in expected - kept:
        assert after[name]["invalidations"] \
            == before[name]["invalidations"] + 1, name
    for name in kept:
        assert after[name]["invalidations"] \
            == before[name]["invalidations"], name
    clone = pickle.loads(pickle.dumps(city_db_p))
    assert all(
        stats["invalidations"] == 0 for stats in clone.cache_stats().values()
    )


# ----------------------------------------------------------------------
# Plan/estimate cache correctness: warm results == cold planning

def test_warm_estimates_match_cold_planning(city_db_p):
    warm_first = [city_db_p.estimate(s) for s in SQLS]
    warm_second = [city_db_p.estimate(s) for s in SQLS]
    hits = city_db_p.cache_stats()["plan_cache"]["hits"]
    assert hits >= len(SQLS)
    city_db_p.invalidate_caches()
    cold = [city_db_p.estimate(s) for s in SQLS]
    assert warm_first == warm_second == cold


def test_warm_execution_matches_cold_planning(city_db_p):
    warm = [city_db_p.execute(s).elapsed for s in SQLS]
    city_db_p.invalidate_caches()
    cold = [city_db_p.execute(s).elapsed for s in SQLS]
    assert warm == cold


def test_actual_estimated_hypothetical_share_frontend(city_db_p):
    """A, E and H calls on the same SQL parse+bind once."""
    one_c = one_column_configuration(city_db_p.catalog)
    city_db_p.execute(GROUPED)
    city_db_p.estimate(GROUPED)
    city_db_p.estimate_hypothetical(GROUPED, one_c)
    bind = city_db_p.cache_stats()["bind_cache"]
    assert bind["misses"] == 1
    assert bind["hits"] >= 2


def test_hypothetical_cache_returns_identical_costs(city_db_p):
    one_c = one_column_configuration(city_db_p.catalog)
    first = city_db_p.estimate_hypothetical(GROUPED, one_c)
    second = city_db_p.estimate_hypothetical(GROUPED, one_c)
    city_db_p.invalidate_caches()
    cold = city_db_p.estimate_hypothetical(GROUPED, one_c)
    assert first == second == cold
    # Different flags are distinct cache entries, not collisions.
    forced = city_db_p.estimate_hypothetical(
        GROUPED, one_c, force_hypothetical=True
    )
    assert city_db_p.estimate_hypothetical(
        GROUPED, one_c, force_hypothetical=True
    ) == forced


# ----------------------------------------------------------------------
# Explicit invalidation events

def test_apply_configuration_invalidates_plans(city_db_p):
    cost_p = city_db_p.estimate(GROUPED)
    city_db_p.apply_configuration(
        one_column_configuration(city_db_p.catalog)
    )
    city_db_p.collect_statistics()
    cost_1c = city_db_p.estimate(GROUPED)
    # The uid index makes the grouped query strictly cheaper; a stale
    # cached P plan would have returned cost_p again.
    assert cost_1c < cost_p
    assert city_db_p.cache_stats()["plan_cache"]["invalidations"] >= 2


def test_insert_rows_invalidates_plans(city_db_p):
    before = city_db_p.execute(SCAN).elapsed
    n = 20_000
    city_db_p.insert_rows(
        "users",
        {
            "uid": np.arange(10_000, 10_000 + n),
            "city": np.array(["tor"] * n, dtype=object),
            "age": np.full(n, 30),
        },
    )
    after = city_db_p.execute(SCAN).elapsed
    # The heap grew 40x; a cached pre-insert execution would be stale.
    assert after > before


def test_collect_statistics_invalidates_estimates(city_db_p):
    baseline = city_db_p.estimate(SCAN)
    n = 20_000
    city_db_p.insert_rows(
        "users",
        {
            "uid": np.arange(10_000, 10_000 + n),
            "city": np.array(["tor"] * n, dtype=object),
            "age": np.full(n, 30),
        },
    )
    stale = city_db_p.estimate(SCAN)       # stats still describe 500 rows
    city_db_p.collect_statistics()
    fresh = city_db_p.estimate(SCAN)
    assert stale == baseline
    assert fresh > stale


def test_reloaded_table_plans_and_estimates_as_if_cold():
    """A table reloaded under a warm database: its plans, estimates,
    what-if costs and sizes are those of a database that went through
    the same loads without a query in between.  A single-table view's
    what-if size is read off the table's rows, so a cache that outlived
    the reload would answer for the old ``orders``."""
    by_uid = MatViewDefinition(
        tables=("orders",), group_columns=(ViewColumn("orders", "uid"),),
    )
    config = Configuration("V", views=(by_uid,), indexes=(
        IndexDefinition(by_uid.name, ("orders__uid",)),
    ))

    def observe(db):
        return (
            [explain(db.plan(sql)) for sql in SQLS],
            [db.estimate(sql) for sql in SQLS],
            [db.estimate_hypothetical(sql, config, force_hypothetical=True)
             for sql in SQLS],
            db.estimated_configuration_bytes(config),
            [db.execute(sql).rows() for sql in SQLS],
        )

    def reloaded(warm):
        db = load_city_database()
        if warm:
            observe(db)
        db.load_table("orders", city_columns(n_orders=300, seed=1)["orders"])
        return db

    assert observe(reloaded(warm=True)) == observe(reloaded(warm=False))
    # The reload changed what the observation reads.
    assert observe(reloaded(warm=False)) != observe(load_city_database())


# ----------------------------------------------------------------------
# Measurement memo: A(q, C) by plan fingerprint, for as long as the rows

def counting_executions(db, monkeypatch):
    """Every plan ``db`` runs, counted — through ``execute`` or a
    measurement miss, which share ``Database._run``: the list of SQL
    texts it ran."""
    ran, run = [], db._run

    def counted(bound, plan, timeout):
        ran.append(bound.sql)
        return run(bound, plan, timeout)

    monkeypatch.setattr(db, "_run", counted)
    return ran


def test_measuring_fresh_queries_plans_each_once(city_db_p):
    """A measurement miss runs the plan it looked up, without looking
    it up again: n fresh queries are n plan-cache misses and no hit."""
    before = city_db_p.cache_stats()["plan_cache"]
    for sql in SQLS:
        city_db_p.measure(sql)
    after = city_db_p.cache_stats()["plan_cache"]
    assert after["misses"] - before["misses"] == len(SQLS)
    assert after["hits"] == before["hits"]


def test_measure_is_execute_until_the_rows_change(city_db_p, monkeypatch):
    """A warm measurement runs nothing; after an insert the query runs
    again and is charged for the grown heap, although its plan has the
    same fingerprint (a sequential scan carries no geometry)."""
    ran = counting_executions(city_db_p, monkeypatch)
    before = city_db_p.measure(SCAN)
    assert city_db_p.measure(SCAN) == before
    assert len(ran) == 1
    assert before == (city_db_p.execute(SCAN, 1800.0).elapsed, False)
    n = 20_000
    city_db_p.insert_rows("users", {
        "uid": np.arange(10_000, 10_000 + n),
        "city": np.array(["tor"] * n, dtype=object),
        "age": np.full(n, 30),
    })
    after = city_db_p.measure(SCAN)
    assert len(ran) == 3
    assert after[0] > before[0]
    assert after == (city_db_p.execute(SCAN, 1800.0).elapsed, False)


def test_reloading_a_table_drops_the_measurements(city_db_p, monkeypatch):
    ran = counting_executions(city_db_p, monkeypatch)
    before = city_db_p.measure(JOIN)
    users = city_db_p.table("users")
    city_db_p.load_table(
        "users", {name: users.decode(name) for name in users.column_names()}
    )
    city_db_p.collect_statistics()
    assert city_db_p.measure(JOIN) == before
    assert len(ran) == 2


def test_a_configuration_round_trip_runs_nothing_again(
        city_db_p, monkeypatch):
    """Configurations and statistics leave the memo alone: back under
    P, every query's plan is one already run."""
    ran = counting_executions(city_db_p, monkeypatch)
    under_p = [city_db_p.measure(sql) for sql in SQLS]
    city_db_p.apply_configuration(
        one_column_configuration(city_db_p.catalog)
    )
    under_1c = [city_db_p.measure(sql) for sql in SQLS]
    assert under_1c == [(city_db_p.execute(sql, 1800.0).elapsed, False)
                        for sql in SQLS]
    ran.clear()
    city_db_p.apply_configuration(primary_configuration(city_db_p.catalog))
    city_db_p.collect_statistics()
    assert [city_db_p.measure(sql) for sql in SQLS] == under_p
    assert ran == []


def test_concurrent_measurements_agree_and_are_all_counted(city_db_p):
    """Pool threads share the memo: racing threads see the serial
    outcome of every query, and no lookup goes uncounted."""
    threads, rounds = 8, 100
    sqls = [*SQLS, *(
        f"SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = {u} "
        "GROUP BY o.city" for u in range(5)
    )]
    serial = {sql: city_db_p.execute(sql, 1800.0).elapsed for sql in sqls}
    start = threading.Barrier(threads)
    seen = [[] for _ in range(threads)]

    def work(mine):
        start.wait(timeout=30)
        for i in range(rounds):
            sql = sqls[i % len(sqls)]
            mine.append((sql, city_db_p.measure(sql)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(mine,))
                   for mine in seen]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(outcome == (serial[sql], False)
               for mine in seen for sql, outcome in mine)
    stats = city_db_p.cache_stats()["measure_cache"]
    assert stats["hits"] + stats["misses"] == threads * rounds


def test_a_measurement_is_kept_per_timeout(city_db_p):
    """The memo holds a measurement at the timeout it was taken at: a
    query measured at the default and then at a timeout it exceeds
    reports the timeout."""
    elapsed, timed_out = city_db_p.measure(JOIN, 1800.0)
    assert not timed_out
    assert city_db_p.measure(JOIN, elapsed / 2) == (elapsed / 2, True)
    assert city_db_p.measure(JOIN, 1800.0) == (elapsed, False)


# ----------------------------------------------------------------------
# Environment cache and pickling

def test_planner_env_memoized_until_invalidated(city_db_p):
    env1 = city_db_p.planner_env()
    env2 = city_db_p.planner_env()
    assert env1 is env2
    city_db_p.collect_statistics()
    assert city_db_p.planner_env() is not env1


def test_database_pickle_roundtrip(city_db_p):
    expected = [city_db_p.estimate(s) for s in SQLS]
    clone = pickle.loads(pickle.dumps(city_db_p))
    assert [clone.estimate(s) for s in SQLS] == expected
    assert clone.configuration_fingerprint == \
        city_db_p.configuration_fingerprint
    # Caches restart cold on the clone.
    assert clone.cache_stats()["plan_cache"]["hits"] == 0


def test_identical_databases_share_costs_via_cold_planning(city_db_p):
    """The cache never changes results: a fresh twin database agrees."""
    twin = load_city_database()
    twin.apply_configuration(primary_configuration(twin.catalog))
    warm = [city_db_p.estimate(s) for s in SQLS]
    warm = [city_db_p.estimate(s) for s in SQLS]    # now all cache hits
    cold = [twin.estimate(s) for s in SQLS]
    assert warm == cold


def test_invalid_jobs_rejected():
    from repro.runtime.session import resolve_jobs

    with pytest.raises(ValueError):
        resolve_jobs("many")
    assert resolve_jobs("4") == 4
    assert resolve_jobs(0) == 1
