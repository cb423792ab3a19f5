"""Differential testing: random queries vs SQLite.

Hypothesis generates queries from the benchmark SQL subset over the small
city schema; each runs in the SQLite oracle (``tests/oracle.py``), loaded
from the same plain columns as the engine, and in the engine under the
P and 1C configurations and under 1C plus three materialized views (so
view scans, batch weights, selection vectors over view tables and a
semijoin answered from a view are checked too).  All four answers
must agree exactly.  A second database takes a seeded insert batch
under 1C first — its dictionaries and index entries are carried across
the append, not rebuilt — and must then agree with SQLite loaded from
the same columns plus the same batch.  A third
property is metamorphic: the rows and the virtual seconds of a query do
not depend on which caches are warm.

A query groups by one or two columns (often with the join key among
them) and takes ``COUNT(*)`` or ``COUNT(DISTINCT)`` of a column on
either join side, so an aggregate that counts its join's matches
(:mod:`repro.executor.groupjoin`) meets SQLite under every rule, and so
does one that expands its join.  A string filter takes any of the six
comparisons, with literals the dictionary lacks sorting before, between
and after its entries.
"""

import itertools
import pickle

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from repro.optimizer.plans import ViewScan, walk
from repro.views.matview import MatViewDefinition, ViewColumn

from conftest import assert_keys_are_scanned, city_columns, load_city_database

DB = load_city_database(n_users=120, n_orders=700, seed=21)
ORACLE = oracle.load(city_columns(120, 700, 21))
P_CONFIG = primary_configuration(DB.catalog)
ONE_C = one_column_configuration(DB.catalog)
ONE_C_VIEWS = ONE_C.with_views(
    (
        # The source of a generated semijoin on orders.uid, whose
        # counts (about 6 per uid) straddle the generated thresholds.
        MatViewDefinition(
            tables=("orders",),
            group_columns=(ViewColumn("orders", "uid"),),
        ),
        MatViewDefinition(
            tables=("orders",),
            group_columns=(
                ViewColumn("orders", "city"),
                ViewColumn("orders", "amount"),
            ),
        ),
        MatViewDefinition(
            tables=("users", "orders"),
            join_pred=(("users", "uid"), ("orders", "uid")),
            group_columns=(
                ViewColumn("users", "city"),
                ViewColumn("users", "age"),
                ViewColumn("orders", "city"),
            ),
        ),
    ),
    name="1C+MV",
)

TABLES = {
    "users": ["uid", "city", "age"],
    "orders": ["oid", "uid", "city", "amount"],
}
JOINABLE = {
    ("users", "uid"): [("orders", "uid")],
    ("users", "city"): [("orders", "city")],
}


def to_sql(spec):
    froms = ", ".join(f"{t} {a}" for a, t in spec["tables"])
    preds = [
        f"{a1}.{c1} = {a2}.{c2}" for (a1, c1), (a2, c2) in spec["joins"]
    ]
    for alias, column, op, value in spec["filters"]:
        rendered = f"'{value}'" if isinstance(value, str) else str(value)
        preds.append(f"{alias}.{column} {op} {rendered}")
    for alias, column, op, threshold in spec["semis"]:
        table = dict(spec["tables"])[alias]
        preds.append(
            f"{alias}.{column} IN (SELECT {column} FROM {table} "
            f"GROUP BY {column} HAVING COUNT(*) {op} {threshold})"
        )
    where = f" WHERE {' AND '.join(preds)}" if preds else ""
    group_cols = ", ".join(f"{a}.{c}" for a, c in spec["group_by"])
    aggregates = ", ".join(
        "COUNT(*)" if agg is None else f"COUNT(DISTINCT {agg[0]}.{agg[1]})"
        for agg in spec["aggregates"]
    )
    return (
        f"SELECT {group_cols}, {aggregates} FROM {froms}{where} "
        f"GROUP BY {group_cols}"
    )


@st.composite
def query_specs(draw):
    n_tables = draw(st.integers(1, 2))
    if n_tables == 1:
        table = draw(st.sampled_from(sorted(TABLES)))
        tables = [("t0", table)]
        joins = []
    else:
        (t1, c1) = draw(st.sampled_from(sorted(JOINABLE)))
        (t2, c2) = draw(st.sampled_from(JOINABLE[(t1, c1)]))
        tables = [("t0", t1), ("t1", t2)]
        joins = [(("t0", c1), ("t1", c2))]

    alias_tables = dict(tables)
    filters = []
    for __ in range(draw(st.integers(0, 2))):
        alias = draw(st.sampled_from([a for a, _ in tables]))
        column = draw(st.sampled_from(TABLES[alias_tables[alias]]))
        op = draw(st.sampled_from(["=", "<", ">", "<>", "<=", ">="]))
        if column == "city":
            value = draw(st.sampled_from(
                ["tor", "mtl", "van", "cal", "ott", "aaa", "n", "zzz"]
            ))
        else:
            value = draw(st.integers(0, 150))
        filters.append((alias, column, op, value))

    semis = []
    if draw(st.booleans()):
        alias = draw(st.sampled_from([a for a, _ in tables]))
        column = draw(st.sampled_from(TABLES[alias_tables[alias]]))
        op = draw(st.sampled_from(["<", "<=", "=", ">"]))
        threshold = draw(st.integers(1, 12))
        semis.append((alias, column, op, threshold))

    group_alias = draw(st.sampled_from([a for a, _ in tables]))
    group_col = draw(st.sampled_from(TABLES[alias_tables[group_alias]]))
    group_by = [(group_alias, group_col)]
    if draw(st.booleans()):
        # A second group column: often the group side's join key (so a
        # COUNT(DISTINCT) of the other side can be read per key),
        # otherwise any column, on either side.
        join_keys = [key for key in itertools.chain(*joins)
                     if key[0] == group_alias]
        second = draw(st.sampled_from(
            join_keys * 3 + [(a, c) for a, t in tables for c in TABLES[t]]
        ))
        if second not in group_by:
            group_by.append(second)

    # COUNT(*) or COUNT(DISTINCT) of a column of either side.
    columns = [None] + [(a, c) for a, t in tables for c in TABLES[t]]
    aggregates = draw(st.lists(st.sampled_from(columns), min_size=1,
                               max_size=2))

    return {
        "tables": tables,
        "joins": joins,
        "filters": filters,
        "semis": semis,
        "group_by": group_by,
        "aggregates": aggregates,
    }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=query_specs())
def test_property_engine_matches_reference(spec):
    sql = to_sql(spec)
    expected = oracle.rows(ORACLE.execute(sql))
    for config in (P_CONFIG, ONE_C, ONE_C_VIEWS):
        DB.apply_configuration(config)
        result = DB.execute(sql)
        assert oracle.rows(result.rows()) == expected, (config.name, sql)
        # The shape the executor's one route to codes rests on.
        assert_keys_are_scanned(result.plan)


def _insert_batch():
    """New and known values, some sorting before and after every
    existing one, and uids that change which HAVING thresholds pass."""
    rng = np.random.default_rng(44)
    size = 40
    cities = np.array(["aaa", "tor", "mtl", "zzz"], dtype=object)
    orders = {
        "oid": np.arange(10_000, 10_000 + size),
        "uid": rng.integers(0, 130, size),
        "city": rng.choice(cities, size),
        "amount": rng.integers(-5, 160, size),
    }
    users = {
        "uid": np.arange(120, 126),
        "city": rng.choice(cities, 6),
        "age": rng.integers(1, 99, 6),
    }
    return {"orders": orders, "users": users}


INSERTS = _insert_batch()


def _grown_database():
    """A copy of ``DB`` under 1C that ran queries — so dictionaries,
    their codes and every cache are warm — and then took the insert
    batch."""
    db = load_city_database(n_users=120, n_orders=700, seed=21)
    db.apply_configuration(ONE_C)
    for sql in (
        "SELECT t0.city, COUNT(*) FROM users t0, orders t1 "
        "WHERE t0.uid = t1.uid AND t1.uid IN (SELECT uid FROM orders "
        "GROUP BY uid HAVING COUNT(*) < 6) GROUP BY t0.city",
        "SELECT t0.amount, COUNT(*) FROM orders t0 WHERE t0.city IN "
        "(SELECT city FROM orders GROUP BY city HAVING COUNT(*) > 3) "
        "GROUP BY t0.amount",
    ):
        db.execute(sql)
    for name, columns in INSERTS.items():
        db.insert_rows(name, columns)
    return db


GROWN = _grown_database()
GROWN_ORACLE = oracle.load({
    name: {column: np.concatenate([values, INSERTS[name][column]])
           for column, values in columns.items()}
    for name, columns in city_columns(120, 700, 21).items()
})


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=query_specs())
def test_property_engine_matches_reference_after_insert(spec):
    sql = to_sql(spec)
    assert oracle.rows(GROWN.execute(sql).rows()) == oracle.rows(
        GROWN_ORACLE.execute(sql)
    ), sql


def _cold_copies():
    """``DB`` under each configuration, as unpickled copies: their
    tables are new arrays, so no cache of theirs holds anything."""
    copies = {}
    for config in (P_CONFIG, ONE_C, ONE_C_VIEWS):
        DB.apply_configuration(config)
        copies[config.name] = pickle.dumps(DB)
    return copies


COLD_COPIES = _cold_copies()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=query_specs(), config=st.sampled_from(sorted(COLD_COPIES)))
def test_property_rows_and_cost_ignore_cache_state(spec, config):
    """``A(q, C)`` cold, warm and after ``invalidate_caches()``: the hit
    path of every cache must equal its miss path, in the rows and in
    the virtual clock."""
    sql = to_sql(spec)
    db = pickle.loads(COLD_COPIES[config])

    def observe():
        result = db.execute(sql)
        return result.rows(), result.elapsed

    cold = observe()
    before = db.cache_stats()
    warm = observe()
    after = db.cache_stats()
    # The second run found the plan, and whatever else the plan uses.
    assert after["plan_cache"]["hits"] == before["plan_cache"]["hits"] + 1
    for name in ("dict_cache", "subplan_cache", "kernel_cache"):
        assert after[name]["misses"] == before[name]["misses"], name
    db.invalidate_caches()
    assert warm == cold, sql
    assert observe() == cold, sql


def test_view_configuration_reaches_every_view():
    """The third configuration is only worth its time if the planner
    actually puts each of its views into plans of generated shapes: two
    as rewrites, one as the source of a semijoin."""
    DB.apply_configuration(ONE_C_VIEWS)
    scanned = set()
    for sql in (
        "SELECT t0.city, COUNT(*) FROM orders t0 WHERE t0.amount > 40 "
        "GROUP BY t0.city",
        "SELECT t0.city, t1.city, COUNT(*) FROM users t0, orders t1 "
        "WHERE t0.uid = t1.uid AND t0.age > 40 GROUP BY t0.city, t1.city",
        "SELECT t0.city, COUNT(*) FROM orders t0 WHERE t0.uid IN "
        "(SELECT uid FROM orders GROUP BY uid HAVING COUNT(*) < 6) "
        "GROUP BY t0.city",
    ):
        for node in walk(DB.plan(sql)):
            if isinstance(node, ViewScan):
                scanned.add(node.view.definition.name)
            for semi in getattr(node, "semi_filters", ()):
                if semi.source.via == "view":
                    scanned.add(semi.source.view.definition.name)
    assert scanned == {v.name for v in ONE_C_VIEWS.views}


def test_string_ranges_around_literals_the_dictionary_lacks():
    """A range on a string column whose literal no row holds, sorting
    before, between and after the dictionary's entries."""
    for sql in (
        "SELECT t0.city, COUNT(*) FROM users t0 WHERE t0.city > 'aaa' "
        "GROUP BY t0.city",
        "SELECT t0.age, COUNT(*) FROM users t0 WHERE t0.city < 'n' "
        "GROUP BY t0.age",
        "SELECT t0.city, COUNT(*) FROM orders t0 WHERE t0.city >= 'n' "
        "AND t0.city <= 'zzz' GROUP BY t0.city",
        "SELECT t1.city, COUNT(*) FROM users t0, orders t1 "
        "WHERE t0.uid = t1.uid AND t0.city <= 'n' GROUP BY t1.city",
        "SELECT t0.city, COUNT(*) FROM orders t0 WHERE t0.city > 'zzz' "
        "GROUP BY t0.city",
    ):
        expected = oracle.rows(ORACLE.execute(sql))
        for config in (P_CONFIG, ONE_C):
            DB.apply_configuration(config)
            assert oracle.rows(DB.execute(sql).rows()) == expected, (
                config.name, sql
            )
