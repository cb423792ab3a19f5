"""Executor correctness: every query is cross-checked against SQLite
(``tests/oracle.py``), in both the P and 1C configurations (different
plans, identical results)."""

import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from repro.common.errors import QueryTimeout
from repro.engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from repro.executor.engine import (
    Executor,
    VirtualClock,
    _member_flags,
)
from repro.executor.groupjoin import slot_map
from repro.optimizer.plans import SemiFilter, SemiSource
from repro.sql.binder import SemiJoin
from repro.storage.encoding import ColumnDictionary, DictionaryCache

from conftest import city_columns


ORACLE = oracle.load(city_columns())


def run_both_configs(city_db, sql):
    """``sql``'s rows under P and under 1C, each equal to SQLite's."""
    expected = oracle.rows(ORACLE.execute(sql))
    for configure in (primary_configuration, one_column_configuration):
        city_db.apply_configuration(configure(city_db.catalog))
        got = oracle.rows(city_db.execute(sql).rows())
        assert got == expected, configure.__name__
    return expected


def test_filter_and_group(city_db):
    assert run_both_configs(
        city_db,
        "SELECT u.city, COUNT(*) FROM users u "
        "WHERE u.age = 30 GROUP BY u.city",
    )


def test_join_group_count(city_db):
    assert run_both_configs(
        city_db,
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid AND u.age = 30 GROUP BY u.city",
    )


def test_count_distinct(city_db):
    assert run_both_configs(
        city_db,
        "SELECT o.city, COUNT(DISTINCT o.uid) FROM orders o "
        "GROUP BY o.city",
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 400),
    groups=st.integers(1, 400),
    domain=st.integers(1, 400),
    seed=st.integers(0, 10_000),
)
@example(rows=400, groups=400, domain=400, seed=0)
@example(rows=400, groups=3, domain=400, seed=0)
def test_property_count_distinct_arms_agree_with_sets(
        rows, groups, domain, seed):
    """The executor's COUNT(DISTINCT) equals a set per group."""
    from repro import obs

    rng = np.random.default_rng(seed)
    # Dense group codes, as combine_codes hands them to the aggregate.
    _, codes = np.unique(rng.integers(0, groups, rows), return_inverse=True)
    n_groups = int(codes.max()) + 1
    values = rng.integers(-domain, domain, rows)
    seen = collections.defaultdict(set)
    for group, value in zip(codes.tolist(), values.tolist()):
        seen[group].add(value)
    expected = [len(seen[g]) for g in range(n_groups)]

    _, vcodes = np.unique(values, return_inverse=True)
    with obs.recording() as recorder:
        got = Executor({}, None)._count_distinct(codes, vcodes, n_groups)
    assert got.tolist() == expected
    counters = recorder.metrics.snapshot()["counters"]
    assert counters["executor.distinct_sorted"] == 1


def test_sum_avg_min_max(city_db):
    assert run_both_configs(
        city_db,
        "SELECT o.city, SUM(o.amount), AVG(o.amount), MIN(o.amount), "
        "MAX(o.amount) FROM orders o GROUP BY o.city",
    )


def test_grand_total_aggregate(city_db):
    assert run_both_configs(
        city_db, "SELECT COUNT(*) FROM orders o WHERE o.city = 'tor'"
    )


def test_semijoin_membership(city_db):
    assert run_both_configs(
        city_db,
        "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid IN "
        "(SELECT uid FROM orders GROUP BY uid HAVING COUNT(*) < 4) "
        "GROUP BY o.city",
    )


def semi_filter(key, sub_table, sub_column, op, value):
    semi = SemiJoin(None, sub_table, sub_column, op, value)
    return SemiFilter(key, SemiSource(semi=semi, via="scan"))


def allowed_values(db, sub_table, sub_column, op, value):
    values, counts = np.unique(
        db.table(sub_table).decode(sub_column), return_counts=True
    )
    keep = {"<": counts < value, ">": counts > value}[op]
    return values[keep]


@pytest.mark.parametrize("column, sub_table, sub_column, op, value", [
    ("uid", "orders", "uid", "<", 4),      # the column's own dictionary
    ("city", "orders", "city", ">", 0),    # ... every entry allowed
    ("uid", "users", "uid", "<", 2),       # another column's dictionary
    ("amount", "users", "age", "<", 9),    # domains that only overlap
    ("city", "users", "city", ">", 10 ** 6),   # nothing allowed
])
def test_semijoin_filters_on_codes_like_isin(
    city_db, column, sub_table, sub_column, op, value
):
    """Membership through dictionary codes keeps the rows np.isin
    keeps: on the full column, behind a selection vector, and after
    ``column()`` memoized a gather."""
    orders = city_db.table("orders")
    key = f"o.{column}"
    semi = semi_filter(key, sub_table, sub_column, op, value)
    allowed = allowed_values(city_db, sub_table, sub_column, op, value)
    picked = np.arange(0, orders.row_count, 3)[::-1]
    executor = Executor(city_db.tables, city_db.system.hardware)
    executor._required = frozenset({key})

    def surviving(batch):
        out = executor._apply_semis(batch, [semi], VirtualClock())
        return out.decode(key).tolist()

    values = orders.decode(column)
    full = executor._scan_batch(orders, {key: column})
    assert surviving(full) == values[np.isin(values, allowed)].tolist()
    values = values[picked]
    want = values[np.isin(values, allowed)].tolist()
    assert surviving(full.take(picked)) == want
    probed = executor._scan_batch(orders, {key: column}, picked)
    assert probed.decode(key).tolist() == values.tolist()
    assert surviving(probed) == want
    assert len(allowed) or value == 10 ** 6


def test_semijoin_on_value_missing_from_the_dictionary(city_db):
    """Allowed values the filtered column never holds — sorting before,
    between and after its entries — select nothing and break nothing."""
    dictionary = DictionaryCache().dictionary(
        city_db.table("users"), "city"
    )
    source = ColumnDictionary(
        np.array(["aaa", "mtl", "nnn", "tor", "zzz"], dtype=object)
    )
    slots = slot_map(source, dictionary)
    keep = np.array([True, True, True, False, True])
    flags = _member_flags(dictionary, slots[keep])
    assert dictionary.values[flags].tolist() == ["mtl"]
    none = _member_flags(dictionary, slots[np.zeros(5, dtype=bool)])
    assert not none.any() and len(none) == dictionary.n_distinct
    # Its own values: the codes are the slots.
    own = dictionary.counts > 1
    assert _member_flags(dictionary, np.flatnonzero(own)).tolist() == (
        own.tolist()
    )


def test_self_join(city_db):
    assert run_both_configs(
        city_db,
        "SELECT u1.city, COUNT(*) FROM users u1, users u2 "
        "WHERE u1.age = u2.age AND u1.city = 'tor' GROUP BY u1.city",
    )


def test_empty_result(city_db):
    assert run_both_configs(
        city_db,
        "SELECT u.city, COUNT(*) FROM users u "
        "WHERE u.city = 'nowhere' GROUP BY u.city",
    ) == []


def test_projection_without_aggregates(city_db):
    assert run_both_configs(
        city_db, "SELECT u.uid, u.city FROM users u WHERE u.age = 30"
    )


def test_timeout_is_reported(city_db_p):
    sql = (
        "SELECT u1.city, COUNT(*) FROM users u1, users u2 "
        "WHERE u1.age = u2.age GROUP BY u1.city"
    )
    result = city_db_p.execute(sql, timeout=0.001)
    assert result.timed_out
    assert result.elapsed == pytest.approx(0.001)
    assert result.rows() is None


def test_virtual_clock_accumulates(city_db_p):
    fast = city_db_p.execute("SELECT COUNT(*) FROM users u")
    slow = city_db_p.execute(
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid GROUP BY u.city"
    )
    assert 0 < fast.elapsed < slow.elapsed


def test_determinism(city_db_p):
    sql = (
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid GROUP BY u.city"
    )
    first = city_db_p.execute(sql)
    second = city_db_p.execute(sql)
    assert first.elapsed == second.elapsed
    assert sorted(first.rows()) == sorted(second.rows())


def test_query_timeout_exception_fields():
    err = QueryTimeout(10.0, 12.5)
    assert err.limit_seconds == 10.0
    assert err.charged_seconds == 12.5


# ----------------------------------------------------------------------
# Codes on both sides of 32 768 values: int16 and int32 codes answer
# as SQLite does

WIDE_KEYS = 40_000  # "k": int32 codes
EDGE_KEYS = 1 << 15  # "m": int16 codes, the last one 32 767


def code_width_database():
    """``big`` (keys ``k`` above 32 768 values, ``m`` at exactly
    32 768, the last and most frequent of which has code 32 767, and
    300 groups ``g``) and ``small`` (rows keyed into both, with keys
    outside them too), under 1C and a view on ``big.m``; and the plain
    columns they were loaded with."""
    from repro import Catalog, ColumnDef, Database, TableSchema
    from repro import integer, varchar
    from repro.engine.systems import system_a
    from repro.views.matview import MatViewDefinition, ViewColumn

    rng = np.random.default_rng(55)
    big_m = np.concatenate([
        np.arange(EDGE_KEYS), np.full(60, EDGE_KEYS - 1),
        rng.integers(0, EDGE_KEYS, 2_000),
    ])
    rows = len(big_m)
    big_k = rng.permutation(np.arange(rows) % WIDE_KEYS)
    columns = {
        "big": {
            "k": np.array([f"k{i:06d}" for i in big_k], dtype=object),
            "m": np.array([f"m{i:06d}" for i in big_m], dtype=object),
            "g": rng.integers(0, 300, rows),
        },
        "small": {
            "k": np.array([f"k{i:06d}" for i in
                           rng.integers(0, WIDE_KEYS + 500, 3_000)],
                          dtype=object),
            "m": np.array([f"m{i:06d}" for i in np.concatenate([
                [EDGE_KEYS - 1] * 5,
                rng.integers(EDGE_KEYS - 200, EDGE_KEYS + 50, 2_995),
            ])], dtype=object),
            "w": np.concatenate([[3] * 5, rng.integers(0, 40, 2_995)]),
        },
    }
    catalog = Catalog([
        TableSchema("big", [ColumnDef("k", varchar(7), ""),
                            ColumnDef("m", varchar(7), ""),
                            ColumnDef("g", integer(), "")]),
        TableSchema("small", [ColumnDef("k", varchar(7), ""),
                              ColumnDef("m", varchar(7), ""),
                              ColumnDef("w", integer(), "")]),
    ])
    database = Database(catalog, system_a(), name="widths")
    for name, table in columns.items():
        database.load_table(name, dict(table))
    database.collect_statistics()
    view = MatViewDefinition(
        tables=("big",), group_columns=(ViewColumn("big", "m"),)
    )
    database.apply_configuration(
        one_column_configuration(catalog).with_views([view], name="1C+V")
    )
    database.collect_statistics()
    return database, columns


def test_codes_on_both_sides_of_32768_values_answer_as_sqlite():
    """GROUP BY, COUNT(DISTINCT), joins and a semijoin on a key of
    40 000 values (int32 codes) and on one of exactly 32 768 (int16
    codes, up to 32 767), against SQLite."""
    database, columns = code_width_database()
    for table, column, width in (("big", "k", np.int32),
                                 ("big", "m", np.int16),
                                 ("small", "m", np.int16)):
        assert database.table(table).column(column).dtype == width
    lite = oracle.load(columns)
    for sql in (
        "SELECT b.k, COUNT(*) FROM big b GROUP BY b.k",
        "SELECT b.m, COUNT(*) FROM big b GROUP BY b.m",
        "SELECT b.g, COUNT(DISTINCT b.k), COUNT(DISTINCT b.m) FROM big b "
        "GROUP BY b.g",
        "SELECT s.w, COUNT(*) FROM big b, small s WHERE b.k = s.k "
        "GROUP BY s.w",
        "SELECT s.w, COUNT(DISTINCT b.g) FROM big b, small s "
        "WHERE b.m = s.m GROUP BY s.w",
        "SELECT b.m, COUNT(*) FROM big b, small s WHERE b.m = s.m "
        "AND s.w = 3 GROUP BY b.m",
        "SELECT b.g, COUNT(*) FROM big b WHERE b.m IN (SELECT m FROM big "
        "GROUP BY m HAVING COUNT(*) > 8) GROUP BY b.g",
    ):
        assert oracle.rows(database.execute(sql).rows()) == oracle.rows(
            lite.execute(sql)
        ), sql
