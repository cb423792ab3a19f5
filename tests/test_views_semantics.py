"""Deeper materialized-view semantics: weights through multi-way plans."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.configuration import primary_configuration
from repro.storage.encoding import DictionaryCache
from repro.views.matview import (
    COUNT_COLUMN,
    MatViewDefinition,
    ViewColumn,
    build_view,
)

from conftest import load_city_database


@pytest.fixture(scope="module")
def db():
    return load_city_database(n_users=600, n_orders=4000, seed=8)


def test_view_count_sums_match_base(db):
    """Σ cnt over any single-table view equals the base row count."""
    for cols in (("uid",), ("city",), ("uid", "city")):
        view_def = MatViewDefinition(
            tables=("orders",),
            group_columns=tuple(ViewColumn("orders", c) for c in cols),
        )
        table, _ = build_view(
            view_def, db.tables, db.catalog, DictionaryCache()
        )
        assert int(table.column(COUNT_COLUMN).sum()) == \
            db.table("orders").row_count


def test_join_view_count_sums_match_join_size(db):
    view_def = MatViewDefinition(
        tables=("users", "orders"),
        join_pred=(("users", "uid"), ("orders", "uid")),
        group_columns=(ViewColumn("users", "city"),),
    )
    table, _ = build_view(
        view_def, db.tables, db.catalog, DictionaryCache()
    )
    users = db.table("users")
    freq = collections.Counter(db.table("orders").column("uid").tolist())
    join_size = sum(freq.get(int(u), 0) for u in users.column("uid"))
    assert int(table.column(COUNT_COLUMN).sum()) == join_size


def test_single_alias_view_rewrite_in_join_query(db):
    """A query joining a pre-aggregated alias stays exact."""
    sql = (
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.city = o.city GROUP BY u.city"
    )
    db.apply_configuration(primary_configuration(db.catalog))
    direct = sorted(db.execute(sql).rows())

    # Pre-aggregate orders down to its city column.
    view_def = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "city"),),
    )
    config = primary_configuration(db.catalog).with_views(
        [view_def], name="V"
    )
    db.apply_configuration(config)
    db.collect_statistics()
    from repro.optimizer.plans import ViewScan, walk

    plan = db.plan(sql)
    rewritten = sorted(db.execute(sql).rows())
    assert rewritten == direct
    assert [n for n in walk(plan) if isinstance(n, ViewScan)], (
        "a 5-row view beats scanning 4000 orders"
    )
    db.apply_configuration(primary_configuration(db.catalog))
    db.collect_statistics()


def test_count_distinct_through_view_rewrite(db):
    """COUNT(DISTINCT x) stays exact when x is a view group column."""
    sql = (
        "SELECT u.city, COUNT(DISTINCT o.city) FROM users u, orders o "
        "WHERE u.uid = o.uid GROUP BY u.city"
    )
    db.apply_configuration(primary_configuration(db.catalog))
    direct = sorted(db.execute(sql).rows())

    view_def = MatViewDefinition(
        tables=("users", "orders"),
        join_pred=(("users", "uid"), ("orders", "uid")),
        group_columns=(
            ViewColumn("users", "city"),
            ViewColumn("orders", "city"),
        ),
    )
    config = primary_configuration(db.catalog).with_views(
        [view_def], name="V"
    )
    db.apply_configuration(config)
    db.collect_statistics()
    rewritten = sorted(db.execute(sql).rows())
    assert rewritten == direct
    db.apply_configuration(primary_configuration(db.catalog))
    db.collect_statistics()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 200))
def test_property_view_counts_exact_for_random_data(seed):
    """Single-table views reproduce exact counters on arbitrary data."""
    from repro.catalog.catalog import Catalog
    from repro.catalog.schema import ColumnDef, TableSchema
    from repro.storage.table import Table
    from repro.storage.types import integer

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    schema = TableSchema("t", [
        ColumnDef("a", integer(), "x"),
        ColumnDef("b", integer(), "y"),
    ])
    catalog = Catalog([schema])
    table = Table(schema, {
        "a": rng.integers(0, 6, n),
        "b": rng.integers(0, 4, n),
    })
    view_def = MatViewDefinition(
        tables=("t",),
        group_columns=(ViewColumn("t", "a"), ViewColumn("t", "b")),
    )
    result, _ = build_view(
        view_def, {"t": table}, catalog, DictionaryCache()
    )
    got = {
        (int(a), int(b)): int(c)
        for a, b, c in zip(
            result.column("t__a"),
            result.column("t__b"),
            result.column(COUNT_COLUMN),
        )
    }
    expected = collections.Counter(
        (int(a), int(b))
        for a, b in zip(table.column("a"), table.column("b"))
    )
    assert got == dict(expected)
