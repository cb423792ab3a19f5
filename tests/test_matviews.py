"""Materialized views: construction, matching, and rewritten-plan results."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro import Catalog, ColumnDef, TableSchema, float_, integer, varchar
from repro.engine.configuration import primary_configuration
from repro.index.definition import IndexDefinition
from repro.optimizer.plans import ViewScan, walk
from repro.views.matview import (
    COUNT_COLUMN,
    MatViewDefinition,
    ViewColumn,
    build_view,
)
from repro.storage.encoding import DictionaryCache
from repro.storage.table import Table

from conftest import city_columns, load_city_database, narrowest_dtype


@pytest.fixture
def db():
    return load_city_database(n_users=800, n_orders=6000, seed=5)


def test_definition_validation():
    with pytest.raises(ValueError):
        MatViewDefinition(tables=("a", "b", "c"), group_columns=())
    with pytest.raises(ValueError):
        MatViewDefinition(tables=("a", "b"), group_columns=(
            ViewColumn("a", "x"),
        ))
    with pytest.raises(ValueError):
        MatViewDefinition(
            tables=("a",),
            join_pred=(("a", "x"), ("a", "y")),
            group_columns=(ViewColumn("a", "x"),),
        )
    with pytest.raises(ValueError):
        MatViewDefinition(
            tables=("a",),
            group_columns=(ViewColumn("b", "x"),),
        )


def test_single_table_view_counts(db):
    view_def = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "uid"),),
    )
    table, _ = build_view(
        view_def, db.tables, db.catalog, DictionaryCache()
    )
    freq = collections.Counter(db.table("orders").decode("uid").tolist())
    got = dict(
        zip(
            table.decode("orders__uid").tolist(),
            table.decode(COUNT_COLUMN).tolist(),
        )
    )
    assert got == dict(freq)


def test_join_view_counts(db):
    view_def = MatViewDefinition(
        tables=("users", "orders"),
        join_pred=(("users", "uid"), ("orders", "uid")),
        group_columns=(
            ViewColumn("users", "city"),
            ViewColumn("orders", "city"),
        ),
    )
    table, _ = build_view(
        view_def, db.tables, db.catalog, DictionaryCache()
    )
    users, orders = db.table("users"), db.table("orders")
    city_of = dict(zip(users.decode("uid"), users.decode("city")))
    counter = collections.Counter(
        (city_of[u], c)
        for u, c in zip(orders.decode("uid"), orders.decode("city"))
        if u in city_of
    )
    got = {
        (a, b): n
        for a, b, n in zip(
            table.decode("users__city"),
            table.decode("orders__city"),
            table.decode(COUNT_COLUMN),
        )
    }
    assert got == dict(counter)
    assert int(table.decode(COUNT_COLUMN).sum()) == sum(counter.values())


def test_view_rewrite_produces_correct_counts(db):
    """A COUNT(*) join query answered through the view matches the
    direct execution."""
    sql = (
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid AND o.city = 'tor' GROUP BY u.city"
    )
    db.apply_configuration(primary_configuration(db.catalog))
    direct = sorted(db.execute(sql).rows())

    # The aggregated city-pair view is tiny (25 rows); COUNT(*) over the
    # rewritten plan must come out of the cnt weights.
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
    plan = db.plan(sql)
    assert [n for n in walk(plan) if isinstance(n, ViewScan)], (
        "the view should be cheaper than re-joining the base tables"
    )
    rewritten = sorted(db.execute(sql).rows())
    assert rewritten == direct


def test_view_not_matched_when_columns_missing(db):
    view_def = MatViewDefinition(
        tables=("users", "orders"),
        join_pred=(("users", "uid"), ("orders", "uid")),
        group_columns=(ViewColumn("users", "city"),),
    )
    config = primary_configuration(db.catalog).with_views(
        [view_def], name="V"
    )
    db.apply_configuration(config)
    db.collect_statistics()
    # Needs o.city, which the view does not preserve.
    plan = db.plan(
        "SELECT o.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid GROUP BY o.city"
    )
    assert not [n for n in walk(plan) if isinstance(n, ViewScan)]


def test_semijoin_answered_from_view(db):
    view_def = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "uid"),),
    )
    config = primary_configuration(db.catalog).with_views(
        [view_def], name="V"
    )
    db.apply_configuration(config)
    db.collect_statistics()
    sql = (
        "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid IN "
        "(SELECT uid FROM orders GROUP BY uid HAVING COUNT(*) < 4) "
        "GROUP BY o.city"
    )
    lite = oracle.load(city_columns(n_users=800, n_orders=6000, seed=5))
    assert oracle.rows(db.execute(sql).rows()) == oracle.rows(
        lite.execute(sql)
    )


def test_index_on_view(db):
    view_def = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "uid"),),
    )
    config = primary_configuration(db.catalog).with_views(
        [view_def], name="V"
    ).with_indexes(
        [IndexDefinition(table=view_def.name, columns=("orders__uid",))]
    )
    report = db.apply_configuration(config)
    assert report.view_bytes > 0
    assert report.index_bytes > 0


def test_an_index_on_a_view_is_rebuilt_by_an_insert():
    """An insert into a view's table rebuilds the view and every index
    on it: the index equals a from-scratch build over the new view
    table, and the insert is charged what it is without that index."""
    from repro.index.data import IndexData

    view_def = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "uid"),),
    )
    on_view = IndexDefinition(table=view_def.name, columns=("orders__uid",))
    views = primary_configuration(
        load_city_database().catalog
    ).with_views([view_def], name="V")
    # One uid no order holds yet and one that many do.
    rows = {
        "oid": np.array([90_001, 90_002]),
        "uid": np.array([157, 7]),
        "city": np.array(["tor", "mtl"], dtype=object),
        "amount": np.array([5, 6]),
    }
    charges = []
    for config in (views, views.with_indexes([on_view])):
        db = load_city_database()
        assert 157 not in db.table("orders").decode("uid").tolist()
        db.apply_configuration(config)
        charges.append(db.insert_rows("orders", rows))
    view = db._built.view_tables[view_def.name]
    assert view.row_count == 499
    index = db._built.index_data[on_view.name]
    want = IndexData(on_view, view, DictionaryCache(),
                     db.system.index_overhead)
    assert index.entry_count == want.entry_count == view.row_count
    for have, expected in ((index.row_ids, want.row_ids),
                           (index.values, want.values),
                           (index.offsets, want.offsets)):
        assert have.dtype == expected.dtype
        assert have.tolist() == expected.tolist()
    assert index.size == want.size
    assert index.cluster_factor == want.cluster_factor
    assert charges[0] == charges[1]


def test_view_refreshes_after_insert(db):
    view_def = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "uid"),),
    )
    config = primary_configuration(db.catalog).with_views(
        [view_def], name="V"
    )
    db.apply_configuration(config)
    before = db._built.view_tables[view_def.name].decode(COUNT_COLUMN).sum()
    db.insert_rows(
        "orders",
        {
            "oid": np.array([10_001]),
            "uid": np.array([0]),
            "city": np.array(["tor"], dtype=object),
            "amount": np.array([5]),
        },
    )
    after = db._built.view_tables[view_def.name].decode(COUNT_COLUMN).sum()
    assert after == before + 1


def test_view_statistics_follow_an_insert(db):
    """An insert that brings a view a new group rebuilds the view's
    statistics with it: plans over the view are estimated on the view
    the insert left, not on the one before it."""
    view_def = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "uid"),),
    )
    db.apply_configuration(
        primary_configuration(db.catalog).with_views([view_def], name="V")
    )
    groups = db._built.view_tables[view_def.name].row_count
    assert db._view_stats.table(view_def.name).row_count == groups
    new_uid = int(db.table("orders").column("uid").max()) + 1
    db.insert_rows("orders", {
        "oid": [10_002], "uid": [new_uid], "city": ["tor"], "amount": [5],
    })
    view = db._built.view_tables[view_def.name]
    stats = db._view_stats.table(view_def.name)
    assert view.row_count == groups + 1
    assert stats.row_count == view.row_count
    assert stats.column("orders__uid").n_distinct == view.row_count


def reference_groups(arrays):
    """The raw-column grouping: ``np.unique`` for one column, a
    ``np.lexsort`` and adjacent compares for several."""
    if len(arrays) == 1:
        keys, counts = np.unique(arrays[0], return_counts=True)
        return [keys], counts
    order = np.lexsort(tuple(reversed(arrays)))
    ordered = [array[order] for array in arrays]
    change = np.zeros(len(order), dtype=bool)
    change[:1] = True
    for array in ordered:
        change[1:] |= array[1:] != array[:-1]
    starts = np.flatnonzero(change)
    return [array[starts] for array in ordered], np.diff(
        np.append(starts, len(order))
    )


GROUPED = TableSchema("g", [
    ColumnDef("i", integer(), "i"),
    ColumnDef("f", float_(), "f"),
    ColumnDef("s", varchar(4), "s"),
])


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(
        st.sampled_from([-(10 ** 6), -1, 0, 3, 10 ** 6]),
        st.sampled_from([-1e9, -0.5, 0.0, 0.25, 1e9]),
        st.sampled_from(["", "a", "ab", "zz"]),
    ), max_size=40),
    columns=st.permutations(["i", "f", "s"]).flatmap(
        lambda names: st.integers(1, 3).map(lambda n: tuple(names[:n]))
    ),
)
def test_property_single_table_view_equals_the_raw_grouping(rows, columns):
    """A single-table view read off the dictionary cache equals the
    ``np.unique`` / ``np.lexsort`` grouping of the raw object, float
    and int64 columns — empty tables too — and stores its integer
    columns, ``cnt`` included, in the narrowest dtype that holds
    them."""
    raw = {
        "i": np.array([r[0] for r in rows], dtype=np.int64),
        "f": np.array([r[1] for r in rows], dtype=np.float64),
        "s": np.array([r[2] for r in rows], dtype=object),
    }
    table = Table(GROUPED, raw)
    catalog = Catalog([GROUPED])
    view_def = MatViewDefinition(
        tables=("g",),
        group_columns=tuple(ViewColumn("g", c) for c in columns),
    )
    view, input_rows = build_view(
        view_def, {"g": table}, catalog, DictionaryCache()
    )
    assert input_rows == len(rows)
    keys, counts = reference_groups([raw[c] for c in columns])
    for vcol, want in zip(view_def.group_columns, keys):
        have = view.decode(vcol.name)
        if want.dtype == np.int64:
            assert have.dtype == narrowest_dtype(want)
        else:
            assert have.dtype == want.dtype
        assert have.tolist() == want.tolist()
    have = view.decode(COUNT_COLUMN)
    assert have.dtype == narrowest_dtype(counts)
    assert have.tolist() == counts.tolist()
