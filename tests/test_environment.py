"""Planner environment metadata: IndexInfo, ViewInfo, PlannerEnv."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.definition import IndexDefinition
from repro.optimizer.environment import IndexInfo, PlannerEnv, ViewInfo
from repro.views.matview import MatViewDefinition, ViewColumn

from conftest import load_city_database


def test_hypothetical_index_is_conservative():
    definition = IndexDefinition(table="t", columns=("a",))
    info = IndexInfo.hypothetical_on(definition, 100_000, 8)
    assert info.hypothetical
    assert info.cluster_factor == 1.0, (
        "without building the index the system must assume the worst "
        "correlation (the Figure 10 mechanism)"
    )
    assert info.data is None
    assert info.entries == 100_000
    assert info.leaf_pages > 0 and info.height >= 1


def test_from_data_carries_measurements():
    db = load_city_database(n_users=300, n_orders=900)
    from repro.index.data import IndexData
    from repro.storage.encoding import DictionaryCache

    definition = IndexDefinition(table="users", columns=("uid",))
    data = IndexData(definition, db.table("users"), DictionaryCache())
    info = IndexInfo.from_data(data)
    assert not info.hypothetical
    assert info.data is data
    assert info.cluster_factor < 1.0, "uid order matches the heap"


def test_hypothetical_size_overhead_factor():
    definition = IndexDefinition(table="t", columns=("a",))
    lean = IndexInfo.hypothetical_on(definition, 50_000, 8, 1.0)
    fat = IndexInfo.hypothetical_on(definition, 50_000, 8, 2.0)
    assert fat.leaf_pages > lean.leaf_pages


def test_planner_env_queries():
    db = load_city_database(n_users=100, n_orders=100)
    vdef = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "uid"),),
    )
    join_vdef = MatViewDefinition(
        tables=("users", "orders"),
        join_pred=(("users", "uid"), ("orders", "uid")),
        group_columns=(ViewColumn("users", "city"),),
    )
    env = PlannerEnv(
        catalog=db.catalog,
        estimator=None,
        hardware=db.system.hardware,
        indexes={"users": ["sentinel"]},
        views=[
            ViewInfo(vdef, 10, 1, 16),
            ViewInfo(join_vdef, 10, 1, 16),
        ],
    )
    assert env.structures_on("users").indexes == ("sentinel",)
    assert env.structures_on("users").views == ()
    # Single-table views sit with their table; a join view with none.
    assert env.structures_on("orders").indexes == ()
    assert [v.definition for v in env.structures_on("orders").views] \
        == [vdef]
    assert env.structures_on("lineitem") is env.structures_on("part")


def test_hypothetical_view_size_counts_distinct_key_tuples():
    """A multi-column single-table view is sized by the exact number of
    distinct key tuples (object and integer columns mixed)."""
    db = load_city_database(n_users=300, n_orders=900)
    vdef = MatViewDefinition(
        tables=("orders",),
        group_columns=(
            ViewColumn("orders", "city"), ViewColumn("orders", "uid"),
        ),
    )
    orders = db.table("orders")
    tuples = set(zip(orders.column("city"), orders.column("uid")))
    rows, _width = db._hypothetical_view_size(vdef)
    assert rows == len(tuples)
    assert 1 < rows < orders.row_count


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_hypothetical_view_size_reads_int32_codes_and_orders(seed):
    """70 000 rows: a uid code beside a row position passes 31 bits in
    the lexsort, and the key changes are compared on int32 codes
    gathered through the int32 order."""
    db = load_city_database(n_users=70_000, n_orders=70_000, seed=seed)
    vdef = MatViewDefinition(
        tables=("orders",),
        group_columns=(
            ViewColumn("orders", "uid"), ViewColumn("orders", "amount"),
        ),
    )
    orders = db.table("orders")
    rows, _width = db._hypothetical_view_size(vdef)
    encodings = db._cache("dict_cache")
    assert encodings.lexsort(orders, ("uid", "amount")).dtype == np.int32
    assert encodings.dictionary(orders, "uid").codes.dtype == np.int32
    assert rows == len(np.unique(
        np.stack([orders.column("uid"), orders.column("amount")], axis=1),
        axis=0,
    ))
