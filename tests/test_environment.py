"""Planner environment metadata: IndexInfo, ViewInfo, PlannerEnv."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Catalog, ColumnDef, Database, TableSchema, integer, varchar
from repro.engine.database import _PRESENCE_SPAN_PER_ROW
from repro.engine.systems import system_a
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


@st.composite
def key_mixes(draw):
    """``(path, kinds)``: the counting path a key should take, and the
    kind (``"str"`` or ``"int"``) of each of its two to four columns."""
    path = draw(st.sampled_from(("presence", "sort", "fold")))
    # Only four columns of some 60 000 distinct values each multiply
    # past 2**63 at a row count a test can afford.
    width = 4 if path == "fold" else draw(st.integers(2, 4))
    kinds = draw(st.lists(
        st.sampled_from(("str", "int")), min_size=width, max_size=width
    ))
    return path, kinds


def key_ids(path, width, rng):
    """A ``(rows, width)`` array of value ids whose columns' distinct
    counts put the packed key on ``path``, with exact and near
    duplicate rows appended (copies of earlier rows, half of them with
    the last column taken from another earlier row), so no column
    gains a value and the tuples repeat."""
    if path == "fold":
        ids = np.stack(
            [rng.permutation(60_000) for _ in range(width)], axis=1
        )
    else:
        rows = 3000
        # At most four possible keys a row, or well over four.
        top = int((4 * rows) ** (1 / width)) if path == "presence" else 300
        ids = rng.integers(0, top, (rows, width))
    copies = ids[rng.integers(0, len(ids), len(ids) // 4)]
    half = len(copies) // 2
    copies[:half, -1] = ids[rng.integers(0, len(ids), half), -1]
    return np.concatenate([ids, copies])


@settings(max_examples=6, deadline=None)
@given(mix=key_mixes(), seed=st.integers(0, 10_000))
@example(mix=("presence", ["str", "int"]), seed=0)
@example(mix=("sort", ["int", "str", "int"]), seed=1)
@example(mix=("fold", ["str", "int", "str", "int"]), seed=2)
def test_property_hypothetical_view_size_counts_packed_key_tuples(mix, seed):
    """A multi-column single-table view is sized by its distinct key
    tuples, on each counting path of the packed key: a presence scan,
    a sort, and a fold once the columns' distinct counts multiply past
    2**63."""
    path, kinds = mix
    ids = key_ids(path, len(kinds), np.random.default_rng(seed))
    names = [f"c{i}" for i in range(len(kinds))]
    table = TableSchema("t", [
        ColumnDef(name, varchar(8) if kind == "str" else integer(), name)
        for name, kind in zip(names, kinds)
    ])
    db = Database(Catalog([table]), system_a())
    db.load_table("t", {
        name: (np.array([f"v{i}" for i in column], dtype=object)
               if kind == "str" else column * 7 - 3)
        for name, kind, column in zip(names, kinds, ids.T)
    })
    db.collect_statistics()
    vdef = MatViewDefinition(
        tables=("t",),
        group_columns=tuple(ViewColumn("t", name) for name in names),
    )
    stored = db.table("t")
    span = math.prod(len(np.unique(stored.decode(n))) for n in names)
    assert {
        "presence": span <= _PRESENCE_SPAN_PER_ROW * len(ids),
        "sort": _PRESENCE_SPAN_PER_ROW * len(ids) < span <= 2 ** 63,
        "fold": span > 2 ** 63,
    }[path]
    rows, _width = db._hypothetical_view_size(vdef)
    assert rows == len(np.unique(
        np.stack([stored.decode(n).astype(str) for n in names], axis=1),
        axis=0,
    ))
