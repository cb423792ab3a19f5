"""An aggregate over a join counts the join's matches instead of
expanding it (:mod:`repro.executor.groupjoin`).

Each plan runs twice: as the executor runs it, and with
``count_shape`` patched to ``None`` so that the join expands.  The
result batches must be byte-equal, dtypes included, and so must the
virtual seconds; a timeout must fire at the same charge.
"""

import numpy as np
import pytest

from repro import Catalog, ColumnDef, Database, TableSchema, float_, integer
from repro.bench.context import BenchContext, BenchSettings
from repro.common.errors import QueryTimeout
from repro.engine.configuration import one_column_configuration
from repro.engine.systems import system_a
from repro.executor import engine
from repro.executor.groupjoin import count_shape
from repro.optimizer import cost_model as cm
from repro.optimizer.environment import IndexInfo
from repro.optimizer.plans import (
    HashAggregate,
    HashJoin,
    IndexNLJoin,
    ScanFilter,
    SeqScan,
    ViewScan,
    walk,
)
from repro.sql.binder import AggSpec, BoundColumn
from repro.views.matview import MatViewDefinition, ViewColumn

from conftest import load_city_database


def _database():
    """``side`` (group side A: key ``k``, float ``f``, ``x``) and
    ``other`` (B: key ``k``, ``y``, ``z``), with duplicate keys on both
    sides and keys on either side that the other lacks.  In ``side``,
    row 0 (f = 0.0) has key 5 and row 1 (f = -0.0) key 2; ``other``
    has a key-2 row before its first key-5 row, so an expanded join
    with ``side`` on the build side puts row 1 first."""
    catalog = Catalog([
        TableSchema("side", [
            ColumnDef("k", integer(), "k"),
            ColumnDef("f", float_(), "f"),
            ColumnDef("x", integer(), "x"),
        ]),
        TableSchema("other", [
            ColumnDef("k", integer(), "k"),
            ColumnDef("y", integer(), "y"),
            ColumnDef("z", integer(), "z"),
        ]),
    ])
    db = Database(catalog, system_a(), name="pairs")
    rng = np.random.default_rng(7)
    n_side, n_other = 60, 200
    f = rng.choice([0.5, 1.5, 2.5], n_side)
    f[:2] = [0.0, -0.0]
    db.load_table("side", {
        "k": np.concatenate(([5, 2], rng.integers(0, 12, n_side - 2))),
        "f": f,
        "x": rng.integers(0, 6, n_side),
    })
    db.load_table("other", {
        "k": np.concatenate(([2, 9, 5], rng.integers(3, 15, n_other - 3))),
        "y": rng.integers(0, 9, n_other),
        "z": rng.integers(0, 20, n_other),
    })
    db.collect_statistics()
    db.apply_configuration(one_column_configuration(catalog))
    return db


DB = _database()
SIDE = ["k", "f", "x"]
OTHER = ["k", "y", "z"]


def _scan(alias, table, filters=()):
    columns = SIDE if table == "side" else OTHER
    return SeqScan(alias, table, list(columns), filters=list(filters))


def _other_index():
    """The built single-column index on ``other.k``."""
    for data in DB._built.index_data.values():
        if (data.definition.table, tuple(data.definition.columns)) == (
            "other", ("k",)
        ):
            return IndexInfo.from_data(data)
    raise AssertionError("no index on other.k")


def _count(arg=None, distinct=False):
    column = None if arg is None else BoundColumn(*arg.split("."))
    return AggSpec("count", column, distinct)


def _aggregate(join, group_keys, aggregates):
    return HashAggregate(join, list(group_keys), list(aggregates))


def _hash(left, right, left_key, right_key):
    return HashJoin(left, right, [left_key], [right_key])


def _inl(outer, outer_key="a.k"):
    return IndexNLJoin(
        outer, "b", "other", _other_index(), outer_key, "k", list(OTHER),
    )


def _run(plan, timeout=None, expand=False):
    executor = engine.Executor(
        DB.tables, DB.system.hardware, timeout=timeout
    )
    with pytest.MonkeyPatch.context() as patch:
        if expand:
            patch.setattr(engine, "count_shape", lambda node: None)
        return executor.run(plan)


def _assert_same(plan, counted=True):
    assert (count_shape(plan) is not None) == counted
    got, want = _run(plan), _run(plan, expand=True)
    assert got.elapsed == want.elapsed
    assert list(got.batch.columns) == list(want.batch.columns)
    for key, values in want.batch.columns.items():
        mine = got.batch.columns[key]
        assert mine.dtype == values.dtype, key
        if values.dtype == object:
            assert mine.tolist() == values.tolist(), key
        else:
            assert mine.tobytes() == values.tobytes(), key
    assert got.batch.widths == want.batch.widths
    return got


AGGREGATES = {
    "count": [_count()],
    "distinct on A": [_count("a.x", True), _count()],
    "distinct on B": [_count("b.y", True), _count("b.z", True)],
}
B_FILTERS = {"whole B": [], "filtered B": [ScanFilter("b.z", "z", "<", 12)]}


def _join(side, a, b, inner_filters=()):
    """``a`` joined to ``b`` on ``k`` with ``a`` as the probe side, the
    build side, or an index join's outer side (``b`` is then the index
    on ``other.k``, checking ``inner_filters`` on its matches)."""
    if side == "probe":
        return _hash(a, b, "a.k", "b.k")
    if side == "build":
        return _hash(b, a, "b.k", "a.k")
    join = _inl(a)
    join.residual_filters = list(inner_filters)
    return join


@pytest.mark.parametrize("aggregates", sorted(AGGREGATES))
@pytest.mark.parametrize("b_filters", sorted(B_FILTERS))
@pytest.mark.parametrize("side", ["probe", "build", "outer"])
def test_counted_equals_expanded(side, b_filters, aggregates):
    a = _scan("a", "side", [ScanFilter("a.x", "x", "<", 5)])
    filters = B_FILTERS[b_filters]
    if side == "outer":
        join = _join(side, a, None, filters)
    else:
        join = _join(side, a, _scan("b", "other", filters))
    # The join key is a group key, so COUNT(DISTINCT) on B is counted;
    # an index join that filters its matches expands.
    _assert_same(
        _aggregate(join, ["a.f", "a.k"], AGGREGATES[aggregates]),
        counted=not (side == "outer" and filters),
    )


@pytest.mark.parametrize("b_filters", sorted(B_FILTERS))
@pytest.mark.parametrize("side", ["probe", "build"])
def test_self_join_of_one_column(side, b_filters):
    """Both keys read one dictionary: no slot map between them."""
    filters = [ScanFilter("b.x", "x", "<", 4)] if B_FILTERS[b_filters] else []
    join = _join(side, _scan("a", "side"), _scan("b", "side", filters))
    _assert_same(_aggregate(
        join, ["a.k", "a.x"], [_count(), _count("b.f", True)]
    ))


@pytest.mark.parametrize("side", ["probe", "build", "outer"])
def test_grand_total_and_group_without_join_key(side):
    a = _scan("a", "side")
    b = _scan("b", "other")
    join = _join(side, a, b)
    _assert_same(_aggregate(join, [], [_count(), _count("a.x", True)]))
    _assert_same(_aggregate(join, ["a.x"], [_count("a.f", True)]))
    # COUNT(DISTINCT) on B needs the join key among the group keys.
    _assert_same(
        _aggregate(join, ["a.x"], [_count("b.y", True)]), counted=False
    )


def test_build_side_float_group_takes_the_first_expanded_row():
    """0.0 and -0.0 are one group; its key is the one the expanded
    join meets first — row 1's -0.0, matched by probe row 0 — not the
    group's first build row (0.0)."""
    plan = _aggregate(
        _hash(_scan("b", "other"), _scan("a", "side"), "b.k", "a.k"),
        ["a.f"], [_count()],
    )
    result = _assert_same(plan)
    zero = result.batch.columns["a.f"][result.batch.columns["a.f"] == 0.0]
    assert len(zero) == 1 and np.signbit(zero[0])


@pytest.mark.parametrize("empty", ["a", "b"])
@pytest.mark.parametrize("side", ["probe", "build", "outer"])
def test_empty_side(side, empty):
    none = [ScanFilter(f"{empty}.k", "k", ">", 1000)]
    a = _scan("a", "side", none if empty == "a" else ())
    if side == "outer":
        join = _join(side, a, None, none if empty == "b" else ())
    else:
        join = _join(side, a, _scan("b", "other", none if empty == "b" else ()))
    for group_keys in (["a.k"], []):
        aggregates = [_count(), _count("a.x", True)]
        if group_keys:
            aggregates.append(_count("b.y", True))
        result = _assert_same(
            _aggregate(join, group_keys, aggregates),
            counted=not (side == "outer" and empty == "b"),
        )
        assert result.batch.rows == 0


def test_timeout_fires_at_the_join_output_charge():
    """Both paths stop at the same charge with the same clock."""
    a, b = _scan("a", "side"), _scan("b", "other")
    plan = _aggregate(_hash(b, a, "b.k", "a.k"), ["a.k"], [_count()])
    charges = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            engine.VirtualClock, "charge",
            lambda clock, seconds: charges.append(seconds),
        )
        result = _run(plan)
    join_rows = int(result.batch.columns["agg0:count(*)"].sum())
    width = (
        sum(DB.table("other").schema.column(c).width for c in OTHER)
        + sum(DB.table("side").schema.column(c).width for c in SIDE) + 16
    )
    at = charges.index(cm.join_output(DB.system.hardware, join_rows, width))
    before, through = sum(charges[:at]), sum(charges[:at + 1])
    stops = []
    for expand in (False, True):
        with pytest.raises(QueryTimeout) as stopped:
            _run(plan, timeout=(before + through) / 2, expand=expand)
        stops.append(stopped.value.charged_seconds)
    assert stops[0] == stops[1] == through


def test_view_and_two_key_joins_expand():
    db = load_city_database(n_users=120, n_orders=700, seed=21)
    view = MatViewDefinition(
        tables=("orders",),
        group_columns=(
            ViewColumn("orders", "city"), ViewColumn("orders", "amount"),
        ),
    )
    db.apply_configuration(
        one_column_configuration(db.catalog).with_views((view,), name="MV")
    )
    view_sql = (
        "SELECT t0.age, COUNT(*) FROM users t0, orders t1 "
        "WHERE t0.city = t1.city AND t1.amount > 40 GROUP BY t0.age"
    )
    two_key_sql = (
        "SELECT t0.age, COUNT(*) FROM users t0, orders t1 "
        "WHERE t0.uid = t1.uid AND t0.city = t1.city GROUP BY t0.age"
    )
    view_plan = db.plan(view_sql)
    assert any(isinstance(n, ViewScan) for n in walk(view_plan))
    two_key_plan = db.plan(two_key_sql)
    join = two_key_plan.child
    assert (
        isinstance(join, HashJoin) and len(join.left_keys) == 2
    ) or (isinstance(join, IndexNLJoin) and join.extra_preds)
    for sql, plan in ((view_sql, view_plan), (two_key_sql, two_key_plan)):
        assert count_shape(plan) is None
        counted = db.execute(sql)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "count_shape", lambda node: None)
            expanded = db.execute(sql)
        assert counted.rows() == expanded.rows()
        assert counted.elapsed == expanded.elapsed


# ----------------------------------------------------------------------
# Which benchmark aggregates count


@pytest.fixture(scope="module")
def context():
    return BenchContext(BenchSettings(scale=0.05, workload_size=30, jobs=1))


# (family, system, dataset): counted aggregates of the 30-query sample
# under P and under 1C.  The SkTH3J plans that expand group on an index
# join's inner side.
COUNTED = {
    ("NREF2J", "A", "nref"): {"P": 30, "1C": 30},
    ("NREF3J", "A", "nref"): {"P": 30, "1C": 30},
    ("SkTH3J", "C", "skth"): {"P": 30, "1C": 26},
}


@pytest.mark.parametrize("family, system, dataset", sorted(COUNTED))
def test_benchmark_aggregates_that_count(context, family, system, dataset):
    db = context.database(system, dataset)
    workload = context.workload(system, family)
    counted = {}
    for name, config in (
        ("P", context.p_configuration(db)),
        ("1C", context.one_c_configuration(db)),
    ):
        db.apply_configuration(config)
        plans = [db.plan(query.sql) for query in workload]
        assert all(isinstance(plan, HashAggregate) for plan in plans)
        counted[name] = sum(count_shape(plan) is not None for plan in plans)
        for plan in plans:
            if count_shape(plan) is None:
                join = plan.child
                assert isinstance(join, IndexNLJoin)
                assert all(
                    key.startswith(f"{join.alias}.")
                    for key in plan.group_keys
                )
    assert counted == COUNTED[(family, system, dataset)]
