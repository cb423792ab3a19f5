"""Shared fixtures: a small hand-built database and tiny generated ones."""

import numpy as np
import pytest
from hypothesis import settings

from repro import (
    Catalog,
    ColumnDef,
    Database,
    TableSchema,
    integer,
    varchar,
)
from repro.engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from repro.engine.systems import system_a

# Every run draws the same examples: a property that fails, fails on
# every run, and one defect cannot pass in one run and fail in the next.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def narrowest_dtype(values):
    """The dtype an integer column holding ``values`` is stored in: the
    narrowest of int16, int32 and int64 that holds every one of them
    (int16 for none) — a reference written apart from the storage
    layer's own rule."""
    values = [int(v) for v in values]
    for dtype in (np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        if all(info.min <= v <= info.max for v in values):
            return np.dtype(dtype)
    raise ValueError("values outside int64")


def code_dtype_of(n_distinct):
    """The dtype of the codes into a dictionary of ``n_distinct``
    values: int16 up to 32 768 values, int32 beyond — a reference
    written apart from the storage layer's own rule."""
    return np.dtype(np.int16 if n_distinct <= 1 << 15 else np.int32)


def make_city_catalog():
    users = TableSchema(
        "users",
        [
            ColumnDef("uid", integer(), "id"),
            ColumnDef("city", varchar(12), "city"),
            ColumnDef("age", integer(), "age"),
        ],
        primary_key=("uid",),
    )
    orders = TableSchema(
        "orders",
        [
            ColumnDef("oid", integer(), "id"),
            ColumnDef("uid", integer(), "id"),
            ColumnDef("city", varchar(12), "city"),
            ColumnDef("amount", integer(), "amount"),
        ],
        primary_key=("oid",),
    )
    return Catalog([users, orders])


def city_columns(n_users=500, n_orders=2500, seed=0):
    """``{table: {column: values}}`` of the city database."""
    rng = np.random.default_rng(seed)
    cities = np.array(["tor", "mtl", "van", "cal", "ott"], dtype=object)
    users = {
        "uid": np.arange(n_users),
        "city": rng.choice(cities, n_users),
        "age": rng.integers(18, 80, n_users),
    }
    orders = {
        "oid": np.arange(n_orders),
        "uid": rng.integers(0, n_users, n_orders),
        "city": rng.choice(cities, n_orders),
        "amount": rng.integers(1, 100, n_orders),
    }
    return {"users": users, "orders": orders}


def load_city_database(n_users=500, n_orders=2500, seed=0, tables=None):
    """The city database, loaded from ``tables`` (default
    :func:`city_columns`), with statistics."""
    db = Database(make_city_catalog(), system_a(), name="city")
    tables = tables or city_columns(n_users, n_orders, seed)
    for name, columns in tables.items():
        db.load_table(name, columns)
    db.collect_statistics()
    return db


@pytest.fixture
def city_db():
    """A small two-table database with statistics, in the default config."""
    return load_city_database()


@pytest.fixture
def city_db_p(city_db):
    city_db.apply_configuration(primary_configuration(city_db.catalog))
    return city_db


@pytest.fixture
def city_db_1c(city_db):
    city_db.apply_configuration(one_column_configuration(city_db.catalog))
    return city_db


@pytest.fixture(scope="session")
def tiny_nref():
    """A tiny NREF database (shared across the session; read-mostly)."""
    from repro.datagen.nref import load_nref_database

    db = load_nref_database(system_a(), scale=0.05)
    db.apply_configuration(primary_configuration(db.catalog, name="P"))
    return db


@pytest.fixture(scope="session")
def tiny_tpch():
    from repro.datagen.tpch import load_tpch_database
    from repro.engine.systems import system_c

    db = load_tpch_database(system_c(), scale=0.05, zipf=1.0)
    db.apply_configuration(primary_configuration(db.catalog, name="P"))
    return db


def assert_keys_are_scanned(plan):
    """The plan shape the executor's one route to codes rests on.

    The root is a ``Project`` or a ``HashAggregate`` and neither occurs
    below it, and every key an operator takes codes of — ``HashJoin``
    keys, ``IndexNLJoin.outer_key``, group keys, ``COUNT(DISTINCT)``
    arguments, ``SemiFilter.key`` — is an ``alias.column`` that a scan
    node beneath the operator produces (so it has a dictionary).  A
    failure names the operator that would need a non-dictionary path.
    """
    from repro.optimizer.plans import (
        HashAggregate,
        HashJoin,
        IndexNLJoin,
        Project,
        ViewScan,
        walk,
    )

    def scanned(node):
        """Batch keys the scans at and beneath ``node`` produce."""
        if isinstance(node, (Project, HashAggregate)):
            return scanned(node.child)
        if isinstance(node, HashJoin):
            return scanned(node.left) | scanned(node.right)
        if isinstance(node, ViewScan):
            return set(node.column_map)
        keys = {f"{node.alias}.{column}" for column in node.columns}
        if isinstance(node, IndexNLJoin):
            keys |= scanned(node.outer)
        return keys

    def check(node, keys, beneath):
        missing = [key for key in keys if key not in beneath]
        assert not missing, (
            f"{node.describe()} takes codes of {missing}, which no scan "
            f"beneath it produces"
        )

    assert isinstance(plan, (Project, HashAggregate)), (
        f"the plan's root is a {type(plan).__name__}"
    )
    for node in walk(plan):
        if node is not plan:
            assert not isinstance(node, (Project, HashAggregate)), (
                f"{node.describe()} occurs below the root"
            )
        if isinstance(node, HashAggregate):
            distinct = [
                str(agg.arg) for agg in node.aggregates
                if agg.func == "count" and agg.distinct
            ]
            check(node, list(node.group_keys) + distinct,
                  scanned(node.child))
        elif isinstance(node, HashJoin):
            check(node, node.left_keys, scanned(node.left))
            check(node, node.right_keys, scanned(node.right))
        elif isinstance(node, IndexNLJoin):
            check(node, [node.outer_key], scanned(node.outer))
        check(node, [semi.key for semi in getattr(node, "semi_filters", ())],
              scanned(node))
