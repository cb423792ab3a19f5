"""Random interleavings of inserts and reads on a database under 1C.

An insert leaves every index on its table, and every cached dictionary
of its columns, to be brought up to date by whatever reads it first.
The property tests of both (``test_index_data.py``,
``test_encoding.py``) drive the same machine: a list of steps, each an
insert or a read, with a check of the reader's choosing after every
read.  Every row loaded and inserted is also kept here, outside
``Table``, as plain values (:class:`Reference`: ints as int64, strings
as ``str``): after every step each stored column must decode to it,
and a read's answer is compared with a database loaded from it and
built from scratch (:func:`rebuilt`) — never with one loaded from the
storage under test.  Every insert's virtual seconds are compared with
``cost_model.insert_rows`` at the heights a from-scratch build of each
index had before the batch.
"""

import pickle

import numpy as np
from hypothesis import strategies as st

from repro.datagen.nref import generate_nref, nref_catalog
from repro.engine.configuration import one_column_configuration
from repro.engine.database import Database
from repro.engine.systems import system_a
from repro.index.definition import estimate_index_size
from repro.optimizer import cost_model as cm
from repro.optimizer.environment import IndexInfo
from repro.storage.encoding import ColumnDictionary

from conftest import city_columns, load_city_database

# Inserts copy existing rows ("known": every value already in its
# column), shift their numbers to values no row holds ("new"), or put
# one string no row holds and no pool draws from ("outside").
INSERT = st.tuples(
    st.just("insert"), st.sampled_from(("known", "new", "outside")),
    st.integers(1, 12), st.integers(0, 2 ** 16),
)
READ = st.tuples(
    st.sampled_from(("probe", "lookup", "cluster", "plan", "pickle")),
    st.integers(0, 2 ** 16),
)
STEPS = st.lists(st.one_of(INSERT, READ), min_size=1, max_size=8)

# Several inserts before any read, each kind, then every read.
EXAMPLES = (
    [("insert", "known", 5, 1), ("insert", "new", 3, 2),
     ("insert", "outside", 2, 3), ("probe", 0), ("probe", 1)],
    [("insert", "outside", 4, 4), ("cluster", 0), ("insert", "new", 1, 5),
     ("lookup", 7), ("plan", 0), ("pickle", 0), ("insert", "known", 2, 6),
     ("probe", 2)],
)


class Target:
    """One database to drive: how to generate its tables and load them,
    the table the steps insert into, its string column, and SQL whose
    plans probe the table's indexes (index nested-loop joins,
    semijoins, index-only scans)."""

    def __init__(self, name, generate, load, table, string_column, sqls):
        self.name = name
        self.generate = generate
        self._load = load
        self.table = table
        self.string_column = string_column
        self.sqls = sqls

    def load(self, tables=None):
        """The database under 1C, loaded from ``tables`` (generated
        when not given)."""
        database = self._load(tables or self.generate())
        database.apply_configuration(
            one_column_configuration(database.catalog, name="1C")
        )
        return database


def _nref(tables):
    database = Database(nref_catalog(), system_a(), name="nref")
    for name, columns in tables.items():
        database.load_table(name, columns)
    database.collect_statistics()
    return database


TARGETS = {
    "nref": Target(
        "nref", lambda: generate_nref(scale=0.02), _nref,
        "neighboring_seq", "nref_id_1",
        (
            "SELECT s.ordinal, s.score FROM protein r, neighboring_seq s "
            "WHERE r.nref_id = s.nref_id_2 AND r.nref_id = 'NF00000001'",
            "SELECT r.taxon_id, r.nref_id, COUNT(*) FROM organism r, "
            "neighboring_seq s WHERE r.nref_id = s.nref_id_1 AND "
            "r.nref_id IN (SELECT nref_id FROM organism GROUP BY nref_id "
            "HAVING COUNT(*) < 4) AND s.nref_id_1 IN (SELECT nref_id_1 "
            "FROM neighboring_seq GROUP BY nref_id_1 HAVING COUNT(*) < 4) "
            "GROUP BY r.taxon_id, r.nref_id",
            "SELECT s.length_2, COUNT(*) FROM neighboring_seq s "
            "WHERE s.length_2 < 40 GROUP BY s.length_2",
        ),
    ),
    "city": Target(
        "city", city_columns,
        lambda tables: load_city_database(tables=tables),
        "orders", "city",
        (
            "SELECT o.amount FROM users u, orders o "
            "WHERE u.uid = o.uid AND u.uid = 7",
            "SELECT u.city, COUNT(*) FROM users u, orders o "
            "WHERE u.uid = o.uid AND u.age = 30 GROUP BY u.city",
            "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid IN "
            "(SELECT uid FROM orders GROUP BY uid HAVING COUNT(*) < 4) "
            "GROUP BY o.city",
        ),
    ),
}


def plain(values):
    """A column's values as plain values outside ``Table``: ints as
    int64, floats as float64, strings as an object array of ``str``
    (a generated column's dictionary decoded by itself)."""
    if isinstance(values, ColumnDictionary):
        values = values.values[values.codes]
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64)
    if values.dtype == object:
        return np.array([str(v) for v in values.tolist()], dtype=object)
    return values.astype(np.float64)


class Reference:
    """Every row loaded into and inserted into the database, as plain
    values kept apart from its storage: ``tables[table][column]``."""

    def __init__(self, tables):
        self.tables = {
            name: {column: plain(values) for column, values in columns.items()}
            for name, columns in tables.items()
        }

    def insert(self, table, rows):
        self.tables[table] = {
            column: np.concatenate([values, plain(rows[column])])
            for column, values in self.tables[table].items()
        }

    def check_stored(self, database):
        """Every stored column decodes to its plain values (their
        dtype aside: a string column to ``str``s)."""
        for name, columns in self.tables.items():
            table = database.table(name)
            for column, want in columns.items():
                have = table.decode(column)
                assert have.tolist() == want.tolist(), (name, column)


def batch(reference, table, kind, size, seed, string_column):
    """``size`` rows for ``table`` of one insert kind (see ``INSERT``),
    copied from its plain values."""
    columns = reference.tables[table]
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(next(iter(columns.values()))), size)
    rows = {c: values[picks].copy() for c, values in columns.items()}
    if kind == "new":
        for column, values in rows.items():
            if values.dtype.kind in "if":
                rows[column] = values + 10 ** 7 + seed
    elif kind == "outside":
        rows[string_column][0] = f"X{seed}"
    return rows


def rebuilt(database, reference):
    """A database loaded from the plain values of ``reference``, with
    ``database``'s statistics, under its configuration built from
    scratch."""
    fresh = Database(database.catalog, database.system)
    for name, columns in reference.tables.items():
        fresh.load_table(name, columns)
    fresh.statistics = database.statistics
    fresh.apply_configuration(database.configuration)
    return fresh


def indexes_on(database, table):
    return [
        ix for ix in database.configuration.indexes if ix.table == table
    ]


def insert_seconds(database, table, appended):
    """``cost_model.insert_rows`` of ``appended`` rows at the heights
    from-scratch builds of the table's indexes have before them."""
    rows = database.table(table).row_count
    schema = database.table(table).schema
    heights = [
        estimate_index_size(
            rows, sum(schema.column(c).width for c in ix.columns),
            database.system.index_overhead,
        ).height
        for ix in indexes_on(database, table)
    ]
    return cm.insert_rows(
        database.system.hardware, appended, schema.row_width(), heights
    )


def run(target, steps, check):
    """Drive ``steps`` against a fresh ``target`` database, calling
    ``check(database, target)`` after every read; returns the database.

    After every step each stored column decodes to the plain
    reference; a probe's rows and virtual seconds, a literal lookup's
    row ids, a cluster factor and a plan's estimate are each compared
    with a from-scratch build over the reference's rows.
    """
    tables = target.generate()
    reference = Reference(tables)
    database = target.load(tables)
    charged = expected = 0.0
    for step in steps:
        kind, pick = step[0], step[-1]
        table = database.table(target.table)
        if kind == "insert":
            rows = batch(
                reference, target.table, step[1], step[2], pick,
                target.string_column,
            )
            expected += insert_seconds(database, target.table, step[2])
            charged += database.insert_rows(target.table, rows)
            reference.insert(target.table, rows)
            reference.check_stored(database)
            continue
        indexes = indexes_on(database, target.table)
        ix = indexes[pick % len(indexes)]
        sql = target.sqls[pick % len(target.sqls)]
        if kind == "probe":
            got = database.execute(sql)
            want = rebuilt(database, reference).execute(sql)
            assert sorted(got.rows()) == sorted(want.rows()), sql
            assert got.elapsed == want.elapsed, sql
        elif kind == "lookup":
            columns = reference.tables[target.table]
            row = pick // len(indexes) % table.row_count
            key = [columns[c][row] for c in ix.columns]
            got = database._built.index_data[ix.name].lookup_eq(key)
            hit = np.ones(table.row_count, dtype=bool)
            for column, value in zip(ix.columns, key):
                hit &= columns[column] == value
            assert sorted(got.tolist()) == np.flatnonzero(hit).tolist()
        elif kind == "cluster":
            info = IndexInfo.from_data(database._built.index_data[ix.name])
            want = rebuilt(database, reference)._built.index_data[ix.name]
            assert info.cluster_factor == want.cluster_factor, ix.name
        elif kind == "plan":
            assert database.plan(sql).est.cost == \
                rebuilt(database, reference).plan(sql).est.cost, sql
        else:
            database = pickle.loads(pickle.dumps(database))
        reference.check_stored(database)
        check(database, target)
    assert charged == expected
    return database
