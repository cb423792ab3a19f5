"""Columnar tables: appends into spare capacity, validation, pickling."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ColumnDef, TableSchema, float_, integer, varchar
from repro.common.errors import CatalogError
from repro.storage.table import Table

from conftest import code_dtype_of, narrowest_dtype

SCHEMA = TableSchema(
    "t",
    [
        ColumnDef("i", integer(), "i"),
        ColumnDef("f", float_(), "f"),
        ColumnDef("s", varchar(4), "s"),
    ],
)
ROW = st.tuples(
    st.integers(-(10 ** 6), 10 ** 6),
    st.floats(-1e9, 1e9),
    st.sampled_from(["", "a", "ab", "zz"]),
)


def columns_of(rows):
    return {
        "i": [r[0] for r in rows],
        "f": [r[1] for r in rows],
        "s": np.array([r[2] for r in rows], dtype=object),
    }


@settings(max_examples=80, deadline=None)
@given(
    initial=st.lists(ROW, max_size=30),
    batches=st.lists(st.lists(ROW, max_size=12), max_size=6),
)
@example(initial=[], batches=[[], [(1, 0.5, "a")], []])
@example(initial=[(1, 0.5, "a")] * 16, batches=[[(2, 1.0, "b")]] * 6)
def test_property_appended_columns_equal_concatenation(initial, batches):
    """After every append each column decodes to ``np.concatenate`` of
    the loaded and appended parts, built in the schema's widest dtype,
    and is stored in the narrowest dtype that holds it — a string
    column as codes in the narrowest dtype that holds its
    dictionary's; every column array handed out before — a snapshot —
    keeps its contents."""
    table = Table(SCHEMA, columns_of(initial))

    def part(rows, col):
        return np.asarray(
            columns_of(rows)[col.name], dtype=col.sql_type.numpy_dtype()
        )

    parts = {col.name: [part(initial, col)] for col in SCHEMA.columns}
    snapshots = []
    for batch in batches:
        snapshots.append({
            name: (table.column(name), table.column(name).tolist())
            for name in parts
        })
        assert table.append_rows(columns_of(batch)) == len(batch)
        for col in SCHEMA.columns:
            parts[col.name].append(part(batch, col))
            want = np.concatenate(parts[col.name])
            have = table.decode(col.name)
            if col.sql_type.kind == "int":
                assert have.dtype == narrowest_dtype(want)
            elif col.sql_type.kind == "str":
                assert table.column(col.name).dtype == code_dtype_of(
                    len(set(want.tolist()))
                )
            assert have.dtype == want.dtype or col.sql_type.kind == "int"
            assert have.tolist() == want.tolist()
        for snapshot in snapshots:
            for array, contents in snapshot.values():
                assert array.tolist() == contents
    assert table.row_count == len(initial) + sum(map(len, batches))


def test_an_append_writes_behind_the_previous_one():
    """The second append copies no stored row: its columns continue
    the first one's buffer, and the first one's arrays are prefixes —
    a string column's codes too, when the batch brings no new string."""
    table = Table(SCHEMA, columns_of([(i, i / 2, "a") for i in range(800)]))
    table.append_rows(columns_of([(1, 1.0, "b")] * 10))
    first = {name: table.column(name) for name in ("i", "f", "s")}
    table.append_rows(columns_of([(2, 2.0, "a")] * 10))
    for name, array in first.items():
        grown = table.column(name)
        assert grown is not array
        assert np.shares_memory(grown, array)
        assert grown[:len(array)].tolist() == array.tolist()


def test_append_naming_an_unknown_column_is_refused():
    table = Table(SCHEMA, columns_of([(1, 0.5, "a")]))
    with pytest.raises(CatalogError, match="'x'"):
        table.append_rows({**columns_of([(2, 1.0, "b")]), "x": [3]})
    assert table.row_count == 1


def test_an_appended_table_pickles_only_its_rows():
    """The spare capacity behind the columns stays out of the pickle:
    an appended table pickles to the bytes a table loaded with the
    same rows does, and unpickles to the same columns."""
    rows = [(i, i / 3, "ab") for i in range(4000)]
    appended = Table(SCHEMA, columns_of(rows[:3000]))
    for start in (3000, 3500):
        appended.append_rows(columns_of(rows[start:start + 500]))
    loaded = Table(SCHEMA, columns_of(rows))
    payload = pickle.dumps(appended, pickle.HIGHEST_PROTOCOL)
    assert len(payload) == len(pickle.dumps(loaded, pickle.HIGHEST_PROTOCOL))
    clone = pickle.loads(payload)
    for name in ("i", "f", "s"):
        assert clone.column(name).tolist() == loaded.column(name).tolist()
    clone.append_rows(columns_of(rows[:1]))
    assert clone.row_count == appended.row_count + 1 == 4001


# Integer values at and around the int16 and int32 limits.
EDGES = st.sampled_from([
    -(2 ** 31) - 1, -(2 ** 31), -32769, -32768, -32767, -1, 0, 1,
    32767, 32768, 2 ** 31 - 1, 2 ** 31,
])
NARROW = TableSchema("n", [ColumnDef("i", integer(), "i")])


@settings(max_examples=150, deadline=None)
@given(
    initial=st.lists(EDGES, max_size=12),
    batches=st.lists(st.lists(EDGES, max_size=6), max_size=6),
)
# Section 4.4's first insert: NREF ordinals loaded at most 6 670 take
# the new rows' numbers from 236 101 on.
@example(initial=[1, 2, 6670], batches=[[236101, 236102], [236103]])
@example(initial=[0], batches=[[32767], [32768], [2 ** 31]])
def test_property_integer_columns_widen_and_never_wrap(initial, batches):
    """An integer column is stored in the narrowest dtype that holds
    its values: loaded, after every append (widening once or twice, in
    one copy) and after a pickle round trip, it equals the int64
    concatenation of its parts, and every array handed out before an
    append keeps its dtype and contents."""
    table = Table(NARROW, {"i": initial})
    want = np.array(initial, dtype=np.int64)
    snapshots = []
    for batch in batches:
        column = table.column("i")
        snapshots.append((column, column.dtype, want.tolist()))
        table.append_rows({"i": np.array(batch, dtype=np.int64)})
        want = np.concatenate([want, np.array(batch, dtype=np.int64)])
        have = table.column("i")
        assert have.dtype == narrowest_dtype(want)
        assert have.tolist() == want.tolist()
    for array, dtype, contents in snapshots:
        assert array.dtype == dtype and array.tolist() == contents
    clone = pickle.loads(pickle.dumps(table))
    assert clone.column("i").dtype == narrowest_dtype(want)
    assert clone.column("i").tolist() == want.tolist()


def test_an_int64_pickle_loads_narrow():
    """A table pickled while its columns were int64 loads them in the
    narrowest dtype that holds them."""
    table = Table(NARROW, {"i": [3, -7, 40000]})
    table._columns["i"] = table.column("i").astype(np.int64)
    clone = pickle.loads(pickle.dumps(table))
    assert clone.column("i").dtype == np.int32
    assert clone.column("i").tolist() == [3, -7, 40000]


def test_an_int32_code_pickle_loads_narrow():
    """A string column pickled while its codes were int32 loads them in
    the narrowest dtype its dictionary needs."""
    table = Table(STRINGS, {"s": np.array(["b", "a", "b"], dtype=object)})
    coded = table.dictionary("s")
    coded.base = coded._codes = coded.codes.astype(np.int32)
    table._columns["s"] = coded.base
    clone = pickle.loads(pickle.dumps(table))
    assert table.column("s").dtype == np.int32
    assert clone.column("s").dtype == np.int16
    assert clone.column("s") is clone.dictionary("s").codes
    assert clone.decode("s").tolist() == ["b", "a", "b"]


def test_resident_bytes_count_each_buffer_in_its_dtype():
    """A table's resident bytes are its column buffers by dtype, the
    spare capacity behind appended rows included — a string column's
    codes, two bytes a row while its dictionary holds at most 32 768
    values, never an object array; a column an append widened counts
    in its new dtype only."""
    table = Table(SCHEMA, columns_of([(i, i / 2, "a") for i in range(800)]))
    assert table.resident_bytes() == {
        "int16": 2 * 800 + 2 * 800, "float64": 8 * 800,
    }
    table.append_rows(columns_of([(40_000, 1.0, "b")] * 10))
    spare = 810 + 810 // 8
    assert table.resident_bytes() == {
        "int32": 4 * spare, "int16": 2 * spare, "float64": 8 * spare,
    }


# ----------------------------------------------------------------------
# String columns stored as their codes

# The empty string, prefixes, quotes and non-ASCII text.
WORDS = st.sampled_from([
    "", "a", "ab", "b", "it's", 'say "hi"', "naïve", "Straße", "日本",
    "zz",
])
STRINGS = TableSchema("w", [ColumnDef("s", varchar(8), "s")])


def loaded(words, how):
    """A one-column string table of ``words``, loaded as an object
    array (hashed), or as its dictionary read off pool indices."""
    from repro.storage.encoding import ColumnDictionary

    if how == "hashed":
        return Table(STRINGS, {"s": np.array(words, dtype=object)})
    pool = np.array(sorted(set(words)) + ["never drawn"], dtype=object)
    rows = np.array(
        [pool.tolist().index(w) for w in words], dtype=np.int32
    )
    return Table(STRINGS, {"s": ColumnDictionary.from_pool(pool, rows)})


@settings(max_examples=100, deadline=None)
@given(words=st.lists(WORDS, max_size=40),
       how=st.sampled_from(["hashed", "pooled"]))
@example(words=[], how="hashed")
@example(words=[], how="pooled")
@example(words=["b", "b", "a"], how="pooled")
def test_property_a_coded_column_decodes_to_what_was_loaded(words, how):
    """Loaded either way — empty, with duplicates, quotes or non-ASCII
    text — a string column is int16 codes (it has fewer than 32 768
    values) into sorted distinct values and decodes to its input, rows
    in any order too."""
    table = loaded(words, how)
    dictionary = table.dictionary("s")
    assert table.column("s") is dictionary.codes
    assert table.column("s").dtype == np.int16
    assert dictionary.values.tolist() == sorted(set(words))
    assert table.decode("s").tolist() == words
    rows = np.arange(len(words))[::-1]
    assert table.decode("s", rows).tolist() == words[::-1]
    assert "object" not in table.resident_bytes()


@settings(max_examples=100, deadline=None)
@given(
    words=st.lists(WORDS, max_size=30),
    batches=st.lists(
        st.tuples(st.lists(WORDS, max_size=8), st.booleans()), max_size=4
    ),
    how=st.sampled_from(["hashed", "pooled"]),
)
def test_property_coded_appends_equal_the_concatenation(words, batches, how):
    """Appends inside the column's values carry the values array over
    and write their codes behind the stored ones; an append that
    brings a new string grows the values.  Either way the column
    decodes to the concatenation, and every codes array handed out
    before keeps its contents."""
    table = loaded(words, how)
    want = list(words)
    snapshots = []
    for batch, outside in batches:
        if outside:
            batch = batch + [f"new {len(want)}"]
        before = table.dictionary("s")
        snapshots.append((table.column("s"), table.column("s").tolist()))
        table.append_rows({"s": np.array(batch, dtype=object)})
        want += batch
        grown = table.dictionary("s")
        assert table.column("s") is grown.codes
        assert table.decode("s").tolist() == want
        assert grown.values.tolist() == sorted(set(want))
        inside = set(batch) <= set(before.values.tolist())
        assert (grown.values is before.values) == inside
    for codes, contents in snapshots:
        assert codes.tolist() == contents


@pytest.mark.parametrize("how", ["hashed", "pooled"])
def test_a_coded_table_pickles_and_an_object_pickle_loads_coded(how):
    """A coded table pickles as its codes and dictionary and unpickles
    to the same column; a pickle whose string column is an object
    array — written before strings were coded — loads coded."""
    words = ["b", "naïve", "", "b", "it's"] * 3
    table = loaded(words, how)
    table.append_rows({"s": ["zz", "b"]})
    clone = pickle.loads(pickle.dumps(table))
    assert clone.decode("s").tolist() == words + ["zz", "b"]
    assert clone.column("s") is clone.dictionary("s").codes
    clone.append_rows({"s": ["a"]})
    assert clone.decode("s").tolist()[-1] == "a"

    old = Table.__new__(Table)
    old.__dict__.update({
        "schema": STRINGS, "_byte_size": None, "_spare": {},
        "_columns": {"s": np.array(words, dtype=object)},
    })
    restored = pickle.loads(pickle.dumps(old))
    assert restored.column("s").dtype == code_dtype_of(4) == np.int16
    assert restored.dictionary("s").coded
    assert restored.decode("s").tolist() == words
