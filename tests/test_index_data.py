"""Built index data: probes, sizes, cluster factors, B+-tree agreement."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interleave
import oracle
from btree import BPlusTree
from repro import ColumnDef, TableSchema, float_, integer, obs, varchar
from repro.common.hardware import PAGE_SIZE
from repro.engine import database as engine_database
from repro.engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from repro.index.data import IndexData, gather_ranges
from repro.index.definition import (
    IndexDefinition,
    estimate_index_size,
    heap_fetch_pages,
)
from repro.storage.encoding import DictionaryCache
from repro.storage.table import Table

from conftest import load_city_database, narrowest_dtype


# Rows this wide fit four to a heap page, so an index over a few dozen
# of them changes page often: appends exercise the carried
# page-transition count, not just the first page.
KEYED = TableSchema(
    "keyed",
    [
        ColumnDef("i", integer(), "i"),
        ColumnDef("f", float_(), "f"),
        ColumnDef("s", varchar(2000), "s"),
    ],
    primary_key=("i",),
)

# Small domains force heavy duplicates; the extremes sort before and
# after everything a batch of mid values holds.
INTS = st.sampled_from([-(10 ** 6), -1, 0, 1, 2, 3, 10 ** 6])
FLOATS = st.sampled_from([-1e9, -0.5, 0.0, 0.25, 0.5, 2.0, 1e9])
STRINGS = st.sampled_from(["", "a", "ab", "b", "m", "zz", "zzzz"])
ROW = st.tuples(INTS, FLOATS, STRINGS)


def keyed_columns(rows):
    return {
        "i": [r[0] for r in rows],
        "f": [r[1] for r in rows],
        "s": np.array([r[2] for r in rows], dtype=object),
    }


def make_index(city_db, table, columns):
    definition = IndexDefinition(table=table, columns=tuple(columns))
    return IndexData(definition, city_db.table(table), DictionaryCache())


def tree_of(index):
    """The reference B+-tree over ``index``'s entries."""
    key_columns = [
        np.repeat(index.values, np.diff(index.offsets)),
        *(column if values is None else values[column]
          for column, values in zip(index.inner_columns, index.inner_values)),
    ]
    return BPlusTree.bulk_load(zip(
        (tuple(column[i] for column in key_columns)
         for i in range(index.entry_count)),
        (int(row_id) for row_id in index.row_ids),
    ))


def test_definition_validation():
    with pytest.raises(ValueError):
        IndexDefinition(table="t", columns=())
    with pytest.raises(ValueError):
        IndexDefinition(table="t", columns=("a", "a"))
    ix = IndexDefinition(table="t", columns=("a", "b"))
    assert ix.width == 2


def test_lookup_eq_single_column(city_db):
    index = make_index(city_db, "users", ["city"])
    column = city_db.table("users").decode("city")
    for value in ("tor", "mtl", "nowhere"):
        got = sorted(index.lookup_eq((value,)).tolist())
        expected = sorted(np.flatnonzero(column == value).tolist())
        assert got == expected


def test_lookup_eq_composite_prefix(city_db):
    index = make_index(city_db, "users", ["city", "age"])
    users = city_db.table("users")
    city, age = users.decode("city"), users.decode("age")
    got = sorted(index.lookup_eq(("tor", 30)).tolist())
    expected = sorted(
        np.flatnonzero((city == "tor") & (age == 30)).tolist()
    )
    assert got == expected
    # A 1-column prefix also works.
    assert sorted(index.lookup_eq(("tor",)).tolist()) == sorted(
        np.flatnonzero(city == "tor").tolist()
    )
    with pytest.raises(ValueError):
        index.lookup_eq(("tor", 30, 1))


def test_probe_many_matches_loop(city_db):
    index = make_index(city_db, "orders", ["uid"])
    uid = city_db.table("orders").decode("uid")
    probes = np.array([0, 1, 2, 9999, 1])
    lows, highs = index.ranges(probes)
    row_ids, probe_idx = index.fetch(lows, highs)
    assert len(row_ids) == len(probe_idx)
    assert (highs - lows).sum() == len(row_ids)
    for p, expected in enumerate(probes):
        got = sorted(row_ids[probe_idx == p].tolist())
        assert got == sorted(np.flatnonzero(uid == expected).tolist())


def test_ranges_count_the_matches_per_probe(city_db):
    index = make_index(city_db, "orders", ["uid"])
    uid = city_db.table("orders").decode("uid")
    probes = np.arange(10)
    lows, highs = index.ranges(probes)
    for p, c in zip(probes, highs - lows):
        assert c == int(np.sum(uid == p))


# Leading keys whose neighbours leave room for a probe in between; the
# strings include the empty one (nothing sorts below it) and prefixes
# of one another.
LEADING = {
    "i": ([-(10 ** 6), -4, 0, 2, 10 ** 6], [-(10 ** 7), -5, 1, 10 ** 7]),
    "f": ([-1e9, -0.5, 0.0, 0.25, 1e9], [-1e12, -0.25, 0.125, 1e12]),
    "s": (["", "a", "ab", "b", "zz"], ["aa", "abc", "c", "zzz"]),
}


@settings(max_examples=100, deadline=None)
@given(
    column=st.sampled_from(sorted(LEADING)),
    picks=st.lists(st.integers(0, 4), min_size=0, max_size=30),
    inner=st.booleans(),
)
def test_property_ranges_equal_a_brute_force_scan(column, picks, inner):
    """Probes below, between, equal to and above every key — on an
    empty index and a one-row index too — get the entry range a scan
    of the key-ordered column finds."""
    keys, between = LEADING[column]
    rows = [
        tuple(LEADING[name][0][pick] for name in "ifs") for pick in picks
    ]
    table = Table(KEYED, keyed_columns(rows))
    other = "f" if column == "i" else "i"
    definition = IndexDefinition(
        table="keyed", columns=(column, other) if inner else (column,)
    )
    index = IndexData(definition, table, DictionaryCache())
    ordered = table.decode(column)[index.row_ids]
    # Built in the schema's widest dtype: probes outside an int16 or
    # int32 column's range are compared, never cast into it.
    probes = np.array(
        keys + between, dtype=KEYED.column(column).sql_type.numpy_dtype()
    )
    lows, highs = index.ranges(probes)
    assert lows.dtype == highs.dtype == np.int64
    for probe, low, high in zip(probes.tolist(), lows, highs):
        matching = np.flatnonzero(ordered == probe)
        assert high - low == len(matching)
        if len(matching):
            assert (low, high) == (matching[0], matching[-1] + 1)
        assert index.lookup_eq((probe,)).tolist() == index.row_ids[
            matching
        ].tolist()
    row_ids, _ = index.fetch(lows, highs)
    assert sorted(row_ids.tolist()) == sorted(
        np.flatnonzero(np.isin(table.decode(column), probes)).tolist()
    )


def test_tree_agrees_with_arrays(city_db):
    index = make_index(city_db, "users", ["city", "age"])
    tree = tree_of(index)
    tree.check_invariants()
    assert len(tree) == index.entry_count
    got = sorted(tree.search(("tor", 30)))
    assert got == sorted(index.lookup_eq(("tor", 30)).tolist())


def test_cluster_factor_bounds(city_db):
    clustered = make_index(city_db, "users", ["uid"])  # insertion order
    scattered = make_index(city_db, "users", ["city"])
    assert 0 < clustered.cluster_factor <= 1.0
    assert 0 < scattered.cluster_factor <= 1.0
    # uid follows the heap order, so its cluster factor is far smaller.
    assert clustered.cluster_factor < scattered.cluster_factor


def test_size_estimate_properties():
    small = estimate_index_size(100, 8)
    big = estimate_index_size(1_000_000, 8)
    assert big.leaf_pages > small.leaf_pages
    assert big.height >= small.height
    assert big.byte_size > small.byte_size
    inflated = estimate_index_size(1_000_000, 8, overhead_factor=2.0)
    assert inflated.byte_size > big.byte_size


def test_heap_fetch_pages_monotone():
    previous = 0.0
    for k in (0, 1, 10, 100, 1000, 10_000):
        pages = heap_fetch_pages(k, 10_000, 500)
        assert pages >= previous
        assert pages <= 500
        previous = pages


@settings(max_examples=150, deadline=None)
@given(
    size=st.integers(1, 200),
    ranges=st.lists(
        st.tuples(st.integers(0, 199), st.sampled_from([0, 0, 1, 2, 7])),
        max_size=50,
    ),
    dtype=st.sampled_from([np.int32, np.int64]),
)
@example(size=5, ranges=[(0, 0), (3, 0), (4, 0)], dtype=np.int32)
@example(size=9, ranges=[(0, 0), (0, 0), (2, 3), (8, 1)], dtype=np.int32)
@example(size=9, ranges=[(2, 3), (8, 1), (0, 0), (9, 0)], dtype=np.int64)
@example(size=9, ranges=[(1, 2), (5, 0)] * 4, dtype=np.int32)
@example(size=200, ranges=[(7, 0), (0, 200), (7, 0)], dtype=np.int32)
def test_property_gather_ranges(size, ranges, dtype):
    """gather_ranges equals the naive per-range concatenation: no
    ranges, only empty ones, empties leading, trailing and in between,
    one range spanning everything — over int32 values (an index's row
    ids, a join's build order) as over int64 ones."""
    values = (np.arange(size) * 3 % size).astype(dtype)
    lows = np.array([min(lo, size) for lo, _ in ranges], dtype=np.int64)
    highs = np.array(
        [min(lo + count, size) for lo, count in ranges], dtype=np.int64
    )
    got_values, got_ranges = gather_ranges(values, lows, highs)
    expected_values, expected_ranges = [], []
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        expected_values.extend(values[lo:hi].tolist())
        expected_ranges.extend([i] * (hi - lo))
    assert got_values.dtype == dtype and got_ranges.dtype == np.int64
    assert got_values.tolist() == expected_values
    assert got_ranges.tolist() == expected_ranges


# ----------------------------------------------------------------------
# IndexData.append: merging a batch equals rebuilding

def rescanned_transitions(index, table):
    """Page transitions along ``index.row_ids``, counted over the whole
    array: the reference an appended index's carried count must equal."""
    if not index.entry_count:
        return 0
    rows_per_page = max(1.0, PAGE_SIZE / table.schema.row_width())
    pages = np.floor(index.row_ids / rows_per_page)
    return 1 + int(np.count_nonzero(np.diff(pages)))


def assert_same_index(got, want):
    assert got.row_ids.dtype == want.row_ids.dtype
    assert got.row_ids.tolist() == want.row_ids.tolist()
    assert len(got.inner_columns) == len(want.inner_columns)
    for have, expected in zip(
        (got.values, got.offsets, *got.inner_columns),
        (want.values, want.offsets, *want.inner_columns),
    ):
        assert have.dtype == expected.dtype
        assert have.tolist() == expected.tolist()
    assert got.entry_count == want.entry_count
    assert got.size == want.size
    assert got.page_transitions == want.page_transitions
    assert got.cluster_factor == want.cluster_factor


@settings(max_examples=120, deadline=None)
@given(
    initial=st.lists(ROW, min_size=0, max_size=40),
    batches=st.lists(st.lists(ROW, min_size=0, max_size=12), max_size=4),
    key=st.permutations(["i", "f", "s"]).flatmap(
        lambda names: st.integers(1, 3).map(lambda n: tuple(names[:n]))
    ),
)
@example(initial=[], batches=[[], [(1, 0.5, "a")], []], key=("i",))
@example(initial=[], batches=[[(2, 0.0, "b"), (1, 0.5, "a")]],
         key=("s", "f"))
@example(initial=[(3, 2.0, "m")] * 3, batches=[[]], key=("f", "i", "s"))
def test_property_append_equals_rebuild(initial, batches, key):
    table = Table(KEYED, keyed_columns(initial))
    definition = IndexDefinition(table="keyed", columns=key)
    cache = DictionaryCache()
    index = IndexData(definition, table, cache, overhead_factor=1.3)
    # A fresh build shares the cache's memoized order.
    memo = cache.lexsort(table, key)
    assert index.row_ids is memo
    memo_before = memo.tolist()
    for batch in batches:
        # Through the cache, as Database.insert_rows appends: the
        # leading column's dictionary is extended, and the merge reads
        # the new values and run offsets off it.
        cache.append_rows(table, keyed_columns(batch))
        before, before_rows = index.row_ids, index.row_ids.tolist()
        merged = index.append(table, cache)
        # The old index is a snapshot: appending leaves it — and the
        # order it may share with the cache — alone.
        assert merged is not index and index.row_ids is before
        assert before.tolist() == before_rows
        assert memo.tolist() == memo_before
        assert not merged.row_ids.flags.writeable
        assert merged.values is cache.dictionary(table, key[0]).values
        index = merged
        rebuilt = IndexData(
            definition, table, DictionaryCache(), overhead_factor=1.3
        )
        assert_same_index(index, rebuilt)
        # The carried page-transition count is never rescanned: it
        # must equal a count over the whole spliced array.
        assert index.page_transitions == rescanned_transitions(index, table)
        # np.lexsort on the raw columns is the reference for both.
        assert rebuilt.row_ids.tolist() == np.lexsort(
            tuple(table.decode(c) for c in reversed(key))
        ).tolist()
    tree = tree_of(index)
    tree.check_invariants()
    assert len(tree) == index.entry_count
    for row in initial[:3] + [r for batch in batches for r in batch[:2]]:
        probe = tuple(row["ifs".index(name)] for name in key)
        assert sorted(tree.search(probe)) == sorted(
            index.lookup_eq(probe).tolist()
        )


@pytest.mark.parametrize("key", [("s", "i"), ("i", "s")])
def test_appends_at_code_32767_and_past_it_equal_a_rebuild(key):
    """A string key of exactly 32 768 values (int16 codes up to 32 767)
    takes rows at its last code, then a batch that brings new values
    and widens its codes to int32: leading or inner, the merged index
    equals a rebuild, dtypes included."""
    words = np.array([f"w{v:05d}" for v in range(1 << 15)], dtype=object)
    rng = np.random.default_rng(7)
    table = Table(KEYED, {
        "i": rng.integers(0, 5, len(words)), "f": np.zeros(len(words)),
        "s": rng.permutation(words),
    })
    definition = IndexDefinition(table="keyed", columns=key)
    cache = DictionaryCache()
    index = IndexData(definition, table, cache)
    index.inner_columns  # gathered now, so the merge recodes them
    for batch in ([words[-1]] * 3 + [words[0]], ["w99999", "a", words[-1]]):
        cache.append_rows(table, {
            "i": np.arange(len(batch)), "f": np.zeros(len(batch)),
            "s": np.array(batch, dtype=object),
        })
        index = index.append(table, cache)
        assert_same_index(index, IndexData(definition, table,
                                           DictionaryCache()))
    assert table.column("s").dtype == np.int32


@pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 16])
def test_cluster_factor_by_blocks_equals_the_whole_array_formula(
        city_db, monkeypatch, block):
    from repro.index import data as index_data

    monkeypatch.setattr(index_data, "_PAGE_BLOCK", block)
    orders = city_db.table("orders")
    for columns in (("oid",), ("city",), ("uid", "amount")):
        index = make_index(city_db, "orders", columns)
        rows_per_page = max(1.0, PAGE_SIZE / orders.schema.row_width())
        pages = np.floor(index.row_ids / rows_per_page)
        transitions = 1 + int(np.count_nonzero(np.diff(pages)))
        assert index.cluster_factor == min(
            1.0, transitions / index.entry_count
        )


def test_insert_rows_merges_instead_of_rebuilding(city_db_1c, monkeypatch):
    """Database.insert_rows swaps in merged entries — IndexData is never
    constructed — and they equal a from-scratch build."""
    def refuse(*args, **kwargs):
        raise AssertionError("insert_rows rebuilt an index")

    held = dict(city_db_1c._built.index_data)
    monkeypatch.setattr(engine_database, "IndexData", refuse)
    with obs.recording(obs.TraceRecorder()) as recorder:
        city_db_1c.insert_rows(
            "orders",
            {"oid": [90_000, 90_001], "uid": [3, 499],
             "city": ["aaa", "tor"], "amount": [1, 1000]},
        )
    monkeypatch.undo()
    orders = city_db_1c.table("orders")
    on_orders = [
        ix for ix in city_db_1c.configuration.indexes if ix.table == "orders"
    ]
    counters = recorder.metrics.snapshot()["counters"]
    assert counters["engine.index_entries_merged"] == 2 * len(on_orders)
    for ix in on_orders:
        merged = city_db_1c._built.index_data[ix.name]
        assert merged is not held[ix.name]
        assert held[ix.name].entry_count == orders.row_count - 2
        assert_same_index(
            merged,
            IndexData(
                ix, orders, DictionaryCache(),
                city_db_1c.system.index_overhead,
            ),
        )


# ----------------------------------------------------------------------
# Deferred merges: an insert leaves each index to its first reader

def rebuilt_index(database, ix):
    return IndexData(
        ix, database.table(ix.table), DictionaryCache(),
        database.system.index_overhead,
    )


def check_indexes(database, target):
    """Every merged index on the table equals a from-scratch build and
    reads its leading values off the dictionary; every deferred one
    already has a build's entry count and size."""
    encodings = database._cache("dict_cache")
    for ix in interleave.indexes_on(database, target.table):
        data = database._built.index_data[ix.name]
        want = rebuilt_index(database, ix)
        if "_owed" in data.__dict__:
            assert (data.entry_count, data.size) == \
                (want.entry_count, want.size), ix.name
            continue
        assert_same_index(data, want)
        assert data.values is encodings.dictionary(
            database.table(ix.table), ix.columns[0]
        ).values, ix.name


@pytest.mark.parametrize("target", sorted(interleave.TARGETS))
@settings(max_examples=25, deadline=None)
@given(steps=interleave.STEPS)
@example(steps=interleave.EXAMPLES[0])
@example(steps=interleave.EXAMPLES[1])
def test_property_deferred_indexes_read_as_built(target, steps):
    """Inserts — with and without new values, one value outside the
    pool, several before any read — interleaved with probes, literal
    lookups, cluster factors, plans and pickle round trips: whatever a
    read reaches equals a from-scratch build, and the inserts charge
    from-scratch heights."""
    database = interleave.run(
        interleave.TARGETS[target], steps, check_indexes
    )
    for data in database._built.index_data.values():
        data.row_ids
    check_indexes(database, interleave.TARGETS[target])


def test_a_build_gathers_its_inner_columns_on_first_read(city_db):
    """A multi-column build leaves its inner key columns to their first
    reader, who gets the eager gather's arrays, read-only, over the
    build's rows only, whatever was appended since; a pickle carries
    them gathered."""
    orders = city_db.table("orders")
    index = make_index(city_db, "orders", ["city", "uid", "amount"])
    want = [orders.column(c)[index.row_ids] for c in ("uid", "amount")]
    # Reading the row ids ran the build, which gathers nothing.
    assert index.built and "inner_columns" not in index.__dict__
    orders.append_rows({
        "oid": [90_000], "uid": [3], "city": ["tor"], "amount": [1],
    })
    clone = pickle.loads(pickle.dumps(index))
    for got in (index.inner_columns, clone.inner_columns):
        assert [column.tolist() for column in got] == \
            [column.tolist() for column in want]
        assert not any(column.flags.writeable for column in got)
    assert make_index(city_db, "orders", ["uid"]).inner_columns == []


def test_a_deferred_index_merges_once_for_inserts_before_its_read(
        city_db_1c, monkeypatch):
    """Three inserts, no read in between: each installs a deferred
    index, and the first read runs one merge over all three batches for
    an index read before them, and for one never read before them one
    build over the grown table, which merges nothing."""
    merges = []
    append = IndexData.append
    monkeypatch.setattr(
        IndexData, "append",
        lambda self, *args: merges.append(self) or append(self, *args),
    )
    on_orders = interleave.indexes_on(city_db_1c, "orders")
    read = on_orders[::2]
    built = {
        ix.name: city_db_1c._built.index_data[ix.name] for ix in read
    }
    for data in built.values():
        data.row_ids
    unread = [
        ix for ix in on_orders
        if not city_db_1c._built.index_data[ix.name].built
    ]
    assert len(unread) == len(on_orders) - len(read) > 0
    with obs.recording(obs.TraceRecorder()) as recorder:
        for oid in (90_000, 90_001, 90_002):
            city_db_1c.insert_rows("orders", {
                "oid": [oid], "uid": [oid % 7], "city": ["tor"],
                "amount": [oid % 5],
            })
        counters = recorder.metrics.snapshot()["counters"]
        assert merges == []
        assert counters["index.merges_deferred"] == 3 * len(on_orders)
        assert "index.materializations" not in counters
        for ix in unread:
            assert not city_db_1c._built.index_data[ix.name].built
        for ix in on_orders:
            city_db_1c._built.index_data[ix.name].row_ids
        counters = recorder.metrics.snapshot()["counters"]
    assert counters["index.materializations"] == len(on_orders)
    assert sorted(map(id, merges)) == sorted(map(id, built.values()))
    for ix in on_orders:
        assert_same_index(
            city_db_1c._built.index_data[ix.name],
            rebuilt_index(city_db_1c, ix),
        )


def test_an_unread_index_is_never_sorted(monkeypatch):
    """NREF under P, then 1C, and one NREF2J query: the builds sort
    nothing and charge what the eager builds charged (their virtual
    seconds and bytes, recorded before builds were deferred); the
    query builds the indexes it reads and no other — one sort each,
    of two integer columns whose dictionaries held no order — and an
    index it does not read holds no row ids, though reading it
    sorts."""
    from repro.datagen.nref import load_nref_database
    from repro.engine.systems import system_a
    from repro.workload.nref_families import generate_nref2j

    database = load_nref_database(system_a(), scale=0.05)
    sql = next(iter(generate_nref2j(database))).sql
    ordered = []
    lexsort = DictionaryCache.lexsort
    monkeypatch.setattr(
        DictionaryCache, "lexsort",
        lambda self, table, columns: ordered.append(
            (table.name, tuple(columns))
        ) or lexsort(self, table, columns),
    )

    def sorts():
        return recorder.metrics.snapshot()["counters"].get(
            "encoding.sorts", 0
        )

    configs = (
        primary_configuration(database.catalog, name="P"),
        one_column_configuration(database.catalog, name="1C"),
    )
    with obs.recording(obs.TraceRecorder()) as recorder:
        reports = [database.apply_configuration(c) for c in configs]
        assert sorts() == 0 and ordered == []
        assert recorder.metrics.snapshot()["counters"][
            "index.builds_deferred"
        ] == sum(len(c.indexes) for c in configs)
        database.execute(sql)
        read = sorts()
    assert [(r.build_seconds, r.index_bytes) for r in reports] == [
        (201.4570565078969, 3325952), (1205.9148947346057, 26345472),
    ]
    indexes = database._built.index_data.values()
    built = [data for data in indexes if data.built]
    unread = [data for data in indexes if not data.built]
    assert 0 < len(built) < len(unread)
    assert sorted(ordered) == [
        ("neighboring_seq", ("length_2",)), ("protein", ("length",)),
    ]
    assert read == len(built)
    assert sorted(ordered) == sorted(
        (data.definition.table, data.definition.columns) for data in built
    )
    assert all("row_ids" not in data.__dict__ for data in unread)
    with obs.recording(obs.TraceRecorder()) as recorder:
        for data in unread:
            data.row_ids
        assert sorts() > 0


@settings(max_examples=30, deadline=None)
@given(
    config=st.sampled_from(["P", "1C"]),
    reads=st.sampled_from([0, 1, 3]).flatmap(
        lambda inserts: st.lists(
            st.sets(st.integers(0, 15)), min_size=inserts + 1,
            max_size=inserts + 1,
        )
    ),
)
@example(config="1C", reads=[set(), set(), set(), set()])
@example(config="P", reads=[{0, 1}, set(), {0}, {1, 2, 3}])
def test_property_an_index_read_late_equals_an_eager_build(config, reads):
    """Every index of P or 1C, read after 0, 1 or 3 inserts into
    ``orders`` — some indexes read before each insert, the others not
    — equals an eager build over the final table."""
    database = load_city_database()
    database.apply_configuration(
        primary_configuration(database.catalog) if config == "P"
        else one_column_configuration(database.catalog)
    )
    indexes = list(database.configuration.indexes)
    for step, picks in enumerate(reads):
        if step:
            oid = 90_000 + step
            database.insert_rows("orders", {
                "oid": [oid], "uid": [oid % 7], "city": ["tor"],
                "amount": [oid % 5],
            })
        for pick in sorted(picks):
            database._built.index_data[
                indexes[pick % len(indexes)].name
            ].row_ids
    for ix in indexes:
        assert_same_index(
            database._built.index_data[ix.name], rebuilt_index(database, ix)
        )


def test_a_superseded_deferred_index_raises_with_its_name(city_db_1c):
    """A deferred index a later insert replaced cannot merge its own
    rows apart from the newer ones: it raises, naming itself, and
    never answers with the newer rows.  One merged before the second
    insert stays exact for its own rows."""
    orders = city_db_1c.table("orders")
    on_orders = interleave.indexes_on(city_db_1c, "orders")
    read, unread = on_orders[0], on_orders[1]
    city_db_1c.insert_rows("orders", {
        "oid": [90_000], "uid": [3], "city": ["tor"], "amount": [1],
    })
    merged = city_db_1c._built.index_data[read.name]
    merged.row_ids
    superseded = city_db_1c._built.index_data[unread.name]
    prefix = Table(orders.schema, {
        c: orders.decode(c).copy() for c in orders.column_names()
    })
    city_db_1c.insert_rows("orders", {
        "oid": [90_001], "uid": [499], "city": ["yyz"], "amount": [2],
    })
    for name in ("row_ids", "cluster_factor", "values"):
        with pytest.raises(RuntimeError, match=unread.name):
            getattr(superseded, name)
    with pytest.raises(RuntimeError, match=unread.name):
        pickle.dumps(superseded)
    assert_same_index(merged, IndexData(
        read, prefix, DictionaryCache(), city_db_1c.system.index_overhead
    ))
    for ix in on_orders:
        assert_same_index(
            city_db_1c._built.index_data[ix.name],
            rebuilt_index(city_db_1c, ix),
        )


def test_two_threads_measure_an_insert_as_one_does(monkeypatch):
    """An NREF2J burst measured on two threads right after an insert
    returns the elapsed times and rows of a serial run, and merges or
    builds each deferred index at most once however the threads race
    for it."""
    from repro.runtime.session import MeasurementSession
    from repro.workload.updates import nref_neighboring_batch
    from repro.workload.workload import Workload, make_instance

    nref = interleave.TARGETS["nref"]
    burst = Workload("NREF2J", [
        make_instance(sql, "NREF2J", i=i)
        for i, sql in enumerate(nref.sqls * 4)
    ])
    merged, built = [], []
    append, build = IndexData.append, IndexData._build
    monkeypatch.setattr(
        IndexData, "append",
        lambda self, *args: merged.append(self.definition.name)
        or append(self, *args),
    )
    monkeypatch.setattr(
        IndexData, "_build",
        lambda self, *args: built.append(self.definition.name)
        or build(self, *args),
    )
    runs = {}
    for jobs in (1, 2):
        database = nref.load()
        database.insert_rows(
            nref.table, nref_neighboring_batch(database, 50, seed=jobs)
        )
        del merged[:], built[:]
        with obs.recording(obs.TraceRecorder()) as recorder:
            with MeasurementSession(database, jobs=jobs) as session:
                measured = session.measure(burst)
        counters = recorder.metrics.snapshot()["counters"]
        assert len(merged + built) == len(set(merged + built))
        assert counters.get("index.materializations", 0) == \
            len(merged) + len(built)
        runs[jobs] = (
            measured.elapsed.tolist(),
            [database.execute(q.sql).batch.rows for q in burst],
        )
    assert runs[1] == runs[2]


# ----------------------------------------------------------------------
# Pickling (the artifact store's --cache-dir path)

PICKLED_SQLS = (
    "SELECT u.city, COUNT(*) FROM users u, orders o "
    "WHERE u.uid = o.uid AND u.age = 30 GROUP BY u.city",
    "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid IN "
    "(SELECT uid FROM orders GROUP BY uid HAVING COUNT(*) < 4) "
    "GROUP BY o.city",
    "SELECT COUNT(*) FROM orders o WHERE o.city = 'tor'",
)


@pytest.mark.parametrize("fixture", ["city_db_p", "city_db_1c"])
def test_pickled_database_keeps_its_indexes_and_no_dictionary(
        request, fixture):
    """A built index holds its leading dictionary's *values array* and
    its own offsets, never the dictionary: its pickle carries no base,
    codes or order along (one that owes its build pickles its table,
    where a string column's dictionary is its storage), the
    database's drops the dictionary cache, and the unpickled indexes
    answer as the live ones do, their arrays as read-only as the live
    ones'."""
    db = request.getfixturevalue(fixture)
    for sql in PICKLED_SQLS:  # fills the dictionary cache
        db.execute(sql)
    built = [data for data in db._built.index_data.values() if data.built]
    assert built and b"ColumnDictionary" not in pickle.dumps(built)
    payload = pickle.dumps(db, pickle.HIGHEST_PROTOCOL)
    clone = pickle.loads(payload)
    for sql in PICKLED_SQLS:
        got, want = clone.execute(sql), db.execute(sql)
        assert sorted(got.rows()) == sorted(want.rows())
        assert got.elapsed == want.elapsed
    # Protocol 5 restores a read-only array read-only; protocol 4
    # restores it writeable, unless the index sets it read-only again.
    older = pickle.loads(pickle.dumps(db, 4))
    for name, live in db._built.index_data.items():
        index = clone._built.index_data[name]
        assert_same_index(index, live)
        again = older._built.index_data[name]
        for array in (index.row_ids, index.offsets, *index.inner_columns,
                      again.row_ids, again.offsets, *again.inner_columns):
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0
        column = db.table(live.definition.table).decode(
            live.definition.columns[0]
        )
        probes = np.concatenate([column[:5], column[-3:]])
        for probe in probes.tolist():
            assert index.lookup_eq((probe,)).tolist() == live.lookup_eq(
                (probe,)
            ).tolist()
        got_ids, got_idx = index.fetch(*index.ranges(probes))
        want_ids, want_idx = live.fetch(*live.ranges(probes))
        assert got_ids.tolist() == want_ids.tolist()
        assert got_idx.tolist() == want_idx.tolist()


def index_pickle_bytes(db, repeats=1):
    """``(now, before)``: pickled bytes of the arrays of every index
    whose leading key holds each value ``repeats`` times on average,
    and of what those indexes held before they read their leading key
    off the dictionary — sorted copies of every key column.  One
    pickle each, as in a database's: an array two indexes share is
    written once."""
    now, before = [], []
    for index in db._built.index_data.values():
        if index.entry_count < repeats * len(index.values):
            continue
        table = db.table(index.definition.table)
        now.append([index.row_ids, index.values, index.offsets,
                    *index.inner_columns])
        before.append([index.row_ids,
                       *(table.decode(c, index.row_ids)
                         for c in index.definition.columns)])
    return len(pickle.dumps(now)), len(pickle.dumps(before))


def test_index_pickles_shrink_unless_the_leading_key_is_unique(
        city_db, tiny_nref):
    # NREF under P: five of six primary keys lead with a repeating id.
    now, before = index_pickle_bytes(tiny_nref)
    assert now < before
    # Under 1C, the indexes whose leading key repeats: an int16 key's
    # sorted copy held 2 bytes an entry, where the run layout holds 2
    # + 8 a distinct value, so a key shrinks once it repeats each
    # value five times (users.city, users.age, orders.city,
    # orders.amount; not orders.uid, 2 500 entries over 498 values).
    city_db.apply_configuration(one_column_configuration(city_db.catalog))
    now, before = index_pickle_bytes(city_db, repeats=5)
    assert now < before
    # Two single-column unique keys are the worst case: d = n values
    # and n + 1 offsets where there were n keys.
    city_db.apply_configuration(primary_configuration(city_db.catalog))
    now, before = index_pickle_bytes(city_db)
    rows = sum(t.row_count for t in city_db.tables.values())
    assert before < now <= before + 8 * (rows + len(city_db.tables)) + 512


def test_index_pickled_in_the_sorted_copy_layout_is_a_store_miss(
        city_db_p, tmp_path):
    """An artifact store written by an earlier version holds indexes
    with ``key_columns``; loading one must miss, not half-work."""
    from repro.runtime.artifacts import ArtifactCache

    index = next(iter(city_db_p._built.index_data.values()))
    index.row_ids  # a built index's state is the one forged
    stale = dict(index.__getstate__())
    del stale["values"], stale["offsets"], stale["inner_columns"]
    stale["key_columns"] = [np.arange(index.entry_count)]
    forged = IndexData.__new__(IndexData)
    forged.__dict__.update(stale)
    with pytest.raises(pickle.UnpicklingError):
        pickle.loads(pickle.dumps(forged))
    ArtifactCache(tmp_path).put("index", "k", forged)
    assert ArtifactCache(tmp_path).get("index", "k", "missed") == "missed"
    ArtifactCache(tmp_path).put("index", "k", index)
    assert_same_index(ArtifactCache(tmp_path).get("index", "k"), index)


def test_index_pickled_with_int64_row_ids_is_a_store_miss(
        city_db_p, tmp_path):
    """An artifact store written before row ids were narrowed holds
    int64 ones; loading such an index must miss and rebuild."""
    from repro.runtime.artifacts import ArtifactCache

    index = next(iter(city_db_p._built.index_data.values()))
    assert index.row_ids.dtype == np.int32
    forged = IndexData.__new__(IndexData)
    forged.__dict__.update(
        index.__dict__, row_ids=index.row_ids.astype(np.int64)
    )
    with pytest.raises(pickle.UnpicklingError, match="int64 row ids"):
        pickle.loads(pickle.dumps(forged))
    ArtifactCache(tmp_path).put("index", "k", forged)
    assert ArtifactCache(tmp_path).get("index", "k", "missed") == "missed"


def test_index_pickled_with_int32_inner_codes_loads_them_narrow(city_db):
    """An index pickled while codes were int32 loads its coded inner
    columns in the narrowest dtype their dictionary needs, read-only."""
    index = make_index(city_db, "orders", ["uid", "city"])
    (inner,) = index.inner_columns
    assert inner.dtype == np.int16
    forged = IndexData.__new__(IndexData)
    forged.__dict__.update(
        index.__dict__, inner_columns=[inner.astype(np.int32)]
    )
    (loaded,) = pickle.loads(pickle.dumps(forged)).inner_columns
    assert loaded.dtype == np.int16 and not loaded.flags.writeable
    assert loaded.tolist() == inner.tolist()


def test_index_pickled_without_page_transitions_is_a_store_miss(
        city_db_p, tmp_path):
    """An artifact store written before appends carried the cluster
    factor holds indexes without a page-transition count, which a
    later append would need; loading one must miss and rebuild."""
    from repro.runtime.artifacts import ArtifactCache

    index = next(iter(city_db_p._built.index_data.values()))
    index.row_ids  # a built index's state is the one forged
    stale = dict(index.__getstate__())
    del stale["page_transitions"]
    forged = IndexData.__new__(IndexData)
    forged.__dict__.update(stale)
    with pytest.raises(pickle.UnpicklingError, match="page-transition"):
        pickle.loads(pickle.dumps(forged))
    ArtifactCache(tmp_path).put("index", "k", forged)
    assert ArtifactCache(tmp_path).get("index", "k", "missed") == "missed"


# ----------------------------------------------------------------------
# Keys stored narrow: a parent key in int16 beside a child key in int32

# Parent keys fit int16; child keys reach past it, to the int32 limits;
# inserted keys reach past those, so either side may widen twice.
PARENT_KEYS = [-32768, -32767, -1, 0, 1, 32767]
CHILD_KEYS = PARENT_KEYS + [32768, 2 ** 31 - 1, -(2 ** 31)]
INSERTED_KEYS = CHILD_KEYS + [-32769, -(2 ** 31) - 1, 2 ** 31]
EDGE_TABLES = (
    TableSchema("parents", [
        ColumnDef("pid", integer(), "id"),
        ColumnDef("grp", integer(), "grp"),
    ], primary_key=("pid",)),
    TableSchema("children", [
        ColumnDef("cid", integer(), "cid"),
        ColumnDef("pid", integer(), "id"),
        ColumnDef("val", integer(), "val"),
        ColumnDef("pad", varchar(200), "", indexable=False),
    ], primary_key=("cid",)),
)
# An index nested-loop join, a semijoin through the child key's index
# and index scans, each across the two widths.
EDGE_SQLS = {
    "join": "SELECT c.val FROM parents p, children c "
            "WHERE p.pid = c.pid AND p.grp = 1",
    "semijoin": "SELECT c.val FROM children c WHERE c.pid IN "
                "(SELECT pid FROM parents GROUP BY pid HAVING COUNT(*) > 1)",
    "child": "SELECT c.val FROM children c WHERE c.pid = {key}",
    "parent": "SELECT p.grp FROM parents p WHERE p.pid = {key}",
}


def edge_rows(table, size, rng, keys, first_cid=0):
    """``size`` int64 rows for ``table`` with keys drawn from ``keys``."""
    pids = rng.choice(np.array(keys, dtype=np.int64), size)
    if table == "parents":
        return {"pid": pids, "grp": rng.integers(0, 50, size)}
    return {
        "cid": np.arange(first_cid, first_cid + size, dtype=np.int64),
        "pid": pids,
        "val": rng.integers(0, 50, size),
        "pad": np.full(size, "x", dtype=object),
    }


def edge_database(seed):
    """Parents keyed ``PARENT_KEYS`` and 2..299 (five keys twice),
    3 000 children keyed ``CHILD_KEYS`` and 2..2999, under 1C; and the
    int64 reference of every column, kept apart from the tables."""
    from repro import Catalog, Database
    from repro.engine.systems import system_a

    rng = np.random.default_rng(seed)
    parent_keys = PARENT_KEYS + list(range(2, 300))
    reference = {
        "parents": {
            "pid": np.array(parent_keys + parent_keys[:5], dtype=np.int64),
            "grp": rng.integers(0, 50, len(parent_keys) + 5),
        },
        "children": edge_rows(
            "children", 3000, rng, CHILD_KEYS + list(range(2, 3000))
        ),
    }
    database = Database(Catalog(list(EDGE_TABLES)), system_a(), name="edges")
    for name, columns in reference.items():
        database.load_table(name, dict(columns))
    database.collect_statistics()
    database.apply_configuration(one_column_configuration(database.catalog))
    return database, reference


def assert_edges_equal_the_reference(database, reference):
    """Stored columns, indexes, probes and views against int64."""
    from repro.views.matview import (
        COUNT_COLUMN,
        MatViewDefinition,
        ViewColumn,
        build_view,
    )

    for name, columns in reference.items():
        table = database.table(name)
        fresh = Table(table.schema, columns)
        for column, want in columns.items():
            have = table.decode(column)
            assert have.tolist() == want.tolist(), (name, column)
            if want.dtype == np.int64:
                assert have.dtype == narrowest_dtype(want), (name, column)
        for ix in database.configuration.indexes:
            if ix.table != name:
                continue
            index = database._built.index_data[ix.name]
            want = IndexData(ix, fresh, DictionaryCache(),
                             database.system.index_overhead)
            assert index.row_ids.tolist() == want.row_ids.tolist()
            assert index.values.dtype == table.decode(ix.columns[0]).dtype
            assert index.values.tolist() == want.values.tolist()
            assert index.offsets.tolist() == want.offsets.tolist()
            key = reference[name][ix.columns[0]]
            for literal in INSERTED_KEYS + [40_000]:
                assert sorted(index.lookup_eq((literal,)).tolist()) == (
                    np.flatnonzero(key == literal).tolist()
                ), (ix.name, literal)
    lite = oracle.load(
        reference, [("parents", ("pid",)), ("children", ("pid",))]
    )
    sqls = [EDGE_SQLS["join"], EDGE_SQLS["semijoin"]] + [
        EDGE_SQLS[query].format(key=key)
        for key in INSERTED_KEYS for query in ("child", "parent")
    ]
    for sql in sqls:
        assert oracle.rows(database.execute(sql).rows()) == oracle.rows(
            lite.execute(sql)
        ), sql
    single = MatViewDefinition(
        tables=("children",), group_columns=(ViewColumn("children", "pid"),)
    )
    joined = MatViewDefinition(
        tables=("parents", "children"),
        join_pred=(("parents", "pid"), ("children", "pid")),
        group_columns=(ViewColumn("children", "pid"),),
    )
    for view_def, sql in (
        (single, "SELECT pid, COUNT(*) FROM children GROUP BY pid"),
        (joined, "SELECT c.pid, COUNT(*) FROM parents p, children c "
                 "WHERE p.pid = c.pid GROUP BY c.pid"),
    ):
        view, _ = build_view(view_def, database.tables, database.catalog,
                             database._cache("dict_cache"))
        values, counts = zip(*oracle.rows(lite.execute(sql)))
        have = view.column("children__pid")
        assert have.dtype == narrowest_dtype(values)
        assert have.tolist() == list(values)
        assert view.column(COUNT_COLUMN).tolist() == list(counts)


def test_probes_cross_an_int16_and_an_int32_key():
    """The edge database stores the parent key in int16 and the child
    key in int32, and plans its queries as an index nested-loop join,
    a semijoin through an index and index scans across the two."""
    from repro.optimizer.plans import walk

    database, reference = edge_database(0)
    assert database.table("parents").column("pid").dtype == np.int16
    assert database.table("children").column("pid").dtype == np.int32
    kinds = {
        query: {type(node).__name__
                for node in walk(database.plan(sql.format(key=40_000)))}
        for query, sql in EDGE_SQLS.items()
    }
    assert "IndexNLJoin" in kinds["join"]
    assert "SemiIndexScan" in kinds["semijoin"]
    assert "IndexScan" in kinds["child"]
    assert_edges_equal_the_reference(database, reference)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("insert"), st.sampled_from(("parents", "children")),
                st.integers(1, 6), st.integers(0, 2 ** 16),
            ),
            st.tuples(st.just("read")),
            st.tuples(st.just("pickle")),
        ),
        max_size=6,
    ),
)
@example(
    seed=1,
    steps=[("insert", "parents", 3, 5), ("insert", "children", 4, 6),
           ("read",), ("pickle",), ("insert", "parents", 6, 7), ("read",)],
)
def test_property_inserts_widen_keys_and_probes_stay_exact(seed, steps):
    """Inserts into either table, with keys that fit or widen the key
    once or twice, interleaved with reads and pickle round trips: every
    stored column, index, literal lookup (at keys no column's dtype
    holds too), join, semijoin and view equals its int64 reference."""
    database, reference = edge_database(seed)
    for step in steps:
        if step[0] == "insert":
            _, name, size, pick = step
            rows = edge_rows(
                name, size, np.random.default_rng(pick), INSERTED_KEYS,
                first_cid=10_000 + database.table(name).row_count,
            )
            database.insert_rows(name, rows)
            for column, values in rows.items():
                reference[name][column] = np.concatenate(
                    [reference[name][column], values]
                )
        elif step[0] == "pickle":
            database = pickle.loads(pickle.dumps(database))
        else:
            assert_edges_equal_the_reference(database, reference)
    assert_edges_equal_the_reference(database, reference)


def test_a_pickle_round_trip_sorts_no_index():
    """NREF under a fresh 1C pickles with every index owing its build,
    and loads so: 0 of 40 sorted on both sides.  Read after the load,
    each index equals a build over the live table."""
    from repro.datagen.nref import load_nref_database
    from repro.engine.systems import system_a

    database = load_nref_database(system_a(), scale=0.05)
    database.apply_configuration(
        one_column_configuration(database.catalog, name="1C")
    )
    unread = {"sorted": 0, "indexes": 40}
    assert database.indexes_sorted() == unread
    clone = pickle.loads(pickle.dumps(database, pickle.HIGHEST_PROTOCOL))
    assert database.indexes_sorted() == unread
    assert clone.indexes_sorted() == unread
    for data in clone._built.index_data.values():
        assert_same_index(data, rebuilt_index(database, data.definition))
    assert database.indexes_sorted() == unread


def test_an_index_read_after_inserts_sorts_each_key_column_once(
        city_db_1c, monkeypatch):
    """An integer column's dictionary holds its codes, and an extension
    carries them: the first read of its one-column index after inserts
    sorts each key column once — one ``stable_order`` of the codes,
    with no ``np.argsort`` of the column beside it."""
    argsorts = []
    original = np.argsort
    monkeypatch.setattr(
        np, "argsort",
        lambda *args, **kwargs: argsorts.append(kwargs) or original(
            *args, **kwargs
        ),
    )
    read = [
        ix for ix in city_db_1c.configuration.indexes
        if ix.table == "orders" and ix.columns[0] != "city"
    ]
    with obs.recording(obs.TraceRecorder()) as recorder:
        for row in range(3):
            city_db_1c.insert_rows("orders", {
                "oid": [90_000 + row], "uid": [7 + row], "city": ["tor"],
                "amount": [row],
            })
        for ix in read:
            city_db_1c._built.index_data[ix.name].row_ids
    counters = recorder.metrics.snapshot()["counters"]
    # The primary key and 1C's index on oid share one order.
    keys = {ix.columns for ix in read}
    assert len(keys) == 3 and counters["encoding.sorts"] == len(keys)
    assert argsorts == []
    for ix in read:
        assert_same_index(
            city_db_1c._built.index_data[ix.name],
            rebuilt_index(city_db_1c, ix),
        )
