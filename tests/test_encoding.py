"""Dictionary-encoded columns: identity caching, equivalence, invalidation."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interleave
from conftest import code_dtype_of
from repro import obs
from repro.index.data import IndexData
from repro.index.definition import IndexDefinition
from repro.storage.encoding import (
    _GRID,
    ColumnDictionary,
    DictionaryCache,
    locate,
    stable_order,
)
from repro.workload.constants import (
    frequency_ladder,
    selectivity_ladder,
)


# ----------------------------------------------------------------------
# ColumnDictionary: byte-equivalence with the np.unique derivations

def test_dictionary_matches_np_unique():
    base = np.array([3, 1, 3, 2, 1, 3, 7], dtype=np.int64)
    d = ColumnDictionary(base)
    values, counts = np.unique(base, return_counts=True)
    assert d.values.tolist() == values.tolist()
    assert d.counts.tolist() == counts.tolist()
    assert d.n_distinct == len(values)
    assert d.row_count == len(base)
    _, inverse = np.unique(base, return_inverse=True)
    assert d.codes.tolist() == inverse.tolist()
    assert d.codes.dtype == code_dtype_of(d.n_distinct) == np.int16
    assert d.argsort().tolist() == np.lexsort((base,)).tolist()
    assert d.argsort().dtype == np.int32


def test_dictionary_codes_of_base_and_subset():
    base = np.array(["b", "a", "c", "a", "b"], dtype=object)
    d = ColumnDictionary(base)
    assert d.codes is d.codes  # one array, not a copy per read
    assert d.values[d.codes].tolist() == base.tolist()
    # A subset's codes are the base's codes at the same rows; find()
    # agrees for values drawn from the column and flags the rest.
    rows = np.array([0, 3])
    assert d.values[d.codes[rows]].tolist() == ["b", "a"]
    slots, found = d.find(np.array(["b", "a", "bb"], dtype=object))
    assert slots[:2].tolist() == d.codes[rows].tolist()
    assert found.tolist() == [True, True, False]


def test_dictionary_frequency_views():
    base = np.array([5, 5, 5, 2, 2, 9], dtype=np.int64)
    d = ColumnDictionary(base)
    dv, dc = d.by_frequency()
    counts = np.array([1, 2, 3])
    assert dv.tolist() == [9, 2, 5]
    assert dc.tolist() == counts.tolist()
    # The hoisted float64 cast is computed once and reused.
    f64 = d.by_frequency_counts_f64()
    assert f64 is d.by_frequency_counts_f64()
    assert f64.tolist() == counts.astype(np.float64).tolist()
    fv, ff = d.frequency_histogram()
    ev, ef = np.unique(counts, return_counts=True)
    assert fv.tolist() == ev.tolist() and ff.tolist() == ef.tolist()


# ----------------------------------------------------------------------
# Construction: one packed sort (int64), one hash pass (object) or
# np.unique (everything else) — always what NumPy would answer

def assert_dictionary_is_numpys(base, d=None):
    """``d`` (default ``ColumnDictionary(base)``) against ``np.unique``
    and the stable ``np.argsort`` of the same array.  An object column
    is coded: its base is its codes, and its values are not kept."""
    values, inverse, counts = np.unique(
        base, return_inverse=True, return_counts=True
    )
    d = ColumnDictionary(base) if d is None else d
    assert d.coded == (base.dtype == object)
    assert d.base is (d.codes if d.coded else base)
    for got, want in ((d.values, values), (d.counts, counts)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
    if base.dtype == object:
        assert d.values.tolist() == values.tolist()
    else:
        assert np.array_equal(
            d.values, values, equal_nan=base.dtype.kind == "f"
        )
    assert d.counts.tolist() == counts.tolist()
    assert d.codes.dtype == code_dtype_of(len(values))
    assert d.codes.tolist() == inverse.tolist()
    order = d.argsort()
    assert order.dtype == np.int32 and not order.flags.writeable
    assert order.tolist() == np.argsort(base, kind="stable").tolist()
    return d


def count_calls(monkeypatch, name):
    """Record every call of ``np.<name>``; returns the list of kwargs."""
    calls = []
    original = getattr(np, name)
    monkeypatch.setattr(
        np, name,
        lambda *args, **kwargs: calls.append(kwargs) or original(
            *args, **kwargs
        ),
    )
    return calls


# Row counts around the powers of two where the position field widens,
# and around the grid the positions are laid out on.
ROW_COUNTS = st.sampled_from(
    [0, 1, 2, 3, 4, 5, 63, 64, 65, _GRID - 1, _GRID, _GRID + 1,
     2 * _GRID, 2 * _GRID + 7]
)


@settings(max_examples=150, deadline=None)
@given(
    rows=ROW_COUNTS,
    span_bits=st.integers(0, 62),
    off_by=st.sampled_from([-1, 0, 1]),
    low=st.sampled_from([-(1 << 62), -(1 << 40) - 3, -1, 0, 1, 1 << 33]),
    all_equal=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_property_int64_dictionary_equals_unique_and_stable_argsort(
        rows, span_bits, off_by, low, all_equal, seed):
    """Spans at and around every power of two up to 2**62 — so both
    sides of the 62-bit packing limit, whatever ``rows`` is — from
    negative, zero and positive minima, in long runs of ties."""
    span = max(0, (1 << span_bits) + off_by)
    rng = np.random.default_rng(seed)
    if all_equal:
        base = np.full(rows, low + span, dtype=np.int64)
    else:
        pool = low + rng.integers(0, span + 1, size=5)
        pool[0], pool[1] = low, low + span
        base = pool[rng.integers(0, len(pool), size=rows)]
        if rows:
            base[-1] = low + span  # widest key at the widest position
    assert_dictionary_is_numpys(base)


def test_int64_dictionary_packs_up_to_62_bits_and_falls_back_beyond(
        monkeypatch):
    unique_calls = count_calls(monkeypatch, "unique")
    # 5 rows need 3 position bits: a 59-bit span still packs ...
    top = (1 << 59) - 1
    base = np.array([top, 0, top, 7, 0], dtype=np.int64) - 12
    with obs.recording() as recorder:
        d = ColumnDictionary(base)
        assert d.values.tolist() == [-12, -5, top - 12]
        assert d.counts.tolist() == [2, 1, 2]
        assert d.codes.tolist() == [2, 0, 2, 1, 0]
    # ... in one sort that is neither np.unique nor a stable_order, and
    # that leaves codes but no order ...
    assert unique_calls == [] and d._argsort is None
    assert "encoding.sorts" not in recorder.metrics.snapshot()["counters"]
    # ... which one stable_order of the codes takes when asked for.
    with obs.recording() as recorder:
        assert d.argsort().tolist() == [1, 4, 3, 0, 2]
    assert recorder.metrics.snapshot()["counters"]["encoding.sorts"] == 1
    # One bit more takes np.unique, lazy codes and a stable_order of
    # them, with the same answers.
    base = np.array([2 * top + 1, 0, 2 * top + 1, 7, 0], dtype=np.int64)
    with obs.recording() as recorder:
        d = ColumnDictionary(base)
        assert len(unique_calls) == 1 and d._codes is None
        assert d.codes.tolist() == [2, 0, 2, 1, 0]
        assert d.argsort().tolist() == [1, 4, 3, 0, 2]
    assert recorder.metrics.snapshot()["counters"]["encoding.sorts"] == 1
    # An empty column is counted, and holds its (no) codes.
    for dtype in (np.int16, np.int64):
        empty = assert_dictionary_is_numpys(np.array([], dtype=dtype))
        assert empty.codes.dtype == np.int16
    assert len(unique_calls) == 3 and empty._codes is not None


def test_packed_dictionary_scatters_codes_on_first_read():
    """The packed sort scatters the codes at construction and keeps no
    order; the first ``argsort()`` read sorts the codes, once, and a
    racing first read is harmless."""
    base = np.array([3, 1, 3, 2, 1, 3, 7], dtype=np.int64) * 10
    _, inverse = np.unique(base, return_inverse=True)
    d = ColumnDictionary(base)
    assert d._codes is not None and d._argsort is None
    assert d.codes.dtype == code_dtype_of(d.n_distinct)
    assert d.codes.tolist() == inverse.tolist()
    # An extension carries the codes and takes no order either ...
    grown = d.extended(np.concatenate([base, [0, 70]]))
    assert grown._codes is not None and grown._argsort is None
    assert d._argsort is None
    # ... and the first order read is one stable_order of the codes.
    with obs.recording() as recorder:
        order = d.argsort()
    assert recorder.metrics.snapshot()["counters"]["encoding.sorts"] == 1
    assert order.tolist() == np.argsort(base, kind="stable").tolist()
    assert d.argsort() is order

    # A racing first read computes the same array twice; whichever
    # write lands last, every reader holds the right order.
    fresh = ColumnDictionary(np.tile(base, 5_000))
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait(timeout=30)
        seen.append(fresh.argsort())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8
    expected = np.argsort(np.tile(base, 5_000), kind="stable")
    assert all(np.array_equal(order, expected) for order in seen)
    assert any(fresh.argsort() is order for order in seen)


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(0, 7), min_size=0, max_size=60),
)
def test_property_float_dictionary_is_np_unique_with_merged_nans(picks):
    domain = np.array(
        [-np.inf, -1e9, -0.5, 0.0, 0.25, 1e9, np.inf, np.nan]
    )
    assert_dictionary_is_numpys(domain[np.array(picks, dtype=np.int64)])


# ----------------------------------------------------------------------
# stable_order: one packed integer sort equals the stable argsort

@settings(max_examples=120, deadline=None)
@given(
    rows=ROW_COUNTS,
    span_bits=st.integers(0, 40),
    off_by=st.sampled_from([-1, 0, 1]),
    all_equal=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_property_stable_order_equals_stable_argsort(
        rows, span_bits, off_by, all_equal, seed):
    span = max(1, (1 << span_bits) + off_by)
    rng = np.random.default_rng(seed)
    if all_equal:
        codes = np.full(rows, span - 1, dtype=np.int64)
    else:
        # Few distinct codes (long runs of ties) from the whole range.
        pool = rng.integers(0, span, size=5)
        pool[0] = span - 1
        codes = pool[rng.integers(0, len(pool), size=rows)]
        if rows:
            codes[-1] = span - 1  # widest code at the widest position
    order = stable_order(codes, span)
    assert order.dtype == np.int32
    assert order.tolist() == np.argsort(codes, kind="stable").tolist()


@settings(max_examples=80, deadline=None)
@given(
    picks=st.lists(st.integers(0, 4), min_size=64, max_size=90),
    span_bits=st.integers(26, 31),
)
def test_property_stable_order_shifts_int32_codes_in_int64(picks, span_bits):
    """``bits(span) + bits(n) > 31``: shifted in their own dtype, int32
    codes would wrap; the packing is int64 whatever comes in."""
    span = 1 << span_bits
    pool = np.array([0, 1, span // 2, span - 2, span - 1])
    codes = pool[np.array(picks + [4])].astype(np.int32)
    assert (span - 1).bit_length() + (len(codes) - 1).bit_length() > 31
    order = stable_order(codes, span)
    assert order.dtype == np.int32 and codes.dtype == np.int32
    assert order.tolist() == stable_order(
        codes.astype(np.int64), span
    ).tolist()
    assert order.tolist() == np.argsort(codes, kind="stable").tolist()


def test_stable_order_packs_up_to_62_bits_and_falls_back_beyond(
        monkeypatch):
    calls = count_calls(monkeypatch, "argsort")
    # 5 rows need 3 position bits: a 59-bit span still packs ...
    top = (1 << 59) - 1
    codes = np.array([top, 0, top, 7, 0], dtype=np.int64)
    assert stable_order(codes, 1 << 59).tolist() == [1, 4, 3, 0, 2]
    assert calls == []
    # ... and one bit more (a forged span: the codes are unchanged)
    # takes the fallback, with the same answer.
    with obs.recording() as recorder:
        assert stable_order(codes, 1 << 60).tolist() == [1, 4, 3, 0, 2]
    assert calls == [{"kind": "stable"}]
    counters = recorder.metrics.snapshot()["counters"]
    assert counters["encoding.sorts"] == 1


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(
        st.sampled_from(["", "a", "ab", "b", "ba", "m", "zz", "zzzz"]),
        min_size=0, max_size=80,
    )
)
def test_property_object_codes_are_the_unique_inverse(words):
    """Strings — the empty one, prefixes of one another — hash into
    the dictionary np.unique sorts them into."""
    base = np.array(words, dtype=object)
    d = assert_dictionary_is_numpys(base)
    assert d.values[d.codes].tolist() == words


@pytest.mark.parametrize("words, own", [
    ([], True),
    (["a"], True),
    (["a", "b"], True),
    (["", "a", "ab", "abc", "b", "ba"], True),
    (["NF00000000", "NF00000001", "NF00000002"], True),
    (["a", "b", "b"], False),
    (["a", "c", "b"], False),
    (["b", "a"], False),
    (["", ""], False),
])
def test_strictly_increasing_object_column_is_its_own_dictionary(
    words, own
):
    """A column whose neighbours strictly increase is its own
    dictionary; a repeat or a descent anywhere — the last pair
    included — falls through to the hash pass.  Both give np.unique's
    dictionary."""
    base = np.array(words, dtype=object)
    d = assert_dictionary_is_numpys(base)
    assert (d.values is base) == own


@settings(max_examples=60, deadline=None)
@given(
    words=st.sets(st.text(alphabet="ab", max_size=6), max_size=60),
    drawn=st.lists(st.integers(0, 10**6), min_size=1, max_size=80),
)
def test_property_increasing_pool_with_undrawn_entries_is_numpys(
    words, drawn
):
    """A strictly increasing pool — the empty string and prefixes
    included — is its own dictionary, and ``from_pool`` drops the
    entries no row draws: np.unique's dictionary of the rows."""
    pool = np.array(sorted(words), dtype=object)
    assert ColumnDictionary(pool).values is pool
    rows = np.array(
        [p % len(pool) for p in drawn] if len(pool) else [], dtype=np.int32
    )
    assert_dictionary_is_numpys(
        pool[rows], ColumnDictionary.from_pool(pool, rows)
    )


def assert_same_dictionary(got, want):
    """Every product and every dtype of two dictionaries agree."""
    for name in ("values", "counts", "codes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name
    assert got.argsort().dtype == want.argsort().dtype
    assert got.argsort().tolist() == want.argsort().tolist()
    for a, b in zip(got.by_frequency(), want.by_frequency()):
        assert a.dtype == b.dtype
        assert a.tolist() == b.tolist()


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(
        st.sampled_from(["", "a", "ab", "b", "ba", "m", "zz", "zzzz"]),
        min_size=0, max_size=12,
    ),
    picks=st.lists(st.integers(0, 10**6), min_size=0, max_size=120),
)
def test_property_pool_dictionary_equals_hashing_the_rows(pool, picks):
    """Pools that repeat a string, hold entries no row draws, hold one
    entry, or draw no rows at all encode like hashing ``pool[rows]``."""
    pool = np.array(pool, dtype=object)
    rows = np.array(
        [p % len(pool) for p in picks] if len(pool) else [], dtype=np.int32
    )
    got = ColumnDictionary.from_pool(pool, rows)
    assert got.coded
    assert_same_dictionary(got, ColumnDictionary(pool[rows]))


def test_pool_dictionary_of_generated_names():
    """``name_pool`` repeats names; the pool dictionary merges them."""
    from repro.datagen.text import name_pool

    pool = name_pool(np.random.default_rng(3), 800, "protein")
    assert len(set(pool.tolist())) < len(pool)
    rows = np.random.default_rng(4).integers(0, 700, 5000).astype(np.int32)
    assert_same_dictionary(
        ColumnDictionary.from_pool(pool, rows), ColumnDictionary(pool[rows])
    )


def test_pooled_column_is_its_dictionary_with_one_miss():
    """A column loaded as its pool dictionary is stored as it: the
    cache's first lookup takes the table's dictionary — its one miss,
    building nothing — and an append through the cache grows it in the
    table and hands the entry the grown one, a hit; an append behind
    the cache's back makes the next lookup a miss that builds nothing
    either."""
    from repro.catalog.schema import ColumnDef, TableSchema
    from repro.storage.table import Table
    from repro.storage.types import integer, varchar

    schema = TableSchema(
        "t", [ColumnDef("s", varchar(4), ""), ColumnDef("i", integer(), "")]
    )
    pool = np.array(["x", "y", "x"], dtype=object)
    rows = np.array([2, 1, 0, 1], dtype=np.int32)
    coded = ColumnDictionary.from_pool(pool, rows)
    table = Table(schema, {"s": coded, "i": np.arange(4)})
    assert table.dictionary("s") is coded and table.column("s") is coded.codes
    cache = DictionaryCache()
    with obs.recording() as recorder:
        first = cache.dictionary(table, "s")
        assert cache.dictionary(table, "s") is first is coded
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        assert first.values.tolist() == ["x", "y"]
        assert first.codes.tolist() == [0, 1, 0, 1]
        assert table.decode("s").tolist() == ["x", "y", "x", "y"]

        cache.append_rows(table, {"s": ["z"], "i": [9]})
        cache.invalidate()
        grown = cache.dictionary(table, "s")
        assert grown is table.dictionary("s") and grown is not coded
        assert grown.values.tolist() == ["x", "y", "z"]
        assert (cache.stats.misses, cache.stats.hits) == (1, 2)

        table.append_rows({"s": ["x"], "i": [10]})
        assert cache.dictionary(table, "s") is table.dictionary("s")
        assert (cache.stats.misses, cache.stats.hits) == (2, 2)
    assert "encoding.dict_builds" not in \
        recorder.metrics.snapshot()["counters"]


def test_object_dictionary_sorts_only_the_distinct_values(monkeypatch):
    unique_calls = count_calls(monkeypatch, "unique")
    base = np.array(["b", "a", "", "a", "b", "ab"] * 50, dtype=object)
    with obs.recording() as recorder:
        d = ColumnDictionary(base)
        assert d.values.tolist() == ["", "a", "ab", "b"]
        assert d.counts.tolist() == [50, 100, 50, 100]
        assert d.codes[:6].tolist() == [3, 1, 0, 1, 3, 2]
    assert unique_calls == []
    assert "encoding.sorts" not in recorder.metrics.snapshot()["counters"]


# ----------------------------------------------------------------------
# Ladders served from a dictionary are identical to the raw-array path

def test_ladders_from_dictionary_identical(city_db):
    column = city_db.table("orders").column("uid")
    d = ColumnDictionary(column)
    assert selectivity_ladder(d) == selectivity_ladder(column)
    assert frequency_ladder(d) == frequency_ladder(column)


def test_repeated_ladder_calls_hit_the_cache(city_db):
    cache = city_db._cache("dict_cache")
    before = cache.stats.hits
    first = selectivity_ladder(city_db.column_dictionary("orders", "uid"))
    second = selectivity_ladder(city_db.column_dictionary("orders", "uid"))
    assert first == second
    # The second call is a pure cache read: one more hit, no rebuild.
    assert cache.stats.hits > before
    d1 = city_db.column_dictionary("orders", "uid")
    assert city_db.column_dictionary("orders", "uid") is d1


# ----------------------------------------------------------------------
# DictionaryCache: identity validation and invalidation sweep

def test_cache_serves_same_dictionary_until_data_changes(city_db):
    cache = DictionaryCache()
    users = city_db.table("users")
    d1 = cache.dictionary(users, "city")
    d2 = cache.dictionary(users, "city")
    assert d1 is d2
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    users.append_rows(
        {"uid": [10_000], "city": ["yyz"], "age": [40]}
    )
    d3 = cache.dictionary(users, "city")
    assert d3 is not d1  # append replaced the storage array
    assert "yyz" in d3.values.tolist()


def test_invalidate_sweeps_stale_entries_keeps_fresh(city_db):
    """A numeric column's entry goes stale when its table appends
    behind the cache's back; a string column's never does — it is the
    table's own dictionary, which the append grew."""
    cache = DictionaryCache()
    users = city_db.table("users")
    orders = city_db.table("orders")
    cache.dictionary(users, "age")
    cache.dictionary(users, "city")
    kept = cache.dictionary(orders, "amount")
    users.append_rows(
        {"uid": [10_001], "city": ["yul"], "age": [41]}
    )
    cache.invalidate()
    assert ("users", "age") not in cache._entries
    assert cache.dictionary(orders, "amount") is kept
    grown = cache.dictionary(users, "city")
    assert grown is users.dictionary("city")
    assert grown.values.tolist()[-1] == "yul"


def test_lexsort_matches_np_lexsort(city_db):
    cache = DictionaryCache()
    users = city_db.table("users")
    arrays = [users.column("city"), users.column("age")]
    expected = np.lexsort(tuple(reversed(arrays)))
    order = cache.lexsort(users, ("city", "age"))
    assert order.tolist() == expected.tolist()
    # Memoized: the identical permutation object on a repeat call.
    assert cache.lexsort(users, ("city", "age")) is order
    # A packed tuple sorts once and memoizes no suffix: the suffix's
    # order is its dictionary's, sorted when asked for.
    assert len(cache._orders) == 1
    suffix = cache.lexsort(users, ("age",))
    assert suffix.tolist() == np.lexsort(
        (users.column("age"),)
    ).tolist()


def test_lexsort_recomputes_after_append_rows(city_db):
    cache = DictionaryCache()
    users = city_db.table("users")
    stale = cache.lexsort(users, ("city", "age"))
    users.append_rows(
        {"uid": [10_002], "city": ["aaa"], "age": [1]}
    )
    fresh = cache.lexsort(users, ("city", "age"))
    assert fresh is not stale
    arrays = [users.column("city"), users.column("age")]
    assert fresh.tolist() == np.lexsort(
        tuple(reversed(arrays))
    ).tolist()


def test_index_build_with_cache_is_identical(city_db):
    cache = DictionaryCache()
    users = city_db.table("users")
    definition = IndexDefinition(table="users", columns=("city", "age"))
    cached = IndexData(definition, users, cache)
    # np.lexsort on the raw arrays is the reference.
    city, age = users.decode("city"), users.decode("age")
    order = np.lexsort((age, city))
    assert cached.row_ids.dtype == np.int32
    assert cached.row_ids.tolist() == order.tolist()
    # The leading key is the dictionary's values — the array itself —
    # and its run offsets; only the inner key is a sorted copy.
    leading = cache.dictionary(users, "city")
    assert cached.values is leading.values
    assert cached.offsets.tolist() == [
        0, *np.cumsum(leading.counts).tolist()
    ]
    assert np.repeat(
        cached.values, np.diff(cached.offsets)
    ).tolist() == city[order].tolist()
    assert [c.tolist() for c in cached.inner_columns] == [
        age[order].tolist()
    ]
    # The index and the memo hold one read-only permutation.
    memo = cache.lexsort(users, ("city", "age"))
    assert cached.row_ids is memo
    assert not memo.flags.writeable
    for array in (cached.row_ids, memo, cached.offsets,
                  *cached.inner_columns):
        with pytest.raises(ValueError):
            array[0] = array[0]
    # A second index on the same columns shares it too.
    assert IndexData(definition, users, cache).row_ids is memo


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 60),
    domain=st.integers(1, 8),
    seed=st.integers(0, 500),
)
def test_property_lexsort_equals_np_lexsort(rows, domain, seed):
    from conftest import make_city_catalog
    from repro.storage.table import Table

    rng = np.random.default_rng(seed)
    catalog = make_city_catalog()
    table = Table(
        catalog.table("orders"),
        {
            "oid": np.arange(rows),
            "uid": rng.integers(0, domain, rows),
            "city": rng.choice(
                np.array(["a", "b", "c"], dtype=object), rows
            ),
            "amount": rng.integers(0, domain, rows),
        },
    )
    cache = DictionaryCache()
    for columns in (("uid",), ("city", "uid"), ("uid", "city", "amount")):
        arrays = [table.column(c) for c in columns]
        expected = np.lexsort(tuple(reversed(arrays)))
        assert cache.lexsort(table, columns).tolist() == expected.tolist()


def wide_orders_table(rows, seed):
    """``orders`` with two integer columns of about ``rows`` distinct
    values each: at 70 000 rows a code beside a position passes 31
    bits."""
    from conftest import make_city_catalog
    from repro.storage.table import Table

    rng = np.random.default_rng(seed)
    return Table(
        make_city_catalog().table("orders"),
        {
            "oid": np.arange(rows),
            "uid": rng.permutation(rows) // 2 * 3,
            "city": np.full(rows, "a", dtype=object),
            "amount": rng.permutation(rows) // 2 * 5,
        },
    )


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_lexsort_levels_shift_int32_codes_in_int64(seed):
    table = wide_orders_table(70_000, seed)
    cache = DictionaryCache()
    order = cache.lexsort(table, ("uid", "amount"))
    uid = cache.dictionary(table, "uid")
    codes = uid.codes
    assert order.dtype == np.int32
    assert codes.dtype == code_dtype_of(uid.n_distinct) == np.int32
    assert int(codes.max()).bit_length() + (
        table.row_count - 1).bit_length() > 31
    assert np.array_equal(
        order, np.lexsort((table.column("amount"), table.column("uid")))
    )


def test_resident_bytes_counts_each_array_once(city_db):
    cache = DictionaryCache()
    orders = city_db.table("orders")
    rows = orders.row_count
    uid = cache.dictionary(orders, "uid")
    small = uid.values.nbytes + uid.counts.nbytes
    # An integer column holds its codes, two bytes a row (int16), and
    # no order ...
    assert uid.codes.dtype == code_dtype_of(uid.n_distinct) == np.int16
    assert cache.resident_bytes() == {
        "codes": 2 * rows, "orders": 0, "lexsorts": 0, "values": small,
    }
    # ... the one-column memo is its order, a two-column one is not,
    # and the packed sort of (uid, amount) ordered amount by nothing
    # but its codes.
    cache.lexsort(orders, ("uid",))
    cache.lexsort(orders, ("uid", "amount"))
    amount = cache.dictionary(orders, "amount")
    assert amount.codes.dtype == np.int16 and amount._argsort is None
    assert cache.resident_bytes() == {
        "codes": 4 * rows, "orders": 4 * rows, "lexsorts": 4 * rows,
        "values": small + amount.values.nbytes + amount.counts.nbytes,
    }


# ----------------------------------------------------------------------
# The database's dictionary cache

def test_database_cache_stats_exposes_dict_cache(city_db):
    city_db.column_dictionary("users", "city")
    city_db.column_dictionary("users", "city")
    snapshot = city_db.cache_stats()["dict_cache"]
    assert snapshot["hits"] >= 1
    assert snapshot["misses"] >= 1
    assert 0.0 <= snapshot["hit_rate"] <= 1.0


def test_database_invalidation_drops_stale_dictionaries(city_db):
    d1 = city_db.column_dictionary("orders", "amount")
    city_db.insert_rows(
        "orders",
        {"oid": [99_999], "uid": [1], "city": ["tor"], "amount": [55]},
    )
    d2 = city_db.column_dictionary("orders", "amount")
    assert d2 is not d1
    assert d2.row_count == d1.row_count + 1


# ----------------------------------------------------------------------
# Dictionaries carried across append_rows

VALUE_DOMAINS = {
    "int": ([-(10 ** 6), -1, 0, 1, 2, 3, 10 ** 6], np.int64),
    "float": ([-1e9, -0.5, 0.0, 0.25, 0.5, 2.0, 1e9], np.float64),
    "str": (["", "a", "ab", "b", "m", "zz", "zzzz"], object),
}


def assert_same_dictionary(got, want):
    for name in ("values", "counts", "codes"):
        have, expected = getattr(got, name), getattr(want, name)
        assert have.dtype == expected.dtype, name
        assert have.tolist() == expected.tolist(), name
    assert got.argsort().tolist() == want.argsort().tolist()


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(VALUE_DOMAINS)),
    picks=st.lists(
        st.lists(st.integers(0, 6), min_size=0, max_size=15),
        min_size=1, max_size=5,
    ),
    touch_codes=st.booleans(),
)
def test_property_extended_dictionary_equals_rebuild(
        kind, picks, touch_codes):
    """0-4 successive tails — empty, all-new, all-known, sorting before or
    after every known value — extend a packed, a hashed and an
    ``np.unique`` dictionary to what a fresh one over the grown column
    holds."""
    domain, dtype = VALUE_DOMAINS[kind]
    domain = np.array(domain, dtype=dtype)
    base = domain[np.array(picks[0], dtype=np.int64)]
    dictionary = ColumnDictionary(base)
    if touch_codes:
        dictionary.codes
    # A hashed and an integer column have codes from construction;
    # the np.unique side scatters them after an argsort on first read.
    has_codes = dictionary._codes is not None
    assert has_codes == (touch_codes or kind != "float")
    for tail in picks[1:]:
        base = np.concatenate([base, domain[np.array(tail, dtype=np.int64)]])
        grown = dictionary.extended(base)
        assert grown is not dictionary and grown.base is base
        # Codes are carried when there are any, and stay lazy otherwise.
        assert (grown._codes is not None) == has_codes
        assert_same_dictionary(grown, ColumnDictionary(base))
        has_codes = True  # the comparison has read them
        dictionary = grown
    assert_same_dictionary(dictionary, ColumnDictionary(base))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(VALUE_DOMAINS)),
    picks=st.lists(st.integers(0, 6), min_size=1, max_size=15),
    tails=st.lists(
        st.lists(st.integers(0, 14), max_size=8), min_size=1, max_size=4
    ),
    touch_codes=st.booleans(),
)
def test_property_extension_without_a_new_value_keeps_values(
        kind, picks, tails, touch_codes):
    """A tail that brings no new value keeps ``values`` — the same
    array — and writes its codes behind the old ones in one buffer;
    the result still equals ``ColumnDictionary(base)``, and the
    dictionary it extended is left as it was."""
    domain, dtype = VALUE_DOMAINS[kind]
    domain = np.array(domain, dtype=dtype)
    base = domain[np.array(picks, dtype=np.int64)]
    dictionary = ColumnDictionary(base)
    if touch_codes:
        dictionary.codes
    for tail in tails:
        # Tail picks index the dictionary's own values: none is new.
        tail = dictionary.values[
            np.array(tail, dtype=np.int64) % dictionary.n_distinct
        ]
        base = np.concatenate([base, tail])
        held = (dictionary.counts.tolist(),
                None if dictionary._codes is None
                else (dictionary._codes, dictionary._codes.tolist()))
        grown = dictionary.extended(base)
        assert grown.values is dictionary.values
        assert dictionary.counts.tolist() == held[0]
        if held[1] is not None:
            codes, contents = held[1]
            assert codes.tolist() == contents
            assert grown._codes[:len(codes)].tolist() == contents
        assert_same_dictionary(grown, ColumnDictionary(base))
        dictionary = grown


def test_extending_one_dictionary_twice_keeps_both_results():
    """The spare codes buffer passes to the first extension: a second
    extension of the same dictionary writes a buffer of its own."""
    words = ["a", "b", "a"] * 16
    dictionary = ColumnDictionary(np.array(words, dtype=object))
    first = dictionary.appended(["a"] * 2)
    second = dictionary.appended(["b"] * 2)
    third = first.appended(["b"])
    for grown, rows in ((first, words + ["a"] * 2),
                        (second, words + ["b"] * 2),
                        (third, words + ["a"] * 2 + ["b"])):
        assert grown.coded
        assert_same_dictionary(
            grown, ColumnDictionary(np.array(rows, dtype=object))
        )
    assert np.shares_memory(first.codes, third.codes)
    assert not np.shares_memory(first.codes, second.codes)


def test_insert_rows_carries_dictionaries_without_a_miss(city_db):
    orders = city_db.table("orders")
    held = {
        column: city_db.column_dictionary("orders", column)
        for column in ("uid", "city", "amount")
    }
    held["uid"].codes
    dict_cache = city_db._cache("dict_cache")
    stale_order = dict_cache.lexsort(orders, ("city", "uid"))
    misses = city_db.cache_stats()["dict_cache"]["misses"]
    cached = sum(
        1 for table, _ in dict_cache._entries if table == "orders"
    )
    assert cached >= len(held)
    with obs.recording(obs.TraceRecorder()) as recorder:
        city_db.insert_rows(
            "orders",
            {"oid": [90_000, 90_001], "uid": [10 ** 6, 1],
             "city": ["aaa", "tor"], "amount": [55, 55]},
        )
    counters = recorder.metrics.snapshot()["counters"]
    # The insert leaves every cached entry owing the rows; it extends
    # none of them.
    assert "encoding.dict_extends" not in counters
    assert "encoding.dict_builds" not in counters
    for column, old in held.items():
        # The first read of a held number column extends it, exactly
        # once; a string column's dictionary is the table's, which the
        # insert grew.
        with obs.recording(obs.TraceRecorder()) as recorder:
            carried = city_db.column_dictionary("orders", column)
            assert city_db.column_dictionary("orders", column) is carried
        counters = recorder.metrics.snapshot()["counters"]
        coded = orders.dictionary(column) is not None
        assert counters.get("encoding.dict_extends", 0) == (not coded)
        assert "encoding.dict_builds" not in counters
        assert carried is not old
        assert carried.base is orders.column(column)
        assert old.row_count == carried.row_count - 2
        assert_same_dictionary(
            carried, ColumnDictionary(orders.decode(column))
        )
    assert city_db.cache_stats()["dict_cache"]["misses"] == misses
    # Memoized sort orders are not carried; they rebuild on demand.
    fresh = dict_cache.lexsort(orders, ("city", "uid"))
    assert fresh is not stale_order
    assert fresh.tolist() == np.lexsort(
        (orders.column("uid"), orders.column("city"))
    ).tolist()


def test_append_through_the_cache_skips_entries_already_stale(city_db):
    cache = DictionaryCache()
    users = city_db.table("users")
    stale = cache.dictionary(users, "age")
    row = {"uid": [10_000], "city": ["yyz"], "age": [40]}
    users.append_rows(row)          # behind the cache's back
    assert cache.append_rows(users, row) == 1
    assert cache._entries[("users", "age")][1] is stale
    rebuilt = cache.dictionary(users, "age")
    assert rebuilt.row_count == stale.row_count + 2
    assert cache.stats.misses == 2


def check_dictionaries(database, target):
    """Every cached dictionary of the table's columns that is up to
    date equals a fresh one over the column, and draws its values from
    its domain."""
    encodings = database._cache("dict_cache")
    table = database.table(target.table)
    for column in table.column_names():
        entry = encodings._entries.get((target.table, column))
        if entry is None or entry[1].base is not table.column(column):
            continue
        dictionary = entry[1]
        assert_same_dictionary(
            dictionary, ColumnDictionary(table.decode(column))
        )
        assert dictionary.domain[dictionary.ranks].tolist() == \
            dictionary.values.tolist()


@pytest.mark.parametrize("target", sorted(interleave.TARGETS))
@settings(max_examples=25, deadline=None)
@given(steps=interleave.STEPS)
@example(steps=interleave.EXAMPLES[0])
@example(steps=interleave.EXAMPLES[1])
def test_property_deferred_dictionaries_read_as_built(target, steps):
    """Inserts interleaved with probes, lookups, cluster factors, plans
    and pickle round trips: every dictionary a read leaves up to date
    equals encoding the column's values, and so does every one read at
    the end — a number column's extended once, over every row it owed,
    as a hit; a string column's the table's own, built by no lookup."""
    target = interleave.TARGETS[target]
    database = interleave.run(target, steps, check_dictionaries)
    encodings = database._cache("dict_cache")
    table = database.table(target.table)
    owed = sum(
        1 for key in encodings._owed if key[0] == target.table
    )
    numbers_missed = 0
    with obs.recording(obs.TraceRecorder()) as recorder:
        for column in table.column_names():
            misses = encodings.stats.misses
            dictionary = database.column_dictionary(target.table, column)
            if table.dictionary(column) is not None:
                assert dictionary is table.dictionary(column)
            else:
                numbers_missed += encodings.stats.misses - misses
    counters = recorder.metrics.snapshot()["counters"]
    assert counters.get("encoding.dict_extends", 0) == owed
    assert counters.get("encoding.dict_builds", 0) == numbers_missed
    check_dictionaries(database, target)


def test_owed_dictionaries_extend_once_over_every_insert(city_db):
    """Two inserts before a read: the first lookup extends a number
    column's entry over both batches at once and counts a hit, and
    keeps its values when no value is new."""
    orders = city_db.table("orders")
    held = city_db.column_dictionary("orders", "uid")
    cache = city_db._cache("dict_cache")
    hits, misses = cache.stats.hits, cache.stats.misses
    with obs.recording(obs.TraceRecorder()) as recorder:
        for oid in (90_000, 90_001):
            city_db.insert_rows("orders", {
                "oid": [oid], "uid": [held.values[0]], "city": ["tor"],
                "amount": [7],
            })
        assert "encoding.dict_extends" not in \
            recorder.metrics.snapshot()["counters"]
        carried = city_db.column_dictionary("orders", "uid")
    counters = recorder.metrics.snapshot()["counters"]
    assert counters["encoding.dict_extends"] == 1
    assert carried.values is held.values
    assert carried.row_count == held.row_count + 2
    assert cache.stats.hits == hits + 1 and cache.stats.misses == misses
    assert_same_dictionary(carried, ColumnDictionary(orders.column("uid")))


# ----------------------------------------------------------------------
# Float codes: one argsort of the column, scattered

@settings(max_examples=120, deadline=None)
@given(
    picks=st.lists(st.integers(0, 7), min_size=0, max_size=60),
    packed=st.booleans(),
)
def test_property_float_codes_are_the_unique_inverse(picks, packed):
    """Duplicates, ``-0.0`` beside ``0.0`` (one value to ``np.unique``)
    and an empty column: the scattered codes are ``np.unique``'s
    inverse, whichever of ``codes`` and ``argsort()`` is read first."""
    domain = np.array([-1e9, -2.5, -0.0, 0.0, 0.1, 0.25, 7.0, 1e9])
    base = domain[np.array(picks, dtype=np.int64)]
    dictionary = ColumnDictionary(base)
    if packed:
        dictionary.argsort()
    values, inverse, counts = np.unique(
        base, return_inverse=True, return_counts=True
    )
    assert dictionary.values.tolist() == values.tolist()
    assert dictionary.counts.tolist() == counts.tolist()
    assert dictionary.codes.dtype == code_dtype_of(len(values))
    assert dictionary.codes.tolist() == inverse.reshape(-1).tolist()
    assert dictionary.argsort().tolist() == np.argsort(
        base, kind="stable"
    ).tolist()


# ----------------------------------------------------------------------
# Domains: dictionaries of one pool locate each other by their ranks

POOLS = {
    # Strictly increasing: the pool is its own hashed dictionary.
    "sorted": np.array(["", "a", "ab", "b", "m", "zz"], dtype=object),
    # Out of order and repeating "b": hashed once, by the cache.
    "unsorted": np.array(["m", "b", "zz", "", "b", "ab", "a"], dtype=object),
}
POOL_PICKS = st.lists(st.integers(0, 10**6), max_size=30)


def pooled_column(hashed, name, pool, picks):
    """A one-column table ``name(s)`` drawn from ``pool``, loaded as
    its pool dictionary (``hashed`` memoizes the pool's hash)."""
    from repro.catalog.schema import ColumnDef, TableSchema
    from repro.storage.table import Table
    from repro.storage.types import varchar

    rows = np.array([p % len(pool) for p in picks], dtype=np.int32)
    return Table(
        TableSchema(name, [ColumnDef("s", varchar(4), "")]),
        {"s": ColumnDictionary.from_pool(pool, rows, hashed)},
    )


def find_result(own, other):
    """What the object branch answers: ``other.find(own.values)``."""
    slots, found = other.find(own.values)
    return slots.tolist(), found.tolist()


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(POOLS)), left=POOL_PICKS, right=POOL_PICKS,
)
def test_property_pooled_dictionaries_share_the_pools_domain(
        kind, left, right):
    """Two columns of one pool — either possibly empty — share one
    domain, hashed once; their ranks place their values in it, and
    locating one in the other by ranks answers what ``find`` does."""
    pool = POOLS[kind]
    cache, hashed = DictionaryCache(), {}
    tables = [pooled_column(hashed, name, pool, picks)
              for name, picks in (("l", left), ("r", right))]
    a, b = (cache.dictionary(table, "s") for table in tables)
    assert a.domain is b.domain
    if kind == "sorted":
        assert a.domain is pool
    assert a.domain.tolist() == sorted(set(pool.tolist()))
    for dictionary in (a, b):
        assert dictionary.ranks.dtype == np.int32
        assert dictionary.domain[dictionary.ranks].tolist() == (
            dictionary.values.tolist()
        )
    for own, other in ((a, b), (b, a), (a, a)):
        slots, found = locate(own, other)
        assert (slots.tolist(), found.tolist()) == find_result(own, other)
    # A column loaded without its pool is its own domain: locating it
    # (or in it) takes the object branch, with the same answer.
    loose = ColumnDictionary(tables[1].decode("s"))
    assert loose.domain is loose.values and loose.domain is not a.domain
    slots, found = locate(a, loose)
    assert (slots.tolist(), found.tolist()) == find_result(a, loose)


def test_locating_pooled_dictionaries_compares_no_values(monkeypatch):
    pool = POOLS["unsorted"]
    cache, hashed = DictionaryCache(), {}
    a, b = (
        cache.dictionary(pooled_column(hashed, name, pool, picks), "s")
        for name, picks in (("l", [0, 1, 1, 5]), ("r", [2, 3, 4, 6]))
    )
    finds = []
    real = ColumnDictionary.find
    monkeypatch.setattr(
        ColumnDictionary, "find",
        lambda self, values: finds.append(values) or real(self, values),
    )
    locate(a, b)
    locate(b, a)
    assert finds == []
    # Only the object branch calls find.
    locate(a, ColumnDictionary(b.values[b.codes]))
    assert len(finds) == 1 and finds[0] is a.values


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(POOLS)),
    picks=POOL_PICKS,
    tails=st.lists(st.lists(st.integers(0, 10**6), max_size=6), max_size=3),
    outside=st.integers(-1, 2),
)
# A tail with a pool value beside the one outside the pool.
@example(kind="sorted", picks=[0, 2], tails=[[1]], outside=0)
def test_property_extension_keeps_the_domain_while_values_are_in_it(
        kind, picks, tails, outside):
    """Tails drawn from the pool — bringing new values or none — keep
    the domain, and the ranks follow the values; the tail numbered
    ``outside`` also brings a value the pool lacks, after which the
    dictionary is its own domain.  Every extension equals a rebuild,
    and still locates a sibling column of the pool as ``find`` does."""
    pool = POOLS[kind]
    cache, hashed = DictionaryCache(), {}
    sibling = cache.dictionary(pooled_column(hashed, "o", pool, [1, 3]), "s")
    table = pooled_column(hashed, "t", pool, picks)
    dictionary = cache.dictionary(table, "s")
    pooled = True
    for number, tail in enumerate(tails):
        rows = [pool[p % len(pool)] for p in tail]
        if number == outside:
            rows.append("zzz-outside")
            pooled = False
        before = dictionary
        cache.append_rows(table, {"s": rows})
        dictionary = cache.dictionary(table, "s")
        assert_same_dictionary(dictionary, ColumnDictionary(table.decode("s")))
        assert (dictionary.domain is sibling.domain) == pooled
        if not pooled:
            assert dictionary.domain is dictionary.values
        if set(rows) <= set(before.values.tolist()):
            assert dictionary.values is before.values
        assert dictionary.domain[dictionary.ranks].tolist() == (
            dictionary.values.tolist()
        )
        for own, other in ((sibling, dictionary), (dictionary, sibling)):
            slots, found = locate(own, other)
            assert (slots.tolist(), found.tolist()) == (
                find_result(own, other)
            )


def test_a_pool_is_hashed_once_for_every_column_drawn_from_it(
        monkeypatch):
    """Columns drawn from one pool through one memo hash it once and
    share its domain; the memo holds the pool, and the dictionary
    cache keeps nothing of it."""
    from repro.storage import encoding

    pool = POOLS["unsorted"]
    hashes = []
    real = encoding._hashed_dictionary
    monkeypatch.setattr(
        encoding, "_hashed_dictionary",
        lambda base: hashes.append(base) or real(base),
    )
    hashed = {}
    tables = [pooled_column(hashed, name, pool, [0, 2, 4])
              for name in ("a", "b")]
    assert [id(p) for p in hashes] == [id(pool)]
    assert list(hashed) == [id(pool)] and hashed[id(pool)][0] is pool
    cache = DictionaryCache()
    first, second = (cache.dictionary(t, "s") for t in tables)
    assert first.domain is second.domain
    assert not hasattr(cache, "_hashed_pools")
    # Without the memo the pool is hashed again, into a domain of its
    # own.
    loose = pooled_column(None, "c", pool, [0, 2, 4]).dictionary("s")
    assert len(hashes) == 2 and loose.domain is not first.domain
    assert loose.domain.tolist() == first.domain.tolist()


# ----------------------------------------------------------------------
# Integer columns stored narrow, widened by appends

# Values at and around the int16 and int32 limits.
EDGES = st.sampled_from([
    -(2 ** 31) - 1, -(2 ** 31), -32769, -32768, -32767, -1, 0, 1,
    32767, 32768, 2 ** 31 - 1, 2 ** 31,
])


def narrow_table(values):
    """A one-column integer table ``n(i)`` loaded with ``values``."""
    from repro.catalog.schema import ColumnDef, TableSchema
    from repro.storage.table import Table
    from repro.storage.types import integer

    schema = TableSchema("n", [ColumnDef("i", integer(), "")])
    return Table(schema, {"i": values})


def assert_dictionary_of_int64(dictionary, want, column):
    """``dictionary`` is the one of ``want``, the column's int64
    reference: ``np.unique`` values (in the column's dtype), counts and
    inverse, and the stable argsort."""
    values, codes, counts = np.unique(
        want, return_inverse=True, return_counts=True
    )
    assert dictionary.values.dtype == column.dtype
    assert dictionary.values.tolist() == values.tolist()
    assert dictionary.counts.tolist() == counts.tolist()
    assert dictionary.codes.dtype == code_dtype_of(len(values))
    assert dictionary.codes.tolist() == codes.tolist()
    assert dictionary.argsort().tolist() == np.argsort(
        want, kind="stable"
    ).tolist()


@settings(max_examples=150, deadline=None)
@given(
    initial=st.lists(EDGES, max_size=12),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.lists(EDGES, max_size=6)),
            st.tuples(st.just("read"), st.booleans()),
        ),
        max_size=8,
    ),
)
# Section 4.4's first insert: ordinals loaded at most 6 670, new rows
# numbered from 236 101, read after the insert and after the next.
@example(
    initial=[1, 2, 2, 6670],
    steps=[("read", True), ("append", [236101, 236102]), ("read", False),
           ("append", [236103]), ("read", True)],
)
@example(
    initial=[-32768, 32767, 0],
    steps=[("read", True), ("append", [32768]), ("append", [2 ** 31]),
           ("read", True)],
)
def test_property_dictionaries_follow_a_widening_column(initial, steps):
    """A cached dictionary of an integer column stored at the int16 and
    int32 limits — read, or owing appends that fit it or widen it once
    or twice — equals the ``np.unique`` / stable ``argsort`` products
    of the column's int64 reference, with ``values`` in the column's
    dtype; a column spanning all of int16 packs its sort in int64."""
    table = narrow_table(initial)
    cache = DictionaryCache()
    want = np.array(initial, dtype=np.int64)
    for kind, arg in steps:
        if kind == "append":
            cache.append_rows(table, {"i": np.array(arg, dtype=np.int64)})
            want = np.concatenate([want, np.array(arg, dtype=np.int64)])
            continue
        dictionary = cache.dictionary(table, "i")
        if arg:
            # Codes read now are carried by the next extension.
            dictionary.codes
        assert_dictionary_of_int64(dictionary, want, table.column("i"))
    assert_dictionary_of_int64(
        cache.dictionary(table, "i"), want, table.column("i")
    )


# ----------------------------------------------------------------------
# Coded string columns: comparisons and equality on codes

CODED_WORDS = ["", "a", "ab", "b", "it's", "naïve", "zz"]
OPS = ("=", "<>", "<", "<=", ">", ">=")


def coded_table(name, words):
    """A one-column string table ``name(k)`` of ``words``, encoded
    from the object array (its own domain)."""
    from repro.catalog.schema import ColumnDef, TableSchema
    from repro.storage.table import Table
    from repro.storage.types import varchar

    return Table(
        TableSchema(name, [ColumnDef("k", varchar(8), "")]),
        {"k": np.array(words, dtype=object)},
    )


def object_compare(values, op, literal):
    import operator

    compare = {
        "=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    }[op]
    return [compare(value, literal) for value in values]


@settings(max_examples=150, deadline=None)
@given(
    words=st.lists(st.sampled_from(CODED_WORDS), max_size=40),
    op=st.sampled_from(OPS),
    literal=st.sampled_from(CODED_WORDS + ["", "!", "aa", "c", "zzz", "日本"]),
    picks=st.lists(st.integers(0, 10**6), max_size=20),
)
@example(words=["b", "a"], op="=", literal="c", picks=[])        # absent
@example(words=["b", "a"], op="<", literal="!", picks=[])        # below all
@example(words=["b", "a"], op=">=", literal="zzz", picks=[])     # above all
@example(words=[], op="<>", literal="a", picks=[])               # empty
def test_property_code_filters_equal_the_object_compare(
        words, op, literal, picks):
    """Each of the six comparisons on codes, against the literal's
    ``code_bound``, keeps the rows the object compare keeps — literal
    present, absent, below or above every value — on the whole column
    and through the executor's fused filter, whole and behind a
    selection vector."""
    from types import SimpleNamespace

    from repro.executor.engine import Executor
    from repro.storage.encoding import code_bound

    table = coded_table("t", words)
    dictionary = table.dictionary("k")
    bound = code_bound(dictionary.values, op, literal)
    got = object_compare(table.column("k").tolist(), op, bound)
    assert got == object_compare(words, op, literal)
    executor = Executor({"t": table}, None)
    executor._required = frozenset({"t.k"})
    flt = SimpleNamespace(key="t.k", column="k", op=op, value=literal)
    rows = [p % len(words) for p in picks] if words else []
    for row_ids in (None, np.array(rows, dtype=np.int64)):
        batch = executor._scan_batch(table, {"t.k": "k"}, row_ids)
        keep = executor._filter_keep(batch, [flt], table)
        values = words if row_ids is None else [words[r] for r in rows]
        assert keep.tolist() == object_compare(values, op, literal)


@settings(max_examples=150, deadline=None)
@given(
    left=st.lists(st.sampled_from(CODED_WORDS[:5]), min_size=1, max_size=20),
    right=st.lists(st.sampled_from(CODED_WORDS[2:]), min_size=1,
                   max_size=20),
    pairs=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                   max_size=30),
)
def test_property_inl_extra_predicates_map_codes_across_dictionaries(
        left, right, pairs):
    """An index join's extra equality between two string columns of
    two dictionaries that share no domain — different values, codes
    that mean different strings — is true exactly where the decoded
    values are equal."""
    from repro.executor.engine import Executor, _merged

    outer, inner = coded_table("o", left), coded_table("i", right)
    a, b = outer.dictionary("k"), inner.dictionary("k")
    assert a.domain is not b.domain
    executor = Executor({"o": outer, "i": inner}, None)
    executor._required = frozenset({"o.k", "i.k"})
    outer_rows = np.array([p % len(left) for p, _ in pairs], dtype=np.int64)
    inner_rows = np.array([q % len(right) for _, q in pairs], dtype=np.int64)
    batch = _merged(
        executor._scan_batch(outer, {"o.k": "k"}, outer_rows),
        executor._scan_batch(inner, {"i.k": "k"}, inner_rows),
    )
    got = executor._equal(batch, "o.k", "i.k")
    want = [left[p] == right[q] for p, q in zip(outer_rows, inner_rows)]
    assert got.tolist() == want


# ----------------------------------------------------------------------
# Two bytes a code: int16 codes up to 32 768 values, int32 beyond

CODE_LIMIT = 1 << 15  # the most values int16 codes can number


def boundary_column(kind, n_distinct, seed):
    """``(table, values)``: a one-column table ``b(c)`` of ``kind``
    holding ``n_distinct`` values, each at least once, in a shuffled
    order, and the plain values it was loaded with.  A ``"str"``
    column is loaded as its dictionary read off pool indices, from a
    pool with entries no row draws."""
    from repro.catalog.schema import ColumnDef, TableSchema
    from repro.storage.table import Table
    from repro.storage.types import float_, integer, varchar

    rng = np.random.default_rng(seed)
    picks = np.concatenate([
        rng.permutation(n_distinct), rng.integers(0, n_distinct, 64),
    ])
    sql_type = {"int": integer(), "float": float_(), "str": varchar(8)}
    schema = TableSchema("b", [ColumnDef("c", sql_type[kind], "")])
    if kind == "str":
        pool = np.array(
            [boundary_value(kind, i) for i in range(n_distinct + 3)],
            dtype=object,
        )
        rows = picks.astype(np.int32)
        column = ColumnDictionary.from_pool(pool, rows)
        return Table(schema, {"c": column}), pool[rows]
    values = np.array([boundary_value(kind, i) for i in picks])
    return Table(schema, {"c": values}), values


def boundary_value(kind, i):
    """Value ``i`` of a ``kind`` column: ints spanning int16's range
    (so the column is int32), floats, strings."""
    if kind == "int":
        return 3 * i - 40_000
    if kind == "float":
        return i / 4 - 100.0
    return f"v{i:06d}"


def assert_codes_take_the_narrowest_dtype(table, cache, values):
    """The column's codes are ``np.unique``'s inverse of ``values`` in
    the narrowest dtype that numbers its values, and its resident
    bytes are that dtype's width for every row the buffer holds."""
    _, inverse = np.unique(values, return_inverse=True)
    coded = table.dictionary("c")
    dictionary = cache.dictionary(table, "c")
    assert dictionary is coded or coded is None
    codes = dictionary.codes
    width = code_dtype_of(dictionary.n_distinct)
    assert codes.dtype == width
    assert codes.tolist() == inverse.reshape(-1).tolist()
    held = codes if dictionary._spare is None else dictionary._spare
    if coded is None:
        assert cache.resident_bytes()["codes"] == width.itemsize * len(held)
    else:
        assert table.resident_bytes() == {width.name: width.itemsize
                                          * len(held)}


@settings(max_examples=24, deadline=None)
@given(
    kind=st.sampled_from(["int", "float", "str"]),
    offset=st.integers(-3, 2),
    tails=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 40)), max_size=2
    ),
    seed=st.integers(0, 1000),
)
@example(kind="str", offset=0, tails=[(1, 5)], seed=0)
@example(kind="int", offset=-1, tails=[(0, 9), (2, 3)], seed=1)
@example(kind="float", offset=-2, tails=[(3, 0)], seed=2)
def test_property_codes_take_two_bytes_up_to_32768_values(
        kind, offset, tails, seed):
    """Int, float and pooled-string columns whose distinct count
    straddles 32 768, loaded and then grown by tails of ``new`` unseen
    and ``old`` seen values that may carry them across it: after every
    step the codes equal ``np.unique``'s inverse, they are int16 up to
    32 768 values and int32 beyond, and they hold 2 or 4 bytes a
    row."""
    n_distinct = CODE_LIMIT + offset
    table, values = boundary_column(kind, n_distinct, seed)
    cache = DictionaryCache()
    assert_codes_take_the_narrowest_dtype(table, cache, values)
    rng = np.random.default_rng(seed)
    for new, old in tails:
        tail = np.array(
            [boundary_value(kind, n_distinct + i) for i in range(new)]
            + [boundary_value(kind, i)
               for i in rng.integers(0, n_distinct, old)],
            dtype=object if kind == "str" else None,
        )
        n_distinct += new
        cache.append_rows(table, {"c": tail})
        values = np.concatenate([values, tail])
        assert_codes_take_the_narrowest_dtype(table, cache, values)


# ----------------------------------------------------------------------
# Integer construction: counted or sorted, codes always, no order

@settings(max_examples=120, deadline=None)
@example(rows=64, extra=0, low=-3, dtype="int16", tail=0)
@example(rows=64, extra=1, low=-3, dtype="int16", tail=0)
@given(
    rows=ROW_COUNTS,
    extra=st.sampled_from([-5, 0, 1, 2, 1000]),
    low=st.sampled_from([-40_000, -3, 0, 7]),
    dtype=st.sampled_from(["int16", "int32", "int64"]),
    tail=st.sampled_from([0, 3]),
)
def test_property_integer_dictionary_is_np_unique_without_an_order(
        rows, extra, low, dtype, tail):
    """Spans of ``rows + extra`` — counted up to ``rows``, exactly
    ``rows`` included, sorted from ``rows + 1`` on — from negative and
    positive minima, in each stored width, and a column an append
    widened: the dictionary is ``np.unique``'s, its ``argsort()`` the
    stable ``np.argsort``, and a fresh one holds codes and no order."""
    span = max(rows + extra, 0)
    if dtype == "int16" and low + span > 32_767:
        low = -32_768
    base = np.full(rows, low, dtype=np.int64)
    if rows:
        base[rows // 2:] = low + span
        base[1:rows // 2] = low + (np.arange(1, rows // 2) * 7) % (span + 1)
    base = base.astype(dtype)
    fresh = ColumnDictionary(base)
    assert fresh._argsort is None and fresh._codes is not None
    assert_dictionary_is_numpys(base, fresh)
    if tail:
        # A tail beyond int16 widens the column it extends.
        grown = np.concatenate([base, np.full(tail, 1 << 20, np.int32)])
        extended = ColumnDictionary(base).extended(grown)
        assert extended._codes is not None and extended._argsort is None
        assert_dictionary_is_numpys(grown, extended)


def test_lexsort_packs_a_narrow_tuple_and_levels_a_wide_one():
    """Five integer keys of about 1 000 values over 5 000 rows do not
    pack beside a position (50 + 13 bits); their first two do.  Both
    orders are ``np.lexsort``'s; the packed one is one sort that
    memoizes no suffix, the wide one sorts level by level."""
    from repro import ColumnDef, TableSchema, integer
    from repro.storage.table import Table

    rng = np.random.default_rng(7)
    names = ("a", "b", "c", "d", "e")
    table = Table(
        TableSchema("wide", [ColumnDef(n, integer(), n) for n in names]),
        {n: rng.integers(0, 1_000, 5_000) for n in names},
    )
    for columns, sorts in ((names[:2], 1), (names, 5)):
        cache = DictionaryCache()
        with obs.recording() as recorder:
            order = cache.lexsort(table, columns)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["encoding.sorts"] == sorts
        arrays = [table.column(c) for c in columns]
        assert np.array_equal(order, np.lexsort(tuple(reversed(arrays))))
        memoized = {key[1] for key in cache._orders}
        assert (columns[1:] in memoized) == (sorts > 1)
