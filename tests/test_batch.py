"""Batch utilities: masks, takes, weights, and the one route to a
key's codes.

Every code array is checked against the NumPy call it stands for
(``np.unique(..., return_inverse=True)``), written out here, on batches
attached by the executor's one scan helper.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ColumnDef, TableSchema, integer, varchar
from repro.executor.batch import (
    Batch,
    _join_pair_codes,
    _merged_domain,
    combine_codes,
    factorize,
    join_codes,
)
from repro.executor.engine import (
    Executor,
    _group_counts,
    _member_flags,
    _merged,
    _per_group,
)
from repro.executor.groupjoin import slot_map
from repro.executor.subplan import SubplanCache
from repro.index.data import IndexData
from repro.index.definition import IndexDefinition
from repro.storage.encoding import ColumnDictionary, DictionaryCache
from repro.storage.table import Table
from repro.views.matview import (
    COUNT_COLUMN,
    MatViewDefinition,
    ViewColumn,
    build_view,
)

from conftest import code_dtype_of


ORDERS_BY_UID = MatViewDefinition(
    tables=("orders",), group_columns=(ViewColumn("orders", "uid"),),
)


def inverse(values):
    """The dense codes NumPy assigns: ranks among the sorted uniques."""
    return np.unique(values, return_inverse=True)[1].tolist()


def key_table(name, values):
    """A one-column table ``name(k)`` holding ``values`` (or the coded
    dictionary of string values)."""
    if not isinstance(values, ColumnDictionary):
        values = np.asarray(values)
    coded = isinstance(values, ColumnDictionary) or values.dtype == object
    sql_type = varchar(8) if coded else integer()
    return Table(
        TableSchema(name, [ColumnDef("k", sql_type, "k")]), {"k": values}
    )


def scan(table, columns, row_ids=None, executor=None):
    """The batch a scan of ``table`` attaches for ``{key: column}``."""
    executor = executor or Executor({}, None)
    executor._required = frozenset(columns)
    return executor._scan_batch(table, columns, row_ids)


def key_scan(name, values, row_ids=None):
    return scan(key_table(name, values), {f"{name}.k": "k"}, row_ids)


def joined(left, right):
    """join_codes of two one-key batches, as lists."""
    (lkey,), (rkey,) = left.columns, right.columns
    lcodes, rcodes = join_codes(
        [left.key_codes(lkey)], [right.key_codes(rkey)],
        SubplanCache(DictionaryCache()),
    )
    # Raw codes are int16 or int32; what the join indexes with is int64.
    assert lcodes.dtype == rcodes.dtype == np.int64
    return lcodes.tolist(), rcodes.tolist()


def concatenated_inverse(left, right):
    """What NumPy assigns to the two sides factorized as one array."""
    (lkey,), (rkey,) = left.columns, right.columns
    lvalues, rvalues = left.column(lkey), right.column(rkey)
    codes = inverse(np.concatenate([lvalues, rvalues]))
    return codes[:len(lvalues)], codes[len(lvalues):]


def make_batch(n=5, weights=None):
    return Batch(
        columns={
            "t.a": np.arange(n),
            "t.b": np.array([f"v{i % 2}" for i in range(n)], dtype=object),
        },
        widths={"t.a": 8, "t.b": 4},
        weights=weights,
    )


def test_rows_and_width():
    batch = make_batch(5)
    assert batch.rows == 5
    assert batch.row_width == 8 + 4 + 8
    assert Batch(columns={}).rows == 0


def test_mask_and_take():
    batch = make_batch(6, weights=np.arange(6, dtype=np.float64))
    masked = batch.mask(np.array([True, False] * 3))
    assert masked.rows == 3
    assert masked.column("t.a").tolist() == [0, 2, 4]
    assert masked.weights.tolist() == [0.0, 2.0, 4.0]

    taken = batch.take(np.array([5, 5, 0]))
    assert taken.rows == 3
    assert taken.column("t.a").tolist() == [5, 5, 0]
    assert taken.weights.tolist() == [5.0, 5.0, 0.0]
    # The source batch is untouched by either selection.
    assert batch.rows == 6 and not batch.sels


def test_weight_array_defaults_to_none():
    assert make_batch(4).weight_array() is None


def same_bits(got, want):
    """Equal dtype, shape and bytes."""
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(n_groups=st.integers(0, 6), data=st.data())
def test_property_unweighted_aggregate_equals_ones_weighted(n_groups, data):
    """An unweighted batch's ``COUNT(*)``, ``SUM`` and ``AVG`` (weights
    ``None``) are bit for bit those of the same rows weighted by ones;
    empty input and zero groups included."""
    rows = data.draw(st.integers(0, 40 if n_groups else 0), label="rows")
    codes = np.array(data.draw(st.lists(
        st.integers(0, max(n_groups - 1, 0)), min_size=rows, max_size=rows,
    ), label="codes"), dtype=np.int64)
    arg = np.array(data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=rows, max_size=rows,
    ), label="arg"), dtype=np.float64)
    ones = np.ones(rows, dtype=np.float64)

    assert same_bits(
        _group_counts(codes, None, n_groups),
        _group_counts(codes, ones, n_groups),
    )
    counts = _per_group(codes, None, n_groups)
    weighted_counts = _per_group(codes, ones, n_groups)
    assert counts.tolist() == weighted_counts.tolist()
    # SUM skips the multiply by 1.0; AVG divides by the integer count.
    sums = _per_group(codes, arg, n_groups)
    assert same_bits(sums, _per_group(codes, arg * ones, n_groups))
    assert same_bits(
        sums / np.maximum(counts, 1),
        sums / np.maximum(weighted_counts, 1),
    )


def test_merged_keeps_the_weighted_sides_weights():
    weighted = make_batch(4, weights=np.array([2.0, 0.5, 3.0, 7.0]))
    for left, right in ((weighted, make_batch(4)), (make_batch(4), weighted)):
        merged = _merged(left, right)
        assert same_bits(merged.weights, weighted.weights)
    assert _merged(make_batch(4), make_batch(4)).weights is None


def test_factorize_dense_codes():
    batch = key_scan("t", np.array(["b", "a", "b", "c"], dtype=object))
    codes = factorize(*batch.key_codes("t.k"))
    assert codes.tolist() == [1, 0, 1, 2] == inverse(batch.column("t.k"))


def test_combine_codes_joint_groups():
    a = np.array([0, 0, 1, 1])
    b = np.array([0, 1, 0, 1])
    combined = combine_codes([a, b])
    assert len(set(combined.tolist())) == 4


def test_join_codes_equality_semantics():
    lc, rc = joined(
        key_scan("l", np.array(["x", "y", "z"], dtype=object)),
        key_scan("r", np.array(["y", "y", "w"], dtype=object)),
    )
    assert lc[1] == rc[0] == rc[1]
    assert lc[0] not in set(rc)


@settings(max_examples=50, deadline=None)
@given(
    left=st.lists(st.integers(0, 10), min_size=1, max_size=50),
    right=st.lists(st.integers(0, 10), min_size=1, max_size=50),
)
def test_property_join_codes_match_values(left, right):
    """Code equality across sides is exactly value equality."""
    lc, rc = joined(
        key_scan("l", np.array(left)), key_scan("r", np.array(right))
    )
    for i, lv in enumerate(left):
        for j, rv in enumerate(right):
            assert (lc[i] == rc[j]) == (lv == rv)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 80),
    cols=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_property_combine_codes_bijective_on_tuples(rows, cols, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(0, 5, rows) for _ in range(cols)]
    combined = combine_codes([np.array(inverse(a)) for a in arrays])
    tuples = list(zip(*(a.tolist() for a in arrays)))
    for i in range(rows):
        for j in range(rows):
            assert (combined[i] == combined[j]) == (
                tuples[i] == tuples[j]
            )


def test_factorize_empty_and_single_value():
    for empty in (np.array([], dtype=np.int64), np.array([], dtype=object)):
        batch = key_scan("t", empty)
        assert factorize(*batch.key_codes("t.k")).tolist() == []
    values = np.array(["only", "other", "only"], dtype=object)
    nothing = key_scan("t", values, row_ids=np.array([], dtype=np.int64))
    assert factorize(*nothing.key_codes("t.k")).tolist() == []
    only = key_scan("t", values, row_ids=np.array([0, 2, 2, 0]))
    assert factorize(*only.key_codes("t.k")).tolist() == [0, 0, 0, 0]


def assert_codes_are_the_inverse(batch, key):
    """The key's codes index its dictionary and densify to np.unique's
    inverse of the values an operator would read."""
    dictionary, codes = batch.key_codes(key)
    values = batch.decode(key)
    assert len(codes) == batch.rows == len(values)
    assert dictionary.values[codes].tolist() == values.tolist()
    assert factorize(dictionary, codes).tolist() == inverse(values)


def test_factorize_with_encoding_matches_legacy(city_db, tiny_nref):
    """The codes of a scanned key, in every state a batch can be in,
    against ``np.unique(values, return_inverse=True)``."""
    orders = city_db.table("orders")
    columns = {"o.uid": "uid", "o.city": "city"}
    picked = np.arange(0, orders.row_count, 3)[::-1]
    for key in columns:
        full = scan(orders, columns)
        # The whole column's codes are the stored array, in the
        # narrowest dtype that holds the dictionary's codes.
        dictionary, codes = full.key_codes(key)
        assert codes is dictionary.codes
        assert codes.dtype == code_dtype_of(dictionary.n_distinct)
        assert_codes_are_the_inverse(full, key)
        # Behind a selection vector: an index probe's row ids; the
        # codes widen where they are gathered.
        probed = scan(orders, columns, row_ids=picked)
        assert probed.columns[key] is orders.column(columns[key])
        assert probed.key_codes(key)[1].dtype == np.int64
        assert_codes_are_the_inverse(probed, key)
        # After column() memoized a gather: base and vector stay.
        read = scan(orders, columns, row_ids=picked)
        gathered = read.column(key)
        assert read.column(key) is gathered
        assert read.columns[key] is orders.column(columns[key])
        assert_codes_are_the_inverse(read, key)
        # After a mask of a take (with repetition).
        taken = full.take(np.array([7, 7, 0, 2499, 3, 7]))
        masked = taken.mask(np.array([True, False, True, True, False, True]))
        assert_codes_are_the_inverse(masked, key)
        assert_codes_are_the_inverse(masked.mask(np.zeros(4, dtype=bool)), key)

    # A view column: the view's own table and dictionary.
    view, _ = build_view(
        ORDERS_BY_UID, city_db.tables, city_db.catalog, DictionaryCache()
    )
    batch = scan(view, {"o.uid": "orders__uid"})
    assert batch.columns["o.uid"] is view.column("orders__uid")
    assert_codes_are_the_inverse(batch, "o.uid")
    assert_codes_are_the_inverse(batch.take(np.array([5, 1, 5])), "o.uid")

    # The one float column: np.unique construction, codes bisected on
    # first use.
    neighbors = tiny_nref.table("neighboring_seq")
    assert neighbors.column("score").dtype == np.float64
    executor = Executor(tiny_nref.tables, tiny_nref.system.hardware)
    batch = scan(neighbors, {"n.score": "score"}, executor=executor)
    assert executor._encodings.dictionary(neighbors, "score")._codes is None
    dictionary, _ = batch.key_codes("n.score")
    assert dictionary._codes is not None
    assert dictionary.values.tolist() == np.unique(
        neighbors.column("score")
    ).tolist()
    assert_codes_are_the_inverse(batch, "n.score")
    assert_codes_are_the_inverse(
        batch.take(np.arange(0, neighbors.row_count, 7)), "n.score"
    )


def test_join_codes_one_empty_side():
    left = key_scan("l", np.array([2, 4, 2], dtype=np.int64))
    # No rows at all, and no rows left of a column that has some: the
    # second still merges its dictionary into the domain.
    for right in (
        key_scan("r", np.array([], dtype=np.int64)),
        key_scan("r", np.array([4, 9]), row_ids=np.array([], dtype=np.int64)),
    ):
        lc, rc = joined(left, right)
        assert (lc, rc) == ([0, 1, 0], []) == concatenated_inverse(left, right)
        rc, lc = joined(right, left)
        assert (lc, rc) == ([0, 1, 0], [])


def test_join_codes_sort_free_matches_legacy(city_db):
    """A two-table join through the merged domain and a self-join
    sharing one dictionary, against ``np.unique`` of both sides'
    values concatenated."""
    users, orders = city_db.table("users"), city_db.table("orders")
    executor = Executor(city_db.tables, city_db.system.hardware)
    some_users = np.arange(0, users.row_count, 5)
    some_orders = np.arange(0, orders.row_count, 11)[::-1]
    for column in ("uid", "city"):
        for lrows, rrows in (
            (None, None), (some_users, None), (some_users, some_orders),
        ):
            left = scan(users, {"u.k": column}, lrows, executor)
            right = scan(orders, {"o.k": column}, rrows, executor)
            assert left.key_codes("u.k")[0] is not right.key_codes("o.k")[0]
            assert joined(left, right) == concatenated_inverse(left, right)
        # Self-join: both aliases resolve to one dictionary.
        left = scan(orders, {"a.k": column}, some_orders, executor)
        right = scan(orders, {"b.k": column}, some_orders[:40], executor)
        assert left.key_codes("a.k")[0] is right.key_codes("b.k")[0]
        assert joined(left, right) == concatenated_inverse(left, right)


def test_join_codes_combine_several_key_columns(city_db):
    """Two join columns: equal codes exactly where both values agree."""
    users, orders = city_db.table("users"), city_db.table("orders")
    executor = Executor(city_db.tables, city_db.system.hardware)
    columns = ("uid", "city")
    left = scan(
        users, {f"u.{c}": c for c in columns}, np.arange(0, 500, 9), executor
    )
    right = scan(
        orders, {f"o.{c}": c for c in columns}, np.arange(0, 2500, 13),
        executor,
    )
    lcodes, rcodes = join_codes(
        [left.key_codes(f"u.{c}") for c in columns],
        [right.key_codes(f"o.{c}") for c in columns],
        SubplanCache(DictionaryCache()),
    )
    ltuples = list(zip(*(left.column(f"u.{c}").tolist() for c in columns)))
    rtuples = list(zip(*(right.column(f"o.{c}").tolist() for c in columns)))
    code_of = dict(zip(ltuples, lcodes.tolist()))
    assert len(set(code_of.values())) == len(code_of)
    matches = 0
    for rtuple, rcode in zip(rtuples, rcodes.tolist()):
        assert (rtuple in code_of) == (rcode in code_of.values())
        if rtuple in code_of:
            assert code_of[rtuple] == rcode
            matches += 1
    assert matches


@settings(max_examples=50, deadline=None)
@given(
    left=st.lists(st.integers(0, 12), min_size=0, max_size=40),
    right=st.lists(st.integers(0, 12), min_size=0, max_size=40),
    stride=st.integers(1, 3),
)
def test_property_sort_free_join_matches_legacy(left, right, stride):
    larr = np.array(left, dtype=np.int64)
    rarr = np.array(right, dtype=np.int64)
    lbatch = key_scan("l", larr, row_ids=np.arange(0, len(larr), stride))
    rbatch = key_scan("r", rarr)
    assert joined(lbatch, rbatch) == concatenated_inverse(lbatch, rbatch)


def test_combine_codes_single_array_and_empty_rows():
    only = np.array([1, 1, 0])
    assert combine_codes([only]) is only
    empty = np.array([], dtype=np.int64)
    assert combine_codes([empty, empty]).tolist() == []


def test_combine_codes_overflow_regression():
    """Huge code magnitudes must re-densify instead of wrapping int64.

    Without the guard, ``combined * span`` silently wraps negative and
    rows with distinct key tuples can collide (or index presence arrays
    from the wrong end).
    """
    a = np.array([2**40, 0, 2**40, 7], dtype=np.int64)
    b = np.array([2**40 - 1, 1, 0, 2**40 - 1], dtype=np.int64)
    c = np.array([2**40 - 5, 2, 5, 2**40 - 5], dtype=np.int64)
    combined = combine_codes([a, b, c])
    assert combined.min() >= 0
    tuples = list(zip(a.tolist(), b.tolist(), c.tolist()))
    for i in range(len(tuples)):
        for j in range(len(tuples)):
            assert (combined[i] == combined[j]) == (tuples[i] == tuples[j])
    # Codes stay dense after combining.
    assert sorted(set(combined.tolist())) == list(
        range(len(set(tuples)))
    )


def test_batch_mask_take_preserve_encodings(city_db):
    orders = city_db.table("orders")
    batch = scan(orders, {"o.city": "city", "o.uid": "uid"})
    handle = batch.encodings["o.city"]
    masked = batch.mask(np.arange(orders.row_count) % 2 == 0)
    taken = masked.take(np.array([0, 5]))
    assert masked.encodings["o.city"] is handle
    assert taken.encodings["o.city"] is handle
    # The handle still codes the subset: same base array, new vector.
    assert taken.columns["o.city"] is orders.column("city")
    assert_codes_are_the_inverse(taken, "o.city")
    # A finished batch is plain, decoded data, tied to no dictionary.
    done = taken.materialize()
    assert not done.encodings and not done.sels
    assert done.columns["o.city"].tolist() == orders.decode(
        "city", [0, 10]
    ).tolist()


def test_weighted_count_through_hash_join(city_db_p):
    """A join of two unweighted scans carries no weights; a view's
    weights multiply through one.

    Covers the view-rewrite count semantics at the operator level.
    """
    from repro.optimizer.plans import HashJoin, Project, SeqScan

    db = city_db_p
    users_scan = SeqScan(alias="u", table="users", columns=["uid", "city"])
    orders_scan = SeqScan(alias="o", table="orders", columns=["uid"])
    join = HashJoin(orders_scan, users_scan, ["o.uid"], ["u.uid"])
    # A plan ends in a Project (or an aggregate): the planner builds no
    # other root, and the executor prunes columns against its key list.
    plan = Project(join, ["u.city"])

    executor = Executor(db.tables, db.system.hardware)
    result = executor.run(plan)
    assert result.batch.weights is None
    assert result.batch.rows == db.table("orders").row_count
    assert list(result.batch.columns) == ["u.city"]

    # A view's batch is weighted by its group counts; merged with a
    # plain side the weights ride along, with another weighted side
    # they multiply.
    view, _ = build_view(
        ORDERS_BY_UID, db.tables, db.catalog, DictionaryCache()
    )
    executor._required = frozenset({"o.uid", "u.uid"})
    counted = executor._scan_batch(
        view, {"o.uid": "orders__uid"},
        weights=view.column(COUNT_COLUMN).astype(np.float64),
    )
    plain = executor._scan_batch(db.table("users"), {"u.uid": "uid"})
    positions = np.array([3, 0, 3])
    merged = _merged(counted.take(positions), plain.take(positions))
    assert merged.weights.tolist() == counted.weights[positions].tolist()
    assert merged.column("o.uid").tolist() == view.column("orders__uid")[
        positions
    ].tolist()
    squared = _merged(counted.take(positions), counted.take(positions))
    assert squared.weights.tolist() == (
        counted.weights[positions] ** 2
    ).tolist()


# ----------------------------------------------------------------------
# Two and four bytes a row: a key's raw codes are int16 or int32, and a
# sum, product or shift of codes is computed in int64.  Each site that
# meets raw codes, on tiny int32 inputs whose product passes 2**31 and
# int16 inputs whose product passes 2**15: equal to the same call on
# int64 copies and to a NumPy reference written here.

WIDE = 70_000  # WIDE * WIDE > 2**31
WIDE_CODES = st.sampled_from([0, 1, 2, WIDE - 2, WIDE - 1])
WIDE16 = 200  # WIDE16 * WIDE16 > 2**15
WIDE16_CODES = st.sampled_from([0, 1, 2, WIDE16 - 2, WIDE16 - 1])


def code_columns(rows, wide=WIDE, dtype=np.int32):
    """The columns of ``rows`` (tuples of codes) as ``dtype`` arrays
    that each reach ``wide - 1``."""
    rows = rows + [(wide - 1,) * len(rows[0])]
    return [np.array(column, dtype=dtype) for column in zip(*rows)]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(
    st.tuples(WIDE_CODES, WIDE_CODES, WIDE_CODES), min_size=1, max_size=30,
))
def test_property_combine_codes_widens_int32_codes(rows):
    narrow = code_columns(rows)
    combined = combine_codes(narrow)
    assert combined.dtype == np.int64
    assert all(codes.dtype == np.int32 for codes in narrow)  # untouched
    wide = combine_codes([codes.astype(np.int64) for codes in narrow])
    assert combined.tolist() == wide.tolist()
    _, reference = np.unique(
        np.stack(narrow, axis=1), axis=0, return_inverse=True
    )
    assert combined.tolist() == reference.reshape(-1).tolist()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(
    st.tuples(WIDE16_CODES, WIDE16_CODES, WIDE16_CODES),
    min_size=1, max_size=30,
))
def test_property_combine_codes_widens_int16_codes(rows):
    """Three int16 code columns of 200 values: ``combined * span``
    passes 2**15 at the second column."""
    narrow = code_columns(rows, WIDE16, np.int16)
    combined = combine_codes(narrow)
    assert all(codes.dtype == np.int16 for codes in narrow)  # untouched
    wide = combine_codes([codes.astype(np.int64) for codes in narrow])
    assert combined.dtype == np.int64
    assert combined.tolist() == wide.tolist()
    _, reference = np.unique(
        np.stack(narrow, axis=1), axis=0, return_inverse=True
    )
    assert combined.tolist() == reference.reshape(-1).tolist()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(
    st.tuples(WIDE_CODES, WIDE_CODES), min_size=1, max_size=30,
))
def test_property_count_distinct_widens_int32_codes(rows):
    """70 000 groups x a span of 70 000: ``group * span + value`` keys
    pass 2**31 whichever side is a whole column's raw codes."""
    codes, vcodes = code_columns(rows)
    executor = Executor({}, None)
    got = executor._count_distinct(codes, vcodes, WIDE)
    wide = executor._count_distinct(
        codes.astype(np.int64), vcodes.astype(np.int64), WIDE
    )
    assert got.dtype == np.int64 and got.tolist() == wide.tolist()
    reference = np.zeros(WIDE, dtype=np.int64)
    for group, _ in set(zip(codes.tolist(), vcodes.tolist())):
        reference[group] += 1
    assert got.tolist() == reference.tolist()


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(st.integers(0, 9), min_size=1, max_size=30),
    right=st.lists(st.integers(0, 9), min_size=1, max_size=30),
    picks=st.lists(st.integers(0, 29), max_size=30),
)
def test_property_join_pair_codes_take_int32_codes(left, right, picks):
    """Both arms — one shared dictionary, two dictionaries through the
    domain maps — hand back int64 ranks for int16 codes (what these
    dictionaries hold) and int32 ones, whole columns and subsets
    alike."""
    left, right = np.array(left) * 7, np.array(right) * 7 + 21
    left_dict, right_dict = ColumnDictionary(left), ColumnDictionary(right)
    sel = np.array([p for p in picks if p < len(left)], dtype=np.int64)
    for (ldict, lcodes, lvalues), (rdict, rcodes, rvalues) in (
        ((left_dict, left_dict.codes, left),
         (left_dict, left_dict.codes[sel], left[sel])),
        ((left_dict, left_dict.codes[sel], left[sel]),
         (right_dict, right_dict.codes, right)),
    ):
        assert lcodes.dtype == rcodes.dtype == np.int16
        reference = inverse(np.concatenate([lvalues, rvalues]))
        for dtype in (np.int16, np.int32, np.int64):
            got = _join_pair_codes(
                (ldict, lcodes.astype(dtype)), (rdict, rcodes.astype(dtype)),
                SubplanCache(DictionaryCache()),
            )
            assert got[0].dtype == got[1].dtype == np.int64
            assert [*got[0].tolist(), *got[1].tolist()] == reference


@settings(max_examples=60, deadline=None)
@given(
    column=st.lists(st.integers(0, 9), min_size=1, max_size=40),
    allowed=st.lists(st.integers(-2, 12), max_size=8, unique=True),
)
def test_property_member_flags_index_with_int32_codes(column, allowed):
    column = np.array(column)
    dictionary = ColumnDictionary(column)
    values = np.array(sorted(allowed), dtype=np.int64)
    flags = _member_flags(
        dictionary, slot_map(ColumnDictionary(values), dictionary)
    )
    assert dictionary.codes.dtype == code_dtype_of(dictionary.n_distinct)
    assert flags[dictionary.codes].tolist() == np.isin(
        column, values
    ).tolist()


# ----------------------------------------------------------------------
# The join domain of two dictionaries: a merge, not a sort

MERGE_DOMAINS = {
    "int": np.array([-(10 ** 6), -1, 0, 1, 2, 3, 10 ** 6]),
    "float": np.array([-1e9, -0.5, 0.0, 0.25, 0.5, 2.0, 1e9]),
    "str": np.array(["", "a", "ab", "b", "m", "zz", "zzzz"], dtype=object),
}
PICKS = st.lists(st.integers(0, 6), max_size=12)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(MERGE_DOMAINS)), left=PICKS, right=PICKS)
@example(kind="str", left=[0, 1, 2], right=[4, 5, 6])     # disjoint
@example(kind="int", left=[4, 5, 6], right=[0, 1, 2])     # disjoint, after
@example(kind="float", left=[0, 2, 3, 6], right=[2, 3])   # nested
@example(kind="str", left=[2, 3], right=[0, 2, 3, 6])     # nested, inside
@example(kind="int", left=[1, 3, 5], right=[5, 3, 1])     # equal
@example(kind="str", left=[], right=[])                   # both empty
def test_property_merged_domain_is_the_union1d_triple(kind, left, right):
    domain = MERGE_DOMAINS[kind]
    left_dict = ColumnDictionary(domain[np.array(left, dtype=np.int64)])
    right_dict = ColumnDictionary(domain[np.array(right, dtype=np.int64)])
    size, left_map, right_map = _merged_domain(left_dict, right_dict)
    merged = np.union1d(left_dict.values, right_dict.values)
    assert size == len(merged)
    for got, values in (
        (left_map, left_dict.values), (right_map, right_dict.values),
    ):
        want = np.searchsorted(merged, values)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


# ----------------------------------------------------------------------
# Shared domains: merges, slot tables and index probes on codes.
#
# Columns drawn from one pool ("sorted", "unsorted") share the pool's
# domain and take the integer branch.  The object branch is taken by a
# column loaded without its pool ("loose").  A self-join of one column
# ("self") maps no code.

SHARED_POOLS = {
    "sorted": np.array(["", "a", "ab", "b", "m", "zz"], dtype=object),
    "unsorted": np.array(["m", "b", "zz", "", "b", "ab", "a"], dtype=object),
}
SHAPES = ("sorted", "unsorted", "loose", "self")
KEY_PICKS = st.lists(st.integers(0, 10**6), max_size=30)


def pooled_key_table(hashed, name, pool, picks):
    """``key_table`` drawn from ``pool``, encoded off its pool indices
    (``hashed`` memoizes the pool's hash)."""
    rows = np.array([p % len(pool) for p in picks], dtype=np.int32)
    return key_table(name, ColumnDictionary.from_pool(pool, rows, hashed))


def shared_pair(shape, inner, outer):
    """``(cache, inner table, outer table)`` of one input shape."""
    cache, hashed = DictionaryCache(), {}
    pool = SHARED_POOLS["unsorted" if shape == "unsorted" else "sorted"]
    inner_table = pooled_key_table(hashed, "inner", pool, inner)
    if shape == "self":
        outer_table = inner_table
    elif shape == "loose":
        outer_table = key_table("outer", pool[[p % len(pool) for p in outer]])
    else:
        outer_table = pooled_key_table(hashed, "outer", pool, outer)
    return cache, inner_table, outer_table


def objects_only(dictionary):
    """The same column's dictionary with no shared domain: its values
    encoded again."""
    return ColumnDictionary(dictionary.values[dictionary.codes])


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(SHAPES), inner=KEY_PICKS, outer=KEY_PICKS)
@example(shape="sorted", inner=[], outer=[])              # both empty
@example(shape="unsorted", inner=[0, 1, 4], outer=[])     # one empty
def test_property_shared_domain_merge_equals_the_find_merge(
        shape, inner, outer):
    cache, inner_table, outer_table = shared_pair(shape, inner, outer)
    a = cache.dictionary(outer_table, "k")
    b = cache.dictionary(inner_table, "k")
    assert (a.domain is b.domain) == (shape != "loose")
    got = _merged_domain(a, b)
    want = _merged_domain(objects_only(a), objects_only(b))
    assert got[0] == want[0]
    for have, expected in zip(got[1:], want[1:]):
        assert have.dtype == expected.dtype
        assert have.tolist() == expected.tolist()


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(SHAPES), inner=KEY_PICKS, outer=KEY_PICKS)
@example(shape="unsorted", inner=[], outer=[2, 3])        # empty target
def test_property_slot_tables_equal_slot_map(shape, inner, outer):
    cache, inner_table, outer_table = shared_pair(shape, inner, outer)
    executor = Executor({}, None, encodings=cache)
    own = cache.dictionary(outer_table, "k")
    other = cache.dictionary(inner_table, "k")
    want = slot_map(objects_only(own), objects_only(other)).tolist()
    entries = np.arange(own.n_distinct)
    for _ in range(2):   # built, then served by the domain kind
        assert executor._slots(own, entries, other).tolist() == want
    tables = executor._subplans._kinds["domain"][0]
    assert len(tables) == (own.values is not other.values)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(SHAPES), inner=KEY_PICKS, outer=KEY_PICKS,
    probe=st.lists(st.integers(0, 10**6), max_size=20),
    semijoin=st.booleans(), unpickled=st.booleans(),
)
@example(shape="sorted", inner=[], outer=[1, 2], probe=[0, 1],
         semijoin=False, unpickled=False)                 # empty index
@example(shape="self", inner=[3, 3, 1], outer=[], probe=[2, 0, 2],
         semijoin=False, unpickled=True)
def test_property_index_probes_on_codes_equal_literal_ranges(
        shape, inner, outer, probe, semijoin, unpickled):
    """An INL probe (outer rows' codes, repeats and all) or a semijoin
    probe (allowed entries' codes, in value order) finds the same
    entries through the slot table as bisecting the values does —
    also on an index unpickled apart from its table and re-linked to
    its leading column's dictionary."""
    cache, inner_table, outer_table = shared_pair(shape, inner, outer)
    data = IndexData(
        IndexDefinition(table="inner", columns=("k",)), inner_table, cache
    )
    if unpickled:
        cache = DictionaryCache()
        data = pickle.loads(pickle.dumps(data))
        leading = cache.dictionary(inner_table, "k")
        data.relink(leading)
        assert data.values is leading.values
    dictionary = cache.dictionary(outer_table, "k")
    if semijoin:
        codes = np.flatnonzero(
            np.isin(np.arange(dictionary.n_distinct), probe)
        )
    else:
        rows = [p % dictionary.row_count for p in probe
                if dictionary.row_count]
        codes = dictionary.codes[np.array(rows, dtype=np.int64)]
    executor = Executor({"inner": inner_table}, None, encodings=cache)
    lows, highs = executor._index_ranges(inner_table, data, dictionary, codes)
    want_lows, want_highs = data.ranges(dictionary.values[codes])
    assert (highs - lows).tolist() == (want_highs - want_lows).tolist()
    hit = highs > lows
    assert lows[hit].tolist() == want_lows[hit].tolist()
    for got, want in zip(data.fetch(lows, highs),
                         data.fetch(want_lows, want_highs)):
        assert got.tolist() == want.tolist()


def test_unpickled_database_relinks_its_index_values(tiny_nref):
    """The artifact store's path: every restored index shares its
    leading column's rebuilt dictionary's values, and an index that
    does not match its column refuses the link."""
    restored = pickle.loads(pickle.dumps(tiny_nref))
    cache = restored._cache("dict_cache")
    indexes = restored._built.index_data.values()
    assert indexes
    for data in indexes:
        leading = cache.dictionary(
            restored.table(data.definition.table), data.definition.columns[0]
        )
        assert data.values is leading.values
    data = next(iter(indexes))
    other = cache.dictionary(restored.table("source"), "source")
    with pytest.raises(pickle.UnpicklingError):
        data.relink(other)
