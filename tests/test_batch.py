"""Batch utilities: masks, takes, weights, code factorization."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.batch import (
    Batch,
    combine_codes,
    factorize,
    join_codes,
)


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


def test_weight_array_defaults_to_ones():
    batch = make_batch(4)
    assert batch.weight_array().tolist() == [1.0] * 4


def test_factorize_dense_codes():
    codes = factorize(np.array(["b", "a", "b", "c"], dtype=object))
    assert codes.max() == 2
    assert codes[0] == codes[2]
    assert len(set(codes.tolist())) == 3


def test_combine_codes_joint_groups():
    a = factorize(np.array([0, 0, 1, 1]))
    b = factorize(np.array([0, 1, 0, 1]))
    combined = combine_codes([a, b])
    assert len(set(combined.tolist())) == 4


def test_join_codes_equality_semantics():
    left = [np.array(["x", "y", "z"], dtype=object)]
    right = [np.array(["y", "y", "w"], dtype=object)]
    lc, rc = join_codes(left, right)
    assert lc[1] == rc[0] == rc[1]
    assert lc[0] not in set(rc.tolist())


@settings(max_examples=50, deadline=None)
@given(
    left=st.lists(st.integers(0, 10), min_size=1, max_size=50),
    right=st.lists(st.integers(0, 10), min_size=1, max_size=50),
)
def test_property_join_codes_match_values(left, right):
    """Code equality across sides is exactly value equality."""
    lc, rc = join_codes(
        [np.array(left)], [np.array(right)]
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
    combined = combine_codes([factorize(a) for a in arrays])
    tuples = list(zip(*(a.tolist() for a in arrays)))
    for i in range(rows):
        for j in range(rows):
            assert (combined[i] == combined[j]) == (
                tuples[i] == tuples[j]
            )


def test_factorize_empty_and_single_value():
    assert factorize(np.array([], dtype=np.int64)).tolist() == []
    assert factorize(np.array([], dtype=object)).tolist() == []
    codes = factorize(np.array(["only"] * 4, dtype=object))
    assert codes.tolist() == [0, 0, 0, 0]


def test_factorize_with_encoding_matches_legacy():
    from repro.storage.encoding import ColumnDictionary

    base = np.array([7, 3, 7, 1, 3, 3, 9], dtype=np.int64)
    d = ColumnDictionary(base)
    assert factorize(base, d).tolist() == factorize(base).tolist()
    subset = base[np.array([0, 2, 4, 5])]
    assert factorize(subset, d).tolist() == factorize(subset).tolist()
    empty = base[:0]
    assert factorize(empty, d).tolist() == []
    single = base[np.array([3])]
    assert factorize(single, d).tolist() == [0]


def test_join_codes_one_empty_side():
    from repro.storage.encoding import ColumnDictionary

    left = np.array([2, 4, 2], dtype=np.int64)
    right = np.array([], dtype=np.int64)
    lc, rc = join_codes([left], [right])
    assert len(rc) == 0 and len(set(lc.tolist())) == 2
    ld, rd = ColumnDictionary(left), ColumnDictionary(np.array([4]))
    lc2, rc2 = join_codes(
        [left], [right], left_encodings=[ld], right_encodings=[rd]
    )
    assert lc2.tolist() == lc.tolist() and len(rc2) == 0


def test_join_codes_sort_free_matches_legacy():
    from repro.storage.encoding import ColumnDictionary

    lbase = np.array(["x", "y", "z", "y"], dtype=object)
    rbase = np.array(["y", "w", "y", "q"], dtype=object)
    ld, rd = ColumnDictionary(lbase), ColumnDictionary(rbase)
    legacy = join_codes([lbase], [rbase])
    fast = join_codes(
        [lbase], [rbase], left_encodings=[ld], right_encodings=[rd]
    )
    assert fast[0].tolist() == legacy[0].tolist()
    assert fast[1].tolist() == legacy[1].tolist()
    # Shared dictionary (self-join): same contract.
    self_legacy = join_codes([lbase], [lbase[:2]])
    self_fast = join_codes(
        [lbase], [lbase[:2]], left_encodings=[ld], right_encodings=[ld]
    )
    assert self_fast[0].tolist() == self_legacy[0].tolist()
    assert self_fast[1].tolist() == self_legacy[1].tolist()


@settings(max_examples=50, deadline=None)
@given(
    left=st.lists(st.integers(0, 12), min_size=0, max_size=40),
    right=st.lists(st.integers(0, 12), min_size=0, max_size=40),
)
def test_property_sort_free_join_matches_legacy(left, right):
    from repro.storage.encoding import ColumnDictionary

    larr = np.array(left, dtype=np.int64)
    rarr = np.array(right, dtype=np.int64)
    if len(larr) == 0 or len(rarr) == 0:
        return
    legacy = join_codes([larr], [rarr])
    fast = join_codes(
        [larr], [rarr],
        left_encodings=[ColumnDictionary(larr)],
        right_encodings=[ColumnDictionary(rarr)],
    )
    assert fast[0].tolist() == legacy[0].tolist()
    assert fast[1].tolist() == legacy[1].tolist()


def test_combine_codes_single_array_and_empty_rows():
    only = factorize(np.array([5, 5, 2]))
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


def test_batch_mask_take_preserve_encodings():
    from repro.storage.encoding import ColumnDictionary

    batch = make_batch(6)
    d = ColumnDictionary(batch.columns["t.b"])
    batch.encodings["t.b"] = d
    masked = batch.mask(np.array([True, False] * 3))
    taken = batch.take(np.array([0, 5]))
    assert masked.encodings["t.b"] is d
    assert taken.encodings["t.b"] is d
    # The propagated encoding still factorizes the subset correctly.
    assert factorize(
        masked.column("t.b"), masked.encodings["t.b"]
    ).tolist() == factorize(masked.column("t.b")).tolist()


def test_weighted_count_through_hash_join(city_db_p):
    """A weighted batch joined against a plain one multiplies weights.

    Covers the view-rewrite count semantics at the operator level.
    """
    from repro.executor.engine import Executor
    from repro.optimizer.plans import HashJoin, PlanEstimate, SeqScan
    import repro.optimizer.plans as plans

    db = city_db_p
    users_scan = SeqScan(alias="u", table="users", columns=["uid", "city"])
    users_scan.est = PlanEstimate(1, 1, 1)
    orders_scan = SeqScan(alias="o", table="orders", columns=["uid"])
    orders_scan.est = PlanEstimate(1, 1, 1)
    join = HashJoin(orders_scan, users_scan, ["o.uid"], ["u.uid"])
    join.est = PlanEstimate(1, 1, 1)
    agg = plans.HashAggregate(join, ["u.city"], [])
    del agg

    executor = Executor(db.tables, db.system.hardware)
    result = executor.run(join)
    assert result.batch.weights is None

    # Now inject weights on the probe side and re-run manually.
    batch = result.batch
    assert batch.rows > 0
