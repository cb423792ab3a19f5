"""Late-materialization executor: selection-vector batches, plan-time
column pruning, and fused predicate kernels."""

import numpy as np

from repro import obs
from repro.engine.configuration import primary_configuration
from repro.executor.batch import Batch
from repro.executor.engine import Executor
from repro.common.cache import BoundedCache
from repro.executor.kernels import MAX_KERNELS, fused_filter
from repro.optimizer.plans import ScanFilter


def make_lazy_batch(n=10):
    return Batch(
        columns={
            "t.a": np.arange(n, dtype=np.int64),
            "t.b": np.arange(n, dtype=np.int64) * 10,
        },
        widths={"t.a": 8, "t.b": 8},
    )


# ----------------------------------------------------------------------
# Selection-vector batches

def test_lazy_mask_defers_gather():
    batch = make_lazy_batch(10)
    base_a = batch.columns["t.a"]
    keep = np.array([True, False] * 5)
    masked = batch.mask(keep)
    # The payload array is untouched: same base object, sel pending.
    assert masked.columns["t.a"] is base_a
    assert masked.selected("t.a") and masked.selected("t.b")
    assert masked.rows == 5
    # Reading the column gathers beside the base array: the key stays
    # (base, selection vector) for the life of the batch.
    assert masked.column("t.a").tolist() == [0, 2, 4, 6, 8]
    assert masked.columns["t.a"] is base_a
    assert masked.selected("t.a") and masked.selected("t.b")


def test_sel_composition_mask_then_take():
    batch = make_lazy_batch(10)
    masked = batch.mask(np.array([True, False] * 5))   # rows 0,2,4,6,8
    taken = masked.take(np.array([4, 4, 0]))           # rows 8,8,0
    assert taken.rows == 3
    assert taken.columns["t.a"] is batch.columns["t.a"]
    assert taken.column("t.a").tolist() == [8, 8, 0]
    assert taken.column("t.b").tolist() == [80, 80, 0]


def test_column_gather_is_memoized():
    batch = make_lazy_batch(8).mask(np.arange(8) % 2 == 0)
    first = batch.column("t.a")
    second = batch.column("t.a")
    assert first is second


def test_gather_counters_emitted():
    batch = make_lazy_batch(10)
    with obs.recording() as recorder:
        batch.mask(np.array([True] * 4 + [False] * 6))
    counters = recorder.metrics.snapshot().get("counters", {})
    assert counters.get("executor.gathers_deferred") == 2
    # 4 surviving rows x 8 bytes x 2 deferred columns.
    assert counters.get("executor.gather_bytes_avoided") == 64


def test_materialize_gathers_everything():
    batch = make_lazy_batch(6).mask(np.arange(6) < 3)
    out = batch.materialize()
    assert out is batch and not out.sels
    assert out.columns["t.a"].tolist() == [0, 1, 2]


def test_row_width_counts_all_plan_columns():
    """Pruned/unread columns still contribute to ``row_width`` — the
    cost model must see the representation-independent tuple width."""
    batch = Batch(
        columns={"t.a": np.arange(4, dtype=np.int64)},
        widths={"t.a": 8, "t.unattached": 24},
    )
    assert batch.row_width == 8 + 24 + 8  # + weight slot


# ----------------------------------------------------------------------
# Explicit weights

def test_weight_array_copies_explicit_weights():
    batch = make_lazy_batch(4)
    batch.weights = np.array([2.0, 3.0, 4.0, 5.0])
    out = batch.weight_array()
    assert out.tolist() == [2.0, 3.0, 4.0, 5.0]
    assert out is not batch.weights and out.flags.writeable


# ----------------------------------------------------------------------
# Fused predicate kernels

def kernel_cache():
    return BoundedCache("kernel_cache", MAX_KERNELS)


def test_fused_kernel_reused_across_literals():
    cache = kernel_cache()
    shape_a = [ScanFilter("t.a", "a", ">", 2), ScanFilter("t.b", "b", "<=", 60)]
    shape_b = [ScanFilter("t.a", "a", ">", 5), ScanFilter("t.b", "b", "<=", 90)]
    with obs.recording() as recorder:
        k1 = fused_filter(cache, "t", shape_a)
        k2 = fused_filter(cache, "t", shape_b)
    # Same (table, filter-structure) key: literals bind at call time.
    assert k1 is k2
    counters = recorder.metrics.snapshot().get("counters", {})
    assert counters.get("cache.kernel_cache.misses") == 1
    assert counters.get("cache.kernel_cache.hits") == 1

    a = np.arange(10, dtype=np.int64)
    b = a * 10
    keep = k1([a, b], [2, 60])
    assert keep.tolist() == ((a > 2) & (b <= 60)).tolist()
    keep = k1([a[3:], b[3:]], [5, 90])
    assert keep.tolist() == ((a[3:] > 5) & (b[3:] <= 90)).tolist()


def test_fused_kernel_distinct_structure_compiles_again():
    cache = kernel_cache()
    fused_filter(cache, "t", [ScanFilter("t.a", "a", "=", 1)])
    fused_filter(cache, "t", [ScanFilter("t.a", "a", "<", 1)])
    fused_filter(cache, "u", [ScanFilter("u.a", "a", "=", 1)])
    snapshot = cache.stats.snapshot()
    assert snapshot["misses"] == 3 and snapshot["hits"] == 0


def test_kernel_cache_invalidate():
    cache = kernel_cache()
    filters = [ScanFilter("t.a", "a", "=", 1)]
    fused_filter(cache, "t", filters)
    cache.invalidate()
    fused_filter(cache, "t", filters)
    assert cache.stats.snapshot()["misses"] == 2


# ----------------------------------------------------------------------
# Identity fast-path routing (_identity_specs edge cases)

def make_executor(db):
    return Executor(db.tables, db.system.hardware)


def base_batch(table, alias, columns):
    return Batch(
        columns={f"{alias}.{c}": table.column(c) for c in columns},
        widths={f"{alias}.{c}": 8 for c in columns},
    )


def test_identity_specs_full_base_batch(city_db):
    executor = make_executor(city_db)
    users = city_db.table("users")
    batch = base_batch(users, "u", ["age", "city"])
    filters = [ScanFilter("u.age", "age", "=", 30)]
    specs = executor._identity_specs(batch, filters, users, "u")
    assert specs == [("age", "=", 30)]


def test_identity_specs_rejects_masked_batch(city_db):
    executor = make_executor(city_db)
    users = city_db.table("users")
    batch = base_batch(users, "u", ["age"])
    masked = batch.mask(np.zeros(batch.rows, dtype=bool) | True)
    # Even an all-true mask, once read, leaves a gathered copy beside
    # the base array: the batch no longer stands for the full table.
    assert masked.column("u.age") is not users.column("age")
    filters = [ScanFilter("u.age", "age", "=", 30)]
    assert executor._identity_specs(masked, filters, users, "u") is None


def test_identity_specs_rejects_pending_selection(city_db):
    executor = make_executor(city_db)
    users = city_db.table("users")
    batch = base_batch(users, "u", ["age"])
    masked = batch.mask(np.ones(batch.rows, dtype=bool))
    # The base array is still attached, but a sel is pending: the
    # batch no longer stands for the full table.
    assert masked.columns["u.age"] is users.column("age")
    filters = [ScanFilter("u.age", "age", "=", 30)]
    assert executor._identity_specs(masked, filters, users, "u") is None


def test_identity_specs_rejects_computed_column(city_db):
    executor = make_executor(city_db)
    users = city_db.table("users")
    batch = base_batch(users, "u", ["age"])
    # A renamed/computed/view-backed column: equal values, different
    # array — never the table's storage, so no mask-cache shortcut.
    batch.columns["u.age"] = users.column("age").copy()
    filters = [ScanFilter("u.age", "age", "=", 30)]
    assert executor._identity_specs(batch, filters, users, "u") is None


def test_identity_specs_rejects_foreign_alias(city_db):
    executor = make_executor(city_db)
    users = city_db.table("users")
    batch = base_batch(users, "u", ["age"])
    batch.columns["o.uid"] = users.column("uid")
    filters = [
        ScanFilter("u.age", "age", "=", 30),
        ScanFilter("o.uid", "uid", "=", 5),
    ]
    assert executor._identity_specs(batch, filters, users, "u") is None


# ----------------------------------------------------------------------
# End-to-end counters

FILTER_SQL = (
    "SELECT u.city, COUNT(*) FROM users u WHERE u.age = 30 GROUP BY u.city"
)


def test_columns_pruned_on_index_scan(city_db):
    city_db.apply_configuration(primary_configuration(city_db.catalog))
    sql = (
        "SELECT o.amount, COUNT(*) FROM orders o WHERE o.oid = 5 "
        "GROUP BY o.amount"
    )
    with obs.recording() as recorder:
        result = city_db.execute(sql)
    counters = recorder.metrics.snapshot().get("counters", {})
    # The oid prefix key is resolved by the index descend; the scan
    # never needs the column and the pruning pass drops it.
    assert counters.get("executor.columns_pruned", 0) >= 1
    assert sorted(result.rows()) == [
        (amount, 1) for amount in sorted(
            a for a, o in zip(
                city_db.table("orders").column("amount"),
                city_db.table("orders").column("oid"),
            ) if o == 5
        )
    ]


def test_deferred_gathers_on_filter_query(city_db):
    city_db.apply_configuration(primary_configuration(city_db.catalog))
    with obs.recording() as recorder:
        city_db.execute(FILTER_SQL)
    counters = recorder.metrics.snapshot().get("counters", {})
    assert counters.get("executor.gathers_deferred", 0) > 0
    assert counters.get("executor.gather_bytes_avoided", 0) > 0
    assert counters.get("cache.kernel_cache.misses", 0) \
        + counters.get("cache.kernel_cache.hits", 0) > 0
