"""Cross-query optimization: the subplan cache.

The contract under test: the cache may only change *when* work
happens, never *what* it produces, and an entry is only ever served
for the storage arrays it was computed from.
"""

import numpy as np
import pytest

from repro.executor.subplan import (
    MAX_DOMAIN_ENTRIES,
    MAX_KEY_ENTRIES,
    MAX_MASK_ENTRIES,
    SubplanCache,
)
from repro.storage.encoding import DictionaryCache


# ----------------------------------------------------------------------
# Subplan cache


def test_subplan_cache_hit_requires_identical_backing():
    cache = SubplanCache(DictionaryCache())
    base = np.arange(10)
    builds = []

    def build():
        builds.append(1)
        return base * 2

    first = cache.filter_mask("k", (base,), build)
    second = cache.filter_mask("k", (base,), build)
    assert first is second
    assert len(builds) == 1
    # An equal but distinct array is treated as new data: rebuild.
    cache.filter_mask("k", (base.copy(),), build)
    assert len(builds) == 2


def test_subplan_cache_invalidate_clears_every_kind():
    cache = SubplanCache(DictionaryCache())
    base = np.arange(4)
    cache.filter_mask("m", (base,), lambda: 2)
    cache.join_domain("d", (base,), lambda: 3)
    cache.key_table("t", (base,), lambda: 4)
    cache.invalidate()
    builds = []
    cache.filter_mask("m", (base,), lambda: builds.append(1))
    cache.join_domain("d", (base,), lambda: builds.append(1))
    cache.key_table("t", (base,), lambda: builds.append(1))
    assert len(builds) == 3
    assert cache.stats.invalidations == 1


def test_subplan_entry_is_a_miss_after_its_array_is_replaced():
    """``append_rows`` and reloads put a new array under the same key:
    the entry computed from the old one must not be served, and the
    rebuilt one takes its place."""
    cache = SubplanCache(DictionaryCache())
    old, new = np.arange(5), np.arange(6)
    assert cache.filter_mask("m", (old,), lambda: "old") == "old"
    assert cache.filter_mask("m", (new,), lambda: "new") == "new"
    assert cache.filter_mask("m", (new,), lambda: "again") == "new"
    # A different number of backing arrays never matches either.
    assert cache.filter_mask("m", (new, new), lambda: "two") == "two"
    stats = cache.stats
    assert (stats.hits, stats.misses) == (1, 3)


@pytest.mark.parametrize("kind, bound", [
    ("filter_mask", MAX_MASK_ENTRIES),
    ("join_domain", MAX_DOMAIN_ENTRIES),
    ("key_table", MAX_KEY_ENTRIES),
])
def test_subplan_eviction_respects_each_kind_bound(kind, bound):
    cache = SubplanCache(DictionaryCache())
    base = np.arange(3)
    lookup = getattr(cache, kind)
    for key in range(bound + 5):
        lookup(key, (base,), lambda: key)
    assert cache.stats.evictions == 5
    # The five oldest keys were evicted; the newest are still served.
    assert lookup(0, (base,), lambda: "rebuilt") == "rebuilt"
    assert lookup(bound + 4, (base,), lambda: "rebuilt") == bound + 4
    # Filling one kind leaves the others empty.
    others = {"filter_mask", "join_domain", "key_table"}
    others.discard(kind)
    for other in others:
        assert getattr(cache, other)(0, (base,), lambda: "fresh") == "fresh"


def test_invalidate_keeps_a_domain_of_two_live_dictionaries(city_db):
    """A join domain depends on the two ``values`` arrays alone: the
    sweep keeps it while both are live dictionary values, and drops
    it — with every mask and key table — once one is not."""
    cache = city_db._cache("subplan_cache")
    users = city_db.column_dictionary("users", "city")
    orders = city_db.column_dictionary("orders", "city")
    backing = (users.values, orders.values)
    builds = []
    cache.join_domain("d", backing, lambda: builds.append(1))
    cache.filter_mask("m", (users.base,), lambda: builds.append(1))
    city_db.invalidate_caches()
    cache.join_domain("d", backing, lambda: builds.append(1))
    cache.filter_mask("m", (users.base,), lambda: builds.append(1))
    assert len(builds) == 3
    # A new value replaces the users dictionary's values array.
    city_db.insert_rows(
        "users", {"uid": [10_000], "city": ["yyz"], "age": [40]}
    )
    assert city_db.column_dictionary("users", "city").values \
        is not users.values
    assert len(cache._kinds["domain"][0]) == 0
    cache.join_domain("d", backing, lambda: builds.append(1))
    assert len(builds) == 4


@pytest.mark.parametrize("city, builds", [("tor", 0), ("yyz", 1)])
def test_insert_without_a_new_key_value_keeps_the_join_domain(city, builds):
    """After an insert that brings the join key no new value, the
    burst's first join hits the domain merged before it, and answers
    with the rows and virtual seconds of a freshly loaded database; a
    new value rebuilds the domain."""
    from repro import obs
    from repro.engine.configuration import one_column_configuration

    from conftest import load_city_database

    sql = ("SELECT orders.oid FROM users, orders "
           "WHERE users.city = orders.city AND users.age = 30")
    db = load_city_database()
    db.apply_configuration(one_column_configuration(db.catalog))
    db.execute(sql)
    db.insert_rows("orders", {
        "oid": [90_000, 90_001], "uid": [3, 499],
        "city": np.array([city, "mtl"], dtype=object), "amount": [1, 99],
    })
    with obs.recording(obs.TraceRecorder()) as recorder:
        got = db.execute(sql)
    counters = recorder.metrics.snapshot()["counters"]
    assert counters.get("subplan.domain_builds", 0) == builds
    assert counters.get("subplan.domain_hits", 0) == 1 - builds
    # The same rows loaded from scratch, under the same statistics
    # (an insert does not recollect them, and a load keeps them).
    fresh = load_city_database()
    fresh.load_table("orders", {
        name: db.table("orders").decode(name).copy()
        for name in ("oid", "uid", "city", "amount")
    })
    fresh.apply_configuration(one_column_configuration(fresh.catalog))
    want = fresh.execute(sql)
    assert got.rows() == want.rows()
    assert got.elapsed == want.elapsed
