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


# ----------------------------------------------------------------------
# Subplan cache


def test_subplan_cache_hit_requires_identical_backing():
    cache = SubplanCache()
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
    cache = SubplanCache()
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
    cache = SubplanCache()
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
    cache = SubplanCache()
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
