"""B+-tree unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btree import BPlusTree


def test_empty_tree():
    tree = BPlusTree()
    assert len(tree) == 0
    assert tree.height == 1
    assert tree.search((1,)) == []
    assert list(tree.items()) == []


def test_bulk_load_roundtrip():
    entries = [((i,), i * 10) for i in range(1000)]
    tree = BPlusTree.bulk_load(entries, order=8)
    tree.check_invariants()
    assert len(tree) == 1000
    assert tree.height > 1
    assert [v for _, v in tree.items()] == [i * 10 for i in range(1000)]
    for i in (0, 1, 499, 999):
        assert tree.search((i,)) == [i * 10]
    assert tree.search((1000,)) == []


def test_bulk_load_rejects_unsorted():
    with pytest.raises(ValueError):
        BPlusTree.bulk_load([((2,), 0), ((1,), 1)])


def test_duplicates_are_preserved():
    entries = sorted([((5,), i) for i in range(20)] + [((3,), 99)])
    tree = BPlusTree.bulk_load(entries, order=4)
    assert sorted(tree.search((5,))) == list(range(20))
    assert tree.search((3,)) == [99]


def test_insert_grows_and_splits():
    tree = BPlusTree(order=4)
    for i in range(200):
        tree.insert((i % 37, i), i)
    tree.check_invariants()
    assert len(tree) == 200
    assert tree.height >= 3


def test_range_scan_bounds():
    tree = BPlusTree.bulk_load([((i,), i) for i in range(100)], order=8)
    got = [k[0] for k, _ in tree.range_scan(low=(10,), high=(20,))]
    assert got == list(range(10, 21))
    assert [k for k, _ in tree.range_scan(low=(95,))] == [
        (i,) for i in range(95, 100)
    ]
    assert [k for k, _ in tree.range_scan(high=(3,))] == [
        (i,) for i in range(4)
    ]


def test_composite_keys_order():
    entries = sorted(
        [((a, b), a * 10 + b) for a in range(5) for b in range(5)]
    )
    tree = BPlusTree.bulk_load(entries, order=4)
    tree.check_invariants()
    assert tree.search((2, 3)) == [23]
    got = [k for k, _ in tree.range_scan(low=(1, 3), high=(2, 1))]
    assert got == [(1, 3), (1, 4), (2, 0), (2, 1)]


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(-1000, 1000), min_size=0, max_size=300),
    order=st.integers(4, 32),
)
def test_property_insert_matches_sorted(keys, order):
    """Inserting any key sequence yields a sorted, invariant-clean tree."""
    tree = BPlusTree(order=order)
    for pos, key in enumerate(keys):
        tree.insert((key,), pos)
    tree.check_invariants()
    got = [k[0] for k, _ in tree.items()]
    assert got == sorted(keys)
    for key in set(keys):
        expected = sorted(pos for pos, k in enumerate(keys) if k == key)
        assert sorted(tree.search((key,))) == expected


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 500),
    order=st.integers(4, 64),
)
def test_property_bulk_load_equals_insert(n, order):
    """Bulk loading and inserting the same entries agree item-for-item."""
    rng = np.random.default_rng(n)
    keys = rng.integers(0, max(1, n // 2) + 1, n)
    entries = sorted(((int(k),), i) for i, k in enumerate(keys))
    bulk = BPlusTree.bulk_load(entries, order=order)
    incremental = BPlusTree(order=order)
    for key, value in sorted(entries, key=lambda e: e[1]):
        incremental.insert(key, value)
    bulk.check_invariants()
    incremental.check_invariants()
    assert sorted(bulk.items()) == sorted(incremental.items())
