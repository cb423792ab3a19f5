"""Remaining index size/geometry math."""


from repro.common.hardware import PAGE_SIZE
from repro.index.definition import (
    IndexDefinition,
    ROWID_WIDTH,
    estimate_index_size,
)


def test_index_names_stable_and_distinct():
    a = IndexDefinition(table="t", columns=("x",))
    b = IndexDefinition(table="t", columns=("x", "y"))
    pk = IndexDefinition(table="t", columns=("x",), is_primary=True)
    assert a.name == "ix_t__x"
    assert b.name == "ix_t__x_y"
    assert pk.name == "pk_t__x"
    assert len({a.name, b.name, pk.name}) == 3


def test_entries_per_leaf_math():
    size = estimate_index_size(10_000, key_width=8)
    per_leaf = PAGE_SIZE // (8 + ROWID_WIDTH + 4)
    assert size.leaf_pages == -(-10_000 // per_leaf)
    assert size.entries == 10_000


def test_height_grows_logarithmically():
    h_small = estimate_index_size(100, 8).height
    h_big = estimate_index_size(50_000_000, 8).height
    assert h_small <= 2
    assert 2 <= h_big <= 5


def test_zero_row_index():
    size = estimate_index_size(0, 8)
    assert size.leaf_pages == 1
    assert size.height == 1
    assert size.byte_size >= PAGE_SIZE


def test_wide_keys_fit_fewer_entries():
    narrow = estimate_index_size(100_000, 8)
    wide = estimate_index_size(100_000, 120)
    assert wide.leaf_pages > narrow.leaf_pages
    assert wide.byte_size > narrow.byte_size
