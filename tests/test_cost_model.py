"""Cost model unit and property tests.

The cost model is shared between the estimator and the executor, so its
monotonicity and non-negativity properties are what make A/E comparisons
meaningful.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hardware import desktop_2004
from repro.optimizer import cost_model as cm

HW = desktop_2004()


def test_seq_scan_scales_with_pages():
    assert cm.seq_scan(HW, 100, 1000) < cm.seq_scan(HW, 200, 1000)
    assert cm.seq_scan(HW, 100, 1000) < cm.seq_scan(HW, 100, 100_000)


def test_spill_kicks_in_above_work_mem():
    below = cm.spill(HW, HW.work_mem_bytes)
    above = cm.spill(HW, HW.work_mem_bytes * 4)
    assert below == 0.0
    assert above > 0.0


def test_hash_join_pieces_nonnegative():
    assert cm.hash_build(HW, 0, 100) == 0.0
    assert cm.hash_probe(HW, 0) == 0.0
    assert cm.join_output(HW, 0, 100) == 0.0


def test_heap_fetch_bitmap_bound():
    """Fetching many rows never costs more than a bitmap pass over the
    heap (plus CPU)."""
    pages, rows = 1000, 100_000
    fetched = 50_000
    cost = cm.heap_fetch(HW, fetched, 1.0, pages, rows)
    bitmap_ceiling = pages * HW.seq_page_read_s * 1.5 \
        + fetched * HW.cpu_row_s
    assert cost <= bitmap_ceiling + 1e-9


def test_heap_fetch_charges_the_cheaper_of_scattered_and_bitmap_reads():
    """Hand-computed seconds on ``HW``: a random page read is 0.3 s, a
    sequential one 0.1 s, a row's CPU 20 us."""
    # 10 of 100 000 rows at cluster factor 0.1: one scattered page,
    # 0.3 s; the bitmap pass would read about 10 pages at 0.15 s each.
    assert cm.heap_fetch(HW, 10, 0.1, 1000, 100_000) == pytest.approx(
        0.3 + 10 * 2e-5
    )
    # Half the rows: every one of the 1 000 pages, read in page order
    # at 0.15 s (150 s), not at random (300 s).
    assert cm.heap_fetch(HW, 50_000, 1.0, 1000, 100_000) == pytest.approx(
        150.0 + 50_000 * 2e-5
    )
    # Without the table's row count, the bitmap pass reads every page.
    assert cm.heap_fetch(HW, 2000, 1.0, 1000) == pytest.approx(
        150.0 + 2000 * 2e-5
    )


def test_spill_writes_and_reads_back_every_page_beyond_work_mem():
    """Hand-computed seconds on ``HW``: 16 MiB of working memory, and a
    spilled 8 KiB page written at 0.12 s and read back at 0.1 s."""
    limit = 16 * 1024 * 1024
    assert cm.spill(HW, limit) == 0.0
    # One byte over the limit spills all 2 049 pages it takes.
    assert cm.spill(HW, limit + 1) == pytest.approx(2049 * 0.22)
    assert cm.spill(HW, 8193, work_mem_bytes=8192) == pytest.approx(
        2 * 0.22
    )


def test_hash_build_charges_a_hash_and_a_row_per_input_row():
    """A built row costs a hash (20 us) and a row's CPU (20 us); the
    table spills by its bytes."""
    assert cm.hash_build(HW, 1000, 100) == pytest.approx(0.04)
    # 200 000 rows of 100 bytes: 20 000 000 bytes, 2 442 pages spilled.
    assert cm.hash_build(HW, 200_000, 100) == pytest.approx(
        200_000 * 4e-5 + 2442 * 0.22
    )


def test_hash_probe_charges_one_hash_per_probe_and_never_spills():
    assert cm.hash_probe(HW, 1000) == pytest.approx(0.02)
    assert cm.hash_probe(HW, 10_000_000) == pytest.approx(200.0)


def test_join_output_charges_a_row_per_output_row_and_spills_by_bytes():
    assert cm.join_output(HW, 1000, 64) == pytest.approx(0.02)
    # 1 000 000 rows of 32 bytes: 32 000 000 bytes, 3 907 pages spilled.
    assert cm.join_output(HW, 1_000_000, 32) == pytest.approx(
        20.0 + 3907 * 0.22
    )


def test_index_probes_read_the_touched_leaves_in_leaf_order():
    """A probe batch pays one descent (0.3 s), each touched leaf at the
    bitmap rate (0.15 s, cheaper than a random read) and a row's CPU per
    probe."""
    # One probe touches one leaf.
    assert cm.index_probes(HW, 1, 1000, 10) == pytest.approx(
        0.3 + 0.15 + 2e-5
    )
    # As many probes as entries touch every leaf.
    assert cm.index_probes(HW, 1000, 1000, 10) == pytest.approx(
        0.3 + 10 * 0.15 + 1000 * 2e-5
    )
    assert cm.index_probes(HW, 0, 1000, 10) == 0.0


def test_seq_scan_reads_every_page_in_order_and_a_row_per_row():
    """A heap or view scan (a ``ViewScan`` is charged this too) pays a
    sequential read (0.1 s) per page and a row's CPU (20 us) per row."""
    assert cm.seq_scan(HW, 100, 10_000) == pytest.approx(10.0 + 0.2)
    assert cm.seq_scan(HW, 1, 0) == pytest.approx(0.1)


def test_filter_rows_charges_a_row_per_row_and_predicate():
    """Each predicate costs a row's CPU (20 us) per input row; no
    predicate is charged as one."""
    assert cm.filter_rows(HW, 1000, 3) == pytest.approx(0.06)
    assert cm.filter_rows(HW, 1000) == pytest.approx(0.02)
    assert cm.filter_rows(HW, 1000, 0) == pytest.approx(0.02)


def test_hash_aggregate_charges_a_hash_per_row_and_a_row_per_group():
    """An input row costs a hash (20 us), a group a row's CPU (20 us);
    the groups spill by their bytes, 16 bytes of state each beside the
    key."""
    assert cm.hash_aggregate(HW, 10_000, 100, 16) == pytest.approx(0.202)
    # 524 288 groups of 16 + 16 bytes fill working memory exactly.
    assert cm.hash_aggregate(HW, 0, 524_288, 16) == pytest.approx(
        524_288 * 2e-5
    )
    # One more group spills every one of the 2 049 pages.
    assert cm.hash_aggregate(HW, 0, 524_289, 16) == pytest.approx(
        524_289 * 2e-5 + 2049 * 0.22
    )


def test_sort_charges_n_log_n_comparisons_and_spills_by_bytes():
    """``rows * log2(rows)`` at 4 us each; one row needs no sort."""
    assert cm.sort(HW, 1024, 100) == pytest.approx(1024 * 10 * 4e-6)
    assert cm.sort(HW, 1, 100) == 0.0
    # 2**20 rows of 32 bytes: 32 MiB, 4 096 pages spilled.
    assert cm.sort(HW, 2 ** 20, 32) == pytest.approx(
        2 ** 20 * 20 * 4e-6 + 4096 * 0.22
    )


def test_build_view_adds_a_row_per_output_row_and_writes_its_pages():
    """On top of its input's cost a view pays a row's CPU (20 us) per
    row and writes its pages (0.12 s each), at least one."""
    # 1 000 rows of 100 bytes take 13 pages.
    assert cm.build_view(HW, 5.0, 1000, 100) == pytest.approx(
        5.0 + 0.02 + 13 * 0.12
    )
    assert cm.build_view(HW, 0.0, 0, 100) == pytest.approx(0.12)


def test_index_descend_charges_one_random_read_at_any_height():
    """Upper levels are cached: a descent is one random read (0.3 s)."""
    assert cm.index_descend(HW, 1) == pytest.approx(0.3)
    assert cm.index_descend(HW, 4) == pytest.approx(0.3)


def test_index_leaf_range_reads_its_share_of_leaves_in_order():
    """The matched share of the leaves, rounded up to whole pages and
    read in order (0.1 s each), plus a row's CPU (20 us) per entry."""
    # A quarter of 1 000 entries on 40 leaves: 10 pages.
    assert cm.index_leaf_range(HW, 250, 1000, 40) == pytest.approx(
        10 * 0.1 + 250 * 2e-5
    )
    # 260 entries span 10.4 leaves: the partial one is read too.
    assert cm.index_leaf_range(HW, 260, 1000, 40) == pytest.approx(
        11 * 0.1 + 260 * 2e-5
    )
    assert cm.index_leaf_range(HW, 1, 1000, 40) == pytest.approx(0.1 + 2e-5)
    assert cm.index_leaf_range(HW, 0, 1000, 40) == 0.0
    assert cm.index_leaf_range(HW, 5, 0, 40) == 0.0


def test_build_index_scans_sorts_entries_with_row_ids_and_writes_leaves():
    """A build scans the heap, sorts one entry per row — the key and a
    12-byte row id — and writes the index's pages (0.12 s each)."""
    # 1 024 entries of 20 + 12 bytes sort in memory.
    assert cm.build_index(HW, 100, 1024, 20, 5) == pytest.approx(
        (100 * 0.1 + 1024 * 2e-5) + 1024 * 10 * 4e-6 + 5 * 0.12
    )
    # 2**20 entries of 8 + 12 bytes: 20 MiB, 2 560 pages spilled.
    assert cm.build_index(HW, 1000, 2 ** 20, 8, 3000) == pytest.approx(
        (1000 * 0.1 + 2 ** 20 * 2e-5)
        + (2 ** 20 * 20 * 4e-6 + 2560 * 0.22)
        + 3000 * 0.12
    )


def test_insert_rows_writes_heap_pages_and_charges_each_index_alike():
    """Appended rows write their heap pages (0.12 s each) and a row's
    CPU (20 us); each index adds a quarter random read (0.075 s) and a
    row's CPU per row, whatever its height."""
    # 1 000 rows of 100 bytes take 13 pages.
    assert cm.insert_rows(HW, 1000, 100, []) == pytest.approx(
        13 * 0.12 + 1000 * 2e-5
    )
    assert cm.insert_rows(HW, 1000, 100, [2, 3]) == pytest.approx(
        13 * 0.12 + 1000 * 2e-5 + 2 * 1000 * (0.075 + 2e-5)
    )
    assert cm.insert_rows(HW, 1000, 100, [5, 5]) == cm.insert_rows(
        HW, 1000, 100, [1, 1]
    )


def test_heap_fetch_cluster_factor_discount():
    clustered = cm.heap_fetch(HW, 100, 0.05, 1000, 100_000)
    scattered = cm.heap_fetch(HW, 100, 1.0, 1000, 100_000)
    assert clustered < scattered


def test_index_probes_sublinear():
    """Probe batches share leaves: 10x probes < 10x cost."""
    one = cm.index_probes(HW, 100, 1_000_000, 5_000)
    ten = cm.index_probes(HW, 1_000, 1_000_000, 5_000)
    assert ten < 10 * one


def test_sort_loglinear():
    small = cm.sort(HW, 1_000, 16)
    large = cm.sort(HW, 100_000, 16)
    assert small < large
    assert cm.sort(HW, 1, 16) == 0.0


def test_build_index_components():
    cost = cm.build_index(HW, 1000, 100_000, 16, 400)
    assert cost > cm.seq_scan(HW, 1000, 100_000)


def test_insert_linear_and_index_surcharge():
    no_ix = cm.insert_rows(HW, 1000, 100, [])
    three_ix = cm.insert_rows(HW, 1000, 100, [2, 3, 3])
    assert three_ix > no_ix
    assert cm.insert_rows(HW, 2000, 100, [2]) == pytest.approx(
        2 * cm.insert_rows(HW, 1000, 100, [2]), rel=0.01
    )


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(0, 10**7),
    pages=st.integers(1, 10**5),
    cf=st.floats(0.001, 1.0),
)
def test_property_heap_fetch_nonnegative_monotone(rows, pages, cf):
    table_rows = max(rows, 1)
    a = cm.heap_fetch(HW, rows, cf, pages, table_rows * 2)
    b = cm.heap_fetch(HW, rows * 2, cf, pages, table_rows * 2)
    assert a >= 0.0
    assert b >= a - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    in_rows=st.integers(0, 10**6),
    groups=st.integers(1, 10**6),
    width=st.integers(8, 256),
)
def test_property_aggregate_monotone_in_input(in_rows, groups, width):
    groups = min(groups, max(in_rows, 1))
    a = cm.hash_aggregate(HW, in_rows, groups, width)
    b = cm.hash_aggregate(HW, in_rows * 2, groups, width)
    assert 0.0 <= a <= b + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    probes=st.integers(1, 10**6),
    entries=st.integers(1, 10**7),
    leaves=st.integers(1, 10**5),
)
def test_property_index_probes_bounded_by_leaves(probes, entries, leaves):
    cost = cm.index_probes(HW, probes, entries, leaves)
    ceiling = (
        HW.random_page_read_s
        + leaves * HW.random_page_read_s
        + probes * HW.cpu_row_s
    )
    assert 0.0 < cost <= ceiling + 1e-9
