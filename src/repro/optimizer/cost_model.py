"""Cost model shared by the optimizer and the executor.

Every formula takes explicit row/page counts, so the optimizer can feed it
*estimated* cardinalities while the executor feeds it *actual* ones and
charges the result to the virtual clock.  This makes the paper's
estimated-vs-actual methodology exact: ``E`` and ``A`` differ only through
cardinality estimation error, and ``H`` additionally through hypothetical
index metadata (cluster factor, geometry).
"""

import math

from ..common.hardware import PAGE_SIZE, pages_for_bytes
from ..index.definition import heap_fetch_pages


def seq_scan(hw, pages, rows):
    """Full scan of a heap (or view) of ``pages`` pages and ``rows`` rows."""
    return pages * hw.seq_page_read_s + rows * hw.cpu_row_s


def filter_rows(hw, rows, n_predicates=1):
    """Predicate evaluation over ``rows`` rows."""
    return rows * max(1, n_predicates) * hw.cpu_row_s


def index_descend(hw, height):
    """Root-to-leaf descent.

    Upper levels are assumed cached, so the descent costs one I/O
    regardless of ``height`` (kept in the signature for cost-model
    symmetry and future cold-cache modeling).
    """
    del height
    return hw.random_page_read_s


def index_leaf_range(hw, matched, entries, leaf_pages):
    """Reading the leaf range holding ``matched`` of ``entries`` entries."""
    if entries <= 0:
        return 0.0
    frac = min(1.0, matched / entries)
    pages = max(1.0, math.ceil(frac * leaf_pages)) if matched > 0 else 0.0
    return pages * hw.seq_page_read_s + matched * hw.cpu_row_s


def heap_fetch(hw, matched, cluster_factor, table_pages, table_rows=None):
    """Fetching ``matched`` rows from the heap through an index.

    ``cluster_factor`` is the measured fraction of a random page read per
    row (1.0 for hypothetical indexes).  The engine is assumed to switch
    to a bitmap-style fetch (sort the row ids, read the distinct pages
    near-sequentially) when that is cheaper, as every commercial executor
    of the paper's era did.
    """
    if matched <= 0:
        return 0.0
    scattered = min(matched * cluster_factor, float(table_pages))
    scattered_cost = scattered * hw.random_page_read_s
    if table_rows:
        bitmap_pages = heap_fetch_pages(matched, table_rows, table_pages)
    else:
        bitmap_pages = float(table_pages)
    bitmap_cost = bitmap_pages * hw.seq_page_read_s * 1.5
    return min(scattered_cost, bitmap_cost) + matched * hw.cpu_row_s


def index_probes(hw, probes, entries, leaf_pages):
    """Batch equality probes into an index (index-nested-loop inner side).

    Distinct leaves touched follow the Yao approximation; upper levels are
    cached after the first descent, and a large sorted probe batch reads
    the touched leaves near-sequentially (bitmap-style).
    """
    if probes <= 0:
        return 0.0
    leaves = heap_fetch_pages(probes, max(1, entries), max(1, leaf_pages))
    leaves = max(1.0, leaves)
    leaf_cost = min(
        leaves * hw.random_page_read_s,
        leaves * hw.seq_page_read_s * 1.5,
    )
    return hw.random_page_read_s + leaf_cost + probes * hw.cpu_row_s


def spill(hw, n_bytes, work_mem_bytes=None):
    """Write+read penalty when an intermediate exceeds working memory."""
    limit = hw.work_mem_bytes if work_mem_bytes is None else work_mem_bytes
    if n_bytes <= limit:
        return 0.0
    pages = pages_for_bytes(n_bytes)
    return pages * (hw.page_write_s + hw.seq_page_read_s)


def hash_build(hw, rows, row_width):
    """Building a hash table over ``rows`` rows (spills when too large)."""
    return rows * (hw.hash_row_s + hw.cpu_row_s) + spill(hw, rows * row_width)


def hash_probe(hw, rows):
    """Probing a hash table with ``rows`` rows."""
    return rows * hw.hash_row_s


def join_output(hw, rows, row_width):
    """Producing and materializing ``rows`` join output rows."""
    return rows * hw.cpu_row_s + spill(hw, rows * row_width)


def hash_aggregate(hw, in_rows, groups, group_width):
    """Hash aggregation of ``in_rows`` input rows into ``groups`` groups."""
    return (
        in_rows * hw.hash_row_s
        + groups * hw.cpu_row_s
        + spill(hw, groups * (group_width + 16))
    )


def sort(hw, rows, row_width):
    """In-memory / external sort of ``rows`` rows."""
    if rows <= 1:
        return 0.0
    cpu = rows * math.log2(rows) * hw.sort_row_s
    return cpu + spill(hw, rows * row_width)


def build_index(hw, table_pages, rows, key_width, index_pages):
    """Creating an index: scan the heap, sort the entries, write the leaves."""
    return (
        seq_scan(hw, table_pages, rows)
        + sort(hw, rows, key_width + 12)
        + index_pages * hw.page_write_s
    )


def build_view(hw, input_cost, out_rows, out_width):
    """Materializing a view: compute the input, then write the result."""
    pages = pages_for_bytes(out_rows * out_width)
    return input_cost + out_rows * hw.cpu_row_s + pages * hw.page_write_s


def insert_rows(hw, rows, row_width, index_heights):
    """Appending ``rows`` heap rows and maintaining the given indexes.

    ``index_heights`` is one entry per index on the table.  Insert cost is
    linear in the row count (the paper observes exactly this in §4.4) with
    a per-index random-I/O surcharge, which is why inserting into 1C is
    slower than into R, which is slower than into P.
    """
    heap_pages = pages_for_bytes(rows * row_width)
    cost = heap_pages * hw.page_write_s + rows * hw.cpu_row_s
    # Each index charges an amortized fraction of a random I/O per row
    # (leaf pages are hot for bulk appends), independent of its height.
    cost += len(index_heights) * rows * (
        0.25 * hw.random_page_read_s + hw.cpu_row_s
    )
    return cost


def bytes_to_pages(n_bytes):
    """Convenience re-export for callers sizing intermediates."""
    return pages_for_bytes(n_bytes)


ROW_OVERHEAD = 8
PAGE = PAGE_SIZE
