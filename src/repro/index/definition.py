"""Index definitions and the index size/height model.

An :class:`IndexDefinition` is pure metadata: it can describe an index on a
base table or on a materialized view, and it exists independently of any
built data — this is what recommenders emit and what *hypothetical*
(what-if) configurations are made of.

The size model is what the space-budget arithmetic of the benchmark uses:
the paper constrains recommended configurations to
``size(1C) - size(P)`` extra bytes.
"""

import math
from dataclasses import dataclass

from ..common.hardware import PAGE_SIZE

ROWID_WIDTH = 8
ENTRY_OVERHEAD = 4


@dataclass(frozen=True)
class IndexDefinition:
    """An index on ``table`` (or view) over an ordered tuple of columns."""

    table: str
    columns: tuple
    is_primary: bool = False

    def __post_init__(self):
        if not self.columns:
            raise ValueError("an index needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate columns in index {self.columns}")
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def name(self):
        kind = "pk" if self.is_primary else "ix"
        return f"{kind}_{self.table}__{'_'.join(self.columns)}"

    @property
    def width(self):
        """Number of key columns (the paper's Tables 2/3 group by this)."""
        return len(self.columns)



@dataclass(frozen=True)
class IndexSizeEstimate:
    """Page-level geometry of a (possibly hypothetical) index."""

    entries: int
    entry_width: int
    leaf_pages: int
    height: int
    byte_size: int


def estimate_index_size(row_count, key_width, overhead_factor=1.0):
    """Page-level geometry for an index with ``row_count`` entries.

    ``key_width`` is the summed byte width of the key columns.
    ``overhead_factor`` models per-system storage overhead (the commercial
    systems in the paper produced very different index sizes for identical
    configurations — compare A NREF 1C at 35.7 GB with B NREF 1C at
    17.1 GB in Table 1).
    """
    entry_width = int(
        (key_width + ROWID_WIDTH + ENTRY_OVERHEAD) * overhead_factor
    )
    entries_per_leaf = max(2, PAGE_SIZE // entry_width)
    leaf_pages = max(1, math.ceil(row_count / entries_per_leaf))
    fanout = max(2, PAGE_SIZE // (key_width + ROWID_WIDTH))
    height = 1
    level_pages = leaf_pages
    while level_pages > 1:
        level_pages = math.ceil(level_pages / fanout)
        height += 1
    total_pages = leaf_pages
    level_pages = leaf_pages
    while level_pages > 1:
        level_pages = math.ceil(level_pages / fanout)
        total_pages += level_pages
    byte_size = total_pages * PAGE_SIZE
    return IndexSizeEstimate(
        entries=row_count,
        entry_width=entry_width,
        leaf_pages=leaf_pages,
        height=height,
        byte_size=byte_size,
    )


def heap_fetch_pages(rows_fetched, table_rows, table_pages):
    """Expected distinct heap pages touched when fetching random rows.

    Standard Yao approximation, used for *clustered* access costing: the
    number of distinct pages touched when ``rows_fetched`` of
    ``table_rows`` rows spread over ``table_pages`` pages are fetched.
    """
    if rows_fetched <= 0 or table_rows <= 0 or table_pages <= 0:
        return 0.0
    # Yao's formula approximated as pages * (1 - (1 - k/n)^(n/p)).
    rows_per_page = max(1.0, table_rows / table_pages)
    frac = 1.0 - (1.0 - min(1.0, rows_fetched / table_rows)) ** rows_per_page
    return min(float(table_pages), table_pages * frac)
