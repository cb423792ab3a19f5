"""Built index data.

An :class:`IndexData` materializes an :class:`IndexDefinition` over a
table: key columns stored in key order plus the matching row-id
permutation.  Probes used by the executor are vectorized over these
arrays; a real :class:`~repro.index.btree.BPlusTree` over the same entries
is available lazily (and is cross-checked against the arrays in the test
suite).

The measured *cluster factor* — the average fraction of a random heap page
read per fetched row — is the statistic that distinguishes a built index
from a hypothetical one: what-if optimization has to assume the worst
(factor 1.0), which is one of the estimation gaps Section 5 of the paper
exposes.
"""

import copy

import numpy as np

from ..common.hardware import PAGE_SIZE
from .btree import BPlusTree
from .definition import estimate_index_size


# Rows per block of the cluster-factor scan: 512 KB of float64 pages.
_PAGE_BLOCK = 1 << 16


def gather_ranges(values, lows, highs):
    """Concatenate ``values[lo:hi]`` for every (lo, hi) pair, vectorized.

    Also returns, for each output element, the index of the range it came
    from (used to pair join probes with their matches).
    """
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    counts = highs - lows
    total = int(counts.sum())
    if total == 0:
        return (
            np.empty(0, dtype=values.dtype),
            np.empty(0, dtype=np.int64),
        )
    range_ids = np.repeat(np.arange(len(lows)), counts)
    starts = np.repeat(lows, counts)
    offsets = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    positions = starts + offsets
    return values[positions], range_ids


def _bisect(column, values, lows, highs, right):
    """Per-element ``searchsorted`` of ``values[i]`` in the sorted run
    ``column[lows[i]:highs[i]]``; returns absolute positions."""
    lows, highs = lows.copy(), highs.copy()
    while True:
        active = np.flatnonzero(lows < highs)
        if not len(active):
            return lows
        middle = (lows[active] + highs[active]) // 2
        probe = column[middle]
        wanted = values[active]
        descend = probe <= wanted if right else probe < wanted
        lows[active[descend]] = middle[descend] + 1
        highs[active[~descend]] = middle[~descend]


def _upper_bounds(sorted_columns, keys):
    """For each key tuple, how many entries of the lexicographically
    sorted ``sorted_columns`` are not greater (``side="right"``).

    The leading column narrows every key to its run of equal leading
    values with two C ``searchsorted`` calls; each further column is
    sorted inside that run and bisected there.
    """
    highs = np.searchsorted(sorted_columns[0], keys[0], side="right")
    if len(sorted_columns) > 1:
        lows = np.searchsorted(sorted_columns[0], keys[0], side="left")
        for column, values in zip(sorted_columns[1:], keys[1:]):
            lows, highs = (
                _bisect(column, values, lows, highs, right=False),
                _bisect(column, values, lows, highs, right=True),
            )
    return highs


class IndexData:
    """A built secondary index over a table's columns.

    Instances are immutable once built: :meth:`append` returns a new
    index, so a reader holding the old one keeps a consistent snapshot.
    ``row_ids`` and ``key_columns`` are read-only arrays; ``row_ids``
    of a fresh build is shared with ``encodings`` (the database's
    :class:`~repro.storage.encoding.DictionaryCache`) and with every
    other index on the same columns.
    """

    def __init__(self, definition, table, encodings, overhead_factor=1.0):
        self.definition = definition
        self._overhead_factor = overhead_factor
        # The cache's memoized lexsort *is* the index's row ids — the
        # same read-only array for every index on these columns, not a
        # copy per index.
        order = encodings.lexsort(table, tuple(definition.columns))
        self._set_entries(
            table, order, [table.column(c)[order] for c in definition.columns]
        )

    def _set_entries(self, table, row_ids, key_columns):
        for array in (row_ids, *key_columns):
            array.setflags(write=False)
        self._tree = None
        self.row_ids = row_ids
        self.key_columns = key_columns
        self.entry_count = len(row_ids)
        key_width = sum(
            table.schema.column(c).width for c in self.definition.columns
        )
        self.size = estimate_index_size(
            self.entry_count, key_width, self._overhead_factor
        )
        self.cluster_factor = self._measure_cluster_factor(table)

    def append(self, table):
        """The index after rows were appended to ``table``.

        ``table`` already holds the new rows, at row ids
        ``entry_count`` and up.  Only their keys are sorted; each then
        takes the slot after every existing entry that is not greater
        (a lexicographic ``side="right"`` binary search).  New row ids
        exceed all old ones, so that is where the stable ``lexsort`` of
        a from-scratch build puts them: the result equals
        ``IndexData(definition, table, encodings)`` array for array.
        Keys must be NaN-free, as ``<=`` orders a NaN differently from
        a sort.
        """
        first = self.entry_count
        tails = [table.column(c)[first:] for c in self.definition.columns]
        order = np.lexsort(tuple(reversed(tails)))
        tails = [tail[order] for tail in tails]
        slots = _upper_bounds(self.key_columns, tails)
        # Sorted entry j lands behind the slots[j] old entries before
        # it and the j new ones.
        positions = slots + np.arange(len(order))
        total = first + len(order)
        kept = np.ones(total, dtype=bool)
        kept[positions] = False

        def splice(old, new):
            out = np.empty(total, dtype=old.dtype)
            out[kept] = old
            out[positions] = new
            return out

        merged = copy.copy(self)
        merged._set_entries(
            table,
            splice(self.row_ids, first + order.astype(np.int64)),
            [splice(old, new)
             for old, new in zip(self.key_columns, tails)],
        )
        return merged

    def _measure_cluster_factor(self, table):
        """Fraction of a random page I/O charged per row fetched via this index."""
        if self.entry_count == 0:
            return 1.0
        rows_per_page = max(1.0, PAGE_SIZE / table.schema.row_width())
        # Page numbers block by block in one small reused buffer (each
        # block re-reads the row before it): whole-array temporaries
        # cost more in first-touch page faults than in arithmetic.
        transitions = 1
        pages = np.empty(min(self.entry_count, _PAGE_BLOCK + 1))
        for start in range(0, self.entry_count - 1, _PAGE_BLOCK):
            block = self.row_ids[start:start + _PAGE_BLOCK + 1]
            block_pages = pages[:len(block)]
            np.divide(block, rows_per_page, out=block_pages)
            np.floor(block_pages, out=block_pages)
            transitions += int(
                np.count_nonzero(block_pages[1:] != block_pages[:-1])
            )
        return min(1.0, transitions / self.entry_count)

    # ------------------------------------------------------------------
    # Probes (vectorized over the sorted arrays)

    @property
    def leading_keys(self):
        """Leading key column in index order (for searchsorted probes)."""
        return self.key_columns[0]

    def lookup_eq(self, prefix_values):
        """Row ids matching equality on a leading prefix of key columns."""
        prefix_values = tuple(prefix_values)
        if len(prefix_values) > len(self.key_columns):
            raise ValueError("prefix longer than the index key")
        lo = np.searchsorted(self.leading_keys, prefix_values[0], side="left")
        hi = np.searchsorted(self.leading_keys, prefix_values[0], side="right")
        if len(prefix_values) == 1:
            return self.row_ids[lo:hi]
        mask = np.ones(hi - lo, dtype=bool)
        for depth, value in enumerate(prefix_values[1:], start=1):
            mask &= self.key_columns[depth][lo:hi] == value
        return self.row_ids[lo:hi][mask]

    def probe_many(self, probe_values):
        """Batch equality probes on the leading key column.

        Returns ``(matched_row_ids, probe_indices)`` — for every matching
        index entry, the heap row id and the position in ``probe_values``
        it matched.  This is the inner side of index-nested-loop joins.
        """
        probe_values = np.asarray(probe_values)
        lows = np.searchsorted(self.leading_keys, probe_values, side="left")
        highs = np.searchsorted(self.leading_keys, probe_values, side="right")
        return gather_ranges(self.row_ids, lows, highs), (lows, highs)

    def count_many(self, probe_values):
        """Number of index entries matching each probe value (no fetch)."""
        probe_values = np.asarray(probe_values)
        lows = np.searchsorted(self.leading_keys, probe_values, side="left")
        highs = np.searchsorted(self.leading_keys, probe_values, side="right")
        return highs - lows

    # ------------------------------------------------------------------
    # Reference structure

    def tree(self):
        """The equivalent B+-tree, built lazily from the sorted entries."""
        if self._tree is None:
            entries = zip(
                (tuple(col[i] for col in self.key_columns)
                 for i in range(self.entry_count)),
                (int(r) for r in self.row_ids),
            )
            self._tree = BPlusTree.bulk_load(entries)
        return self._tree
