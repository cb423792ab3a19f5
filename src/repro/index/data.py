"""Built index data.

An :class:`IndexData` materializes an :class:`IndexDefinition` over a
table as the row-id permutation that puts the key columns in order,
plus what a probe needs to find its entries in it.  For the leading
column that is no array of keys at all: the sorted keys are the
column's dictionary values, each repeated by its count, so the index
keeps the ``d`` distinct ``values`` and the ``d + 1`` run ``offsets``
— the entries of ``values[slot]`` are ``offsets[slot]:offsets[slot +
1]``.  An executor's probe never compares a key: its codes in its own
column's dictionary map to slots of the leading column's dictionary
through a cached slot table (``Executor._index_ranges``), and only a
literal probe (:meth:`IndexData.lookup_eq`) bisects the ``d`` values.
Only the *inner* columns of a multi-column index are stored as sorted
copies of what the table stores — a string column's codes, with the
dictionary ``values`` they index — gathered when first read: most
multi-column indexes are only ever probed on their leading key.  The row ids are int32 — four
bytes an entry, the dictionary cache's memoized order itself; what a
probe gathers from them widens to the int64 NumPy indexes with as it
becomes a batch's selection vector (``Executor._scan_batch``).  The ``d + 1`` offsets are
not table-sized and feed position arithmetic, so they stay int64.
Probes used by the executor are vectorized over these arrays; the test
suite cross-checks them against a B+-tree over the same entries.

The measured *cluster factor* — the average fraction of a random heap page
read per fetched row — is the statistic that distinguishes a built index
from a hypothetical one: what-if optimization has to assume the worst
(factor 1.0), which is one of the estimation gaps Section 5 of the paper
exposes.  It is the index's *page transitions* (how often the heap page
changes along ``row_ids``, plus one for the first page) over its
entries; a build counts them in one scan, and an append carries the
count, updating it where the batch's entries were spliced in.

Nothing is sorted before it is read.  A new index knows its entry
count and size — all a build's charge, a cost estimate or an insert's
charge reads — and owes the rest: the first read of one of its arrays
or its cluster factor runs the build.  An insert does not merge at once
either (:meth:`IndexData.deferred`): the index it leaves runs the merge
— one :meth:`IndexData.append` over every row appended since the last
read — on its first read, or, if it was never read before the insert,
the build over the grown table.
"""

import copy
import pickle
import threading

import numpy as np

from .. import obs
from ..common.hardware import PAGE_SIZE
from ..storage.encoding import DictionaryCache, code_bound, code_dtype
from .definition import estimate_index_size


# Rows per block of the cluster-factor scan: 512 KB of float64 pages.
_PAGE_BLOCK = 1 << 16

# What an index computes on its first read: all of these for an index
# that owes its build or a merge, the inner columns for a built one.
_DEFERRED = frozenset({
    "row_ids", "values", "offsets", "inner_columns", "inner_values",
    "page_transitions", "cluster_factor",
})

# The inner columns, which even a built index gathers on their own
# first read only: most multi-column indexes are only ever probed on
# their leading key.
_INNER = frozenset({"inner_columns", "inner_values"})

# Held while an index computes what it owes: measurement-pool threads
# may read one index at once, and exactly one of them does the work.
# Reentrant: a merge reads its base's inner columns, which the base may
# still owe.
_MERGE_LOCK = threading.RLock()


def gather_ranges(values, lows, highs):
    """Concatenate ``values[lo:hi]`` for every (lo, hi) pair, vectorized.

    Also returns, for each output element, the index of the range it came
    from (used to pair join probes with their matches).  Empty ranges
    — most of a hash join's, one per probe row — are dropped first, so
    the expansion repeats over the ranges that have entries only.
    """
    lows = np.asarray(lows, dtype=np.int64)
    counts = np.asarray(highs, dtype=np.int64) - lows
    hit = np.flatnonzero(counts)
    counts = counts[hit]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(hit) else 0
    # Output element k of range r sits at lows[r] + (k - first k of r).
    positions = np.arange(total) + np.repeat(
        lows[hit] - (ends - counts), counts
    )
    return values[positions], np.repeat(hit, counts)


def _coded_values(table, column):
    """The dictionary ``values`` a string column's stored codes index
    (``None`` for a number column)."""
    coded = table.dictionary(column)
    return None if coded is None else coded.values


def _rows_per_page(table):
    return max(1.0, PAGE_SIZE / table.schema.row_width())


def _page_transitions(row_ids, rows_per_page):
    """How often the heap page changes along ``row_ids``, plus one for
    the first page (0 when empty)."""
    if not len(row_ids):
        return 0
    # Page numbers block by block in one small reused buffer (each
    # block re-reads the row before it): whole-array temporaries cost
    # more in first-touch page faults than in arithmetic.
    transitions = 1
    pages = np.empty(min(len(row_ids), _PAGE_BLOCK + 1))
    for start in range(0, len(row_ids) - 1, _PAGE_BLOCK):
        block = row_ids[start:start + _PAGE_BLOCK + 1]
        block_pages = pages[:len(block)]
        np.divide(block, rows_per_page, out=block_pages)
        np.floor(block_pages, out=block_pages)
        transitions += int(
            np.count_nonzero(block_pages[1:] != block_pages[:-1])
        )
    return transitions


def _spliced_transitions(row_ids, positions, rows_per_page):
    """The page transitions ``row_ids`` gained when the entries at
    ``positions`` (sorted) were spliced in between the others.

    Per run of consecutive spliced entries: the pairs it forms with its
    neighbours and inside itself, less the one pair of old neighbours
    it parted.  A splice into an empty index also brings the first
    page.
    """
    total = len(row_ids)
    if not len(positions):
        return 0

    def changes(left, right):
        return int(np.count_nonzero(
            np.floor(row_ids[left] / rows_per_page)
            != np.floor(row_ids[right] / rows_per_page)
        ))

    ends = np.flatnonzero(np.diff(positions) != 1)
    firsts = positions[np.concatenate(([0], ends + 1))]
    lasts = positions[np.concatenate((ends, [len(positions) - 1]))]
    parted = (firsts > 0) & (lasts < total - 1)
    # Pair (i, i + 1) touches a spliced entry when either end is one:
    # it starts at a spliced entry or just before a run — once each.
    pairs = np.concatenate((firsts - 1, positions))
    pairs = pairs[(pairs >= 0) & (pairs < total - 1)]
    return (
        changes(pairs, pairs + 1)
        - changes(firsts[parted] - 1, lasts[parted] + 1)
        + (len(positions) == total)
    )


def _run_offsets(dictionary):
    """The ``d + 1`` run boundaries of a sorted column with the
    dictionary's counts (int64)."""
    offsets = np.zeros(dictionary.n_distinct + 1, dtype=np.int64)
    np.cumsum(dictionary.counts, out=offsets[1:])
    return offsets


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


class IndexData:
    """A built secondary index over a table's columns.

    Instances are immutable once built: :meth:`append` returns a new
    index, so a reader holding the old one keeps a consistent snapshot.
    A new one, and one that :meth:`deferred` returned, holds
    ``definition``, ``entry_count`` and ``size`` only, and gains the
    attributes below on the first read of any of them (the inner
    columns on their own first read).

    Attributes:
        row_ids: heap row ids in key order (read-only, int32: a
            table holds fewer than 2**31 rows).  A fresh build's is
            shared with ``encodings`` (the database's
            :class:`~repro.storage.encoding.DictionaryCache`) and with
            every other index on the same columns.
        values: the leading column's sorted distinct values — the
            column dictionary's own array (the same object), not the
            dictionary: an index outlives the cache
            (``Database.__getstate__`` drops it) and must not drag a
            dictionary's base, codes and order along; an unpickled
            index is re-linked to the rebuilt dictionary's array
            (:meth:`relink`).
        offsets: ``d + 1`` run boundaries (read-only); the entries
            whose leading key is ``values[slot]`` are
            ``offsets[slot]:offsets[slot + 1]``.
        inner_columns: the key columns after the leading one, in key
            order, as stored — a string column's codes (read-only; a
            build gathers them on their first read).
        inner_values: per inner column, the dictionary ``values`` its
            codes index (``None`` for a number column).
        page_transitions: heap page changes along ``row_ids``, plus
            one for the first page; ``cluster_factor`` is this over
            ``entry_count``.
    """

    def __init__(self, definition, table, encodings, overhead_factor=1.0):
        self.definition = definition
        self._overhead_factor = overhead_factor
        # Owed until first read (:meth:`_materialize`): an entry per
        # row is all the size needs.
        self._owed = (None, table, encodings)
        self._set_size(table, table.row_count)
        obs.counter_add("index.builds_deferred")

    def _build(self, table, encodings):
        columns = self.definition.columns
        # The cache's memoized lexsort *is* the index's row ids — the
        # same read-only array for every index on these columns, not a
        # copy per index.
        order = encodings.lexsort(table, tuple(columns))
        self._set_entries(
            table, encodings, order,
            _page_transitions(order, _rows_per_page(table)),
        )
        if len(columns) > 1:
            self._gather = [
                (table.column(c), _coded_values(table, c))
                for c in columns[1:]
            ]
        else:
            self._set_inner_columns([], [])

    def _set_entries(self, table, encodings, row_ids, page_transitions,
                     inner=None):
        leading = encodings.dictionary(table, self.definition.columns[0])
        offsets = _run_offsets(leading)
        for array in (row_ids, offsets):
            array.setflags(write=False)
        self.row_ids = row_ids
        self.values = leading.values
        self.offsets = offsets
        if inner is not None:
            self._set_inner_columns(*inner)
        self._set_size(table, len(row_ids))
        self.page_transitions = page_transitions
        self.cluster_factor = (
            min(1.0, page_transitions / self.entry_count)
            if self.entry_count else 1.0
        )

    def _set_inner_columns(self, inner_columns, inner_values):
        for array in inner_columns:
            array.setflags(write=False)
        self.inner_columns = inner_columns
        self.inner_values = inner_values

    def _set_size(self, table, entry_count):
        self.entry_count = entry_count
        key_width = sum(
            table.schema.column(c).width for c in self.definition.columns
        )
        self.size = estimate_index_size(
            entry_count, key_width, self._overhead_factor
        )

    def __getattr__(self, name):
        # Reached only for an attribute the instance lacks: one the
        # index still owes.  An index that owes nothing holds them
        # all, so its probes never come here.
        if name not in _DEFERRED:
            raise AttributeError(name)
        self._materialize(gather=name in _INNER)
        try:
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(name) from None

    def __getstate__(self):
        # An index that owes its build pickles owing it, with its table
        # and without the dictionary cache, which does not pickle (the
        # owner re-attaches one, :meth:`attach`); any other pickles
        # owing nothing: a deferred merge runs, and the inner columns
        # are gathered.
        owed = self.__dict__.get("_owed")
        if owed is None or owed[0] is not None:
            self._materialize()
            return self.__dict__
        self._check_current(owed[1])
        return dict(self.__dict__, _owed=(None, owed[1], None))

    def __setstate__(self, state):
        owed = state.get("_owed")
        if owed is not None:
            # Built through a cache of its own until :meth:`attach`
            # gives it its owner's: an index unpickled alone still
            # reads as built.
            self.__dict__.update(
                state, _owed=(None, owed[1], DictionaryCache())
            )
            return
        # An artifact store written before the run-offset layout holds
        # sorted key copies instead, one written before row ids were
        # narrowed holds int64 ones, and one written before appends
        # carried the cluster factor holds no page-transition count;
        # refusing each makes the store miss and rebuild rather than
        # fail at the first probe or append, or keep eight bytes a row.
        if "offsets" not in state:
            raise pickle.UnpicklingError(
                "index pickled without leading-key run offsets"
            )
        if "page_transitions" not in state:
            raise pickle.UnpicklingError(
                "index pickled without its page-transition count"
            )
        if state["row_ids"].dtype != np.int32:
            raise pickle.UnpicklingError(
                f"index pickled with {state['row_ids'].dtype} row ids"
            )
        if "inner_values" not in state:
            # Written before string columns were stored as codes: an
            # inner string column is a copy of its strings.
            if any(c.dtype == object for c in state["inner_columns"]):
                raise pickle.UnpicklingError(
                    "index pickled with string inner columns"
                )
            state["inner_values"] = [None] * len(state["inner_columns"])
        # One written before codes were narrowed holds int32 inner codes.
        state["inner_columns"] = [
            column if values is None
            else column.astype(code_dtype(len(values)), copy=False)
            for column, values in zip(
                state["inner_columns"], state["inner_values"]
            )
        ]
        self.__dict__.update(state)
        # A pickle restores arrays writeable; they are read-only
        # (architecture invariant 7).
        for array in (self.row_ids, self.offsets, *self.inner_columns):
            array.setflags(write=False)

    def attach(self, encodings, table):
        """Re-attach this unpickled index to ``encodings``, the
        dictionary cache of the database it was pickled with, and
        ``table``, the one it indexes: an index that owes its build
        builds through the cache on its first read, and a built one is
        re-linked to its leading column's dictionary (:meth:`relink`),
        which the cache builds for a number column."""
        owed = self.__dict__.get("_owed")
        if owed is not None:
            self._owed = (None, owed[1], encodings)
        else:
            self.relink(encodings.dictionary(
                table, self.definition.columns[0]
            ))

    def relink(self, leading):
        """Share ``values`` with ``leading``, the leading column's
        dictionary rebuilt after this index was unpickled, once one
        comparison shows they are equal; an index whose values are not
        refuses (``pickle.UnpicklingError``), so the store misses."""
        if self.values is leading.values:
            return
        if not np.array_equal(self.values, leading.values):
            raise pickle.UnpicklingError(
                f"index {self.definition.name} does not match the "
                f"dictionary of its leading column"
            )
        self.values = leading.values

    def append(self, table, encodings):
        """The index after rows were appended to ``table``.

        ``table`` already holds the new rows, at row ids
        ``entry_count`` and up, and ``encodings`` the leading column's
        dictionary over them.  Only their keys are sorted — the leading
        one as its dictionary codes; each then takes the slot after
        every existing entry that is not greater: the end of its
        leading value's run, narrowed column by column (each inner
        column is sorted inside the run and bisected there).  The run
        is read off the dictionary: the old entries before and in it
        are all entries there less the tail's own.  New row ids exceed
        all old ones, so that is where the
        stable ``lexsort`` of a from-scratch build puts them: the
        result equals ``IndexData(definition, table, encodings)`` array
        for array, and its page transitions — updated at the spliced
        positions only — the count a build's scan makes.  Keys must be
        NaN-free, as ``<=`` orders a NaN differently from a sort.
        """
        first = self.entry_count
        leading = encodings.dictionary(table, self.definition.columns[0])
        # Codes are order-isomorphic to the keys, so they sort alike.
        tails = [leading.codes_from(first)] + [
            table.column(c)[first:] for c in self.definition.columns[1:]
        ]
        inner_values = [
            _coded_values(table, c) for c in self.definition.columns[1:]
        ]
        # An inner string column whose dictionary gained values since
        # is recoded first: its old codes' slots in the new values.
        inner_columns = [
            column if old is new
            else new.searchsorted(old).astype(code_dtype(len(new)))[column]
            for column, old, new in zip(
                self.inner_columns, self.inner_values, inner_values
            )
        ]
        order = np.lexsort(tuple(reversed(tails)))
        tails = [tail[order] for tail in tails]
        runs = _run_offsets(leading)
        # In int64: ``lead + 1`` of int16 codes wraps at 32 767.
        lead = tails[0].astype(np.int64)
        lows = runs[lead] - np.searchsorted(lead, lead, side="left")
        slots = runs[lead + 1] - np.searchsorted(lead, lead, side="right")
        for column, values in zip(inner_columns, tails[1:]):
            lows, slots = (
                _bisect(column, values, lows, slots, right=False),
                _bisect(column, values, lows, slots, right=True),
            )
        # Sorted entry j lands behind the slots[j] old entries before
        # it and the j new ones.
        positions = slots + np.arange(len(order))
        total = first + len(order)
        kept = np.ones(total, dtype=bool)
        kept[positions] = False

        def splice(old, new, dtype):
            out = np.empty(total, dtype=dtype)
            out[kept] = old
            out[positions] = new
            return out

        # New row ids narrow to int32 as they land; an inner column
        # takes the dtype its table column widened to, if it did.
        row_ids = splice(self.row_ids, first + order, self.row_ids.dtype)
        merged = copy.copy(self)
        merged._set_entries(
            table, encodings, row_ids,
            self.page_transitions + _spliced_transitions(
                row_ids, positions, _rows_per_page(table)
            ),
            ([splice(old, new, np.result_type(old, new))
              for old, new in zip(inner_columns, tails[1:])],
             inner_values),
        )
        return merged

    def deferred(self, table, encodings):
        """The index after rows were appended to ``table``, merged on
        its first read.

        Its ``entry_count`` and ``size`` — all a cost estimate or an
        insert's charge reads — are exact at once: an index has an
        entry per row.  Its arrays and cluster factor come from
        :meth:`append` of the last merged index over every row
        appended since, so they equal an eager merge's, which equals
        a build's.  Deferring a deferred index again extends the same
        merged index: a run of inserts that nothing reads in between
        merges once.  An index that still owes its build stays owing
        it, over the grown table: it is built once and merges nothing.
        """
        owed = self.__dict__.get("_owed")
        base = self if owed is None else owed[0]
        index = IndexData.__new__(IndexData)
        index.definition = self.definition
        index._overhead_factor = self._overhead_factor
        index._owed = (base, table, encodings)
        index._set_size(table, table.row_count)
        obs.counter_add("index.merges_deferred")
        return index

    @property
    def built(self):
        """Whether the index was ever built (sorted): false while it
        owes its build, also over the rows of inserts since."""
        owed = self.__dict__.get("_owed")
        return owed is None or owed[0] is not None

    def _materialize(self, gather=True):
        """Compute what the index owes, once: its build or a deferred
        merge, and, with ``gather``, a built index's inner columns; a
        no-op on an index that owes nothing.

        An index a later insert superseded (its table has grown past
        its entries) raises instead: the dictionaries describe the
        table's current rows only, so its own rows cannot be sorted or
        merged apart from the newer ones.
        """
        if "_owed" not in self.__dict__ and (
                not gather or "_gather" not in self.__dict__):
            return
        with _MERGE_LOCK:
            owed = self.__dict__.get("_owed")
            if owed is not None:
                base, table, encodings = owed
                self._check_current(table)
                if base is None:
                    self._build(table, encodings)
                else:
                    merged = base.append(table, encodings)
                    self.__dict__.update(merged.__dict__)
                del self._owed
                obs.counter_add("index.materializations")
            if gather and "_gather" in self.__dict__:
                # The columns are the ones the build read: their first
                # ``entry_count`` rows are the index's whatever was
                # appended since.
                self._set_inner_columns(
                    [column[self.row_ids] for column, _ in self._gather],
                    [values for _, values in self._gather],
                )
                del self._gather

    def _check_current(self, table):
        """Raise unless the index covers every row of ``table``."""
        if table.row_count != self.entry_count:
            raise RuntimeError(
                f"index {self.definition.name} covers "
                f"{self.entry_count} rows, but a later insert "
                f"grew {table.name} to {table.row_count}: read "
                f"the index the insert left instead"
            )

    # ------------------------------------------------------------------
    # Probes (vectorized over the sorted arrays)

    def ranges(self, probe_values):
        """``(lows, highs)``: for each literal probe value, the range
        of entries whose leading key equals it (empty where none does).

        One ``searchsorted`` into the distinct leading values; the run
        offsets turn the slot into entry positions.  For literals only
        (:meth:`lookup_eq`): keys that are another column's codes take
        the executor's slot tables instead (``Executor._index_ranges``).
        """
        probe_values = np.asarray(probe_values)
        if not len(self.values):
            empty = np.zeros(len(probe_values), dtype=np.int64)
            return empty, empty
        slots = np.searchsorted(self.values, probe_values)
        found = self.values.take(slots, mode="clip") == probe_values
        return self.offsets[slots], self.offsets[slots + found]

    def fetch(self, lows, highs):
        """``(row_ids, range_indices)`` of the entries in the given
        ranges: every heap row id, and which range it came from."""
        return gather_ranges(self.row_ids, lows, highs)

    def lookup_eq(self, prefix_values):
        """Row ids matching equality on a leading prefix of key columns."""
        prefix_values = tuple(prefix_values)
        if len(prefix_values) > len(self.definition.columns):
            raise ValueError("prefix longer than the index key")
        (lo,), (hi,) = self.ranges(prefix_values[:1])
        if len(prefix_values) == 1:
            return self.row_ids[lo:hi]
        mask = np.ones(hi - lo, dtype=bool)
        for column, values, value in zip(
            self.inner_columns, self.inner_values, prefix_values[1:]
        ):
            if values is not None:
                value = code_bound(values, "=", value)
            mask &= column[lo:hi] == value
        return self.row_ids[lo:hi][mask]
