"""Dictionary-encoded columns: shared value/frequency statistics.

Every stage of the benchmark pipeline needs per-column *value
information*: the constant-selection ladders re-derive value/frequency
pairs per template instantiation, the executor factorizes join and
group keys per query, statistics collection counts distinct values per
column, and index builds sort the same columns again.  Before this
module each consumer called ``np.unique`` independently — a full sort
of the column every time, which profiling shows dominating the fig4
pipeline.

A :class:`ColumnDictionary` computes a column's dictionary **once**,
and its construction fixes the column's codes — one pass that depends
on nothing but the column — and keeps no order:

* an **integer** column (int16, int32 or int64: the narrowest its
  table stores it in) whose values span no more than its rows
  (``max - min <= n``) is *counted*: ``bincount(value - min)`` gives
  the values and counts, and a rank table gathers the codes, with no
  sort; one whose span packs beside a row position
  (``bit_length(max - min) + bit_length(n - 1) <= 62``) sorts
  ``(value - min) << bits | position``, computed in int64, once,
  reads the sorted unique values and their counts off that array and
  scatters each entry's code through its low bits, then drops them.
  Its order is an integer sort of the codes, taken when an index
  build first asks (:meth:`ColumnDictionary.argsort`);
* an **object** column is *encoded*, once, when its table is loaded:
  one hash pass sorts the *distinct* values, every row looks its slot
  up, the counts are a ``bincount`` — no ``n log n`` sort of Python
  strings, and its argsort is an integer sort of the codes when first
  asked for.  The result is **coded**: the table stores the
  codes as the column and keeps no object array per row
  (:class:`~repro.storage.table.Table`), so the dictionary's ``base``
  *is* its ``codes``.  A generated column drawn from a pool is encoded
  off its int32 pool indices without gathering its strings: only the
  pool is hashed — once per pool, whichever columns draw from it — and
  the rows take integer passes (:meth:`ColumnDictionary.from_pool`);
* **anything else** (floats, integers too wide to pack) takes
  ``np.unique``; on first use its codes are scattered back through
  one plain ``argsort`` of the column, and sorted for its stable
  argsort.

A dictionary also has a **domain**: a sorted array of distinct values
its own ``values`` are drawn from, with ``ranks`` — each value's int32
position in the domain.  A dictionary drawn from a pool has the pool's
hashed distinct values as its domain, one array for every column of
that pool; any other is its own domain.  Ranks are order-isomorphic to
the values, so two dictionaries with one domain (``is``) are located in
each other by bisecting integers (:func:`locate`), never Python
strings.

Four bytes a row, and only where an index reads it: every table-sized
*position* the layer keeps — a dictionary's ``argsort()``, every
:func:`stable_order`, the memoized ``lexsort`` orders and through them
an index's ``row_ids`` — is int32, always, and exists only once an
index build (or another reader of an order) asked for it; a table
holds at most ``2**31 - 1`` rows
(:class:`~repro.storage.table.Table` refuses more), so there is no
wider path to choose.  Two bytes a code: a dictionary's ``codes`` are
in the narrowest of int16 and int32 that holds its largest code
(:func:`code_dtype`) — int16 for at most 32 768 values — however they
were made (scattered, hashed, :meth:`~ColumnDictionary.from_codes`,
:meth:`~ColumnDictionary.from_pool`), and an extension that takes a
dictionary past 32 768 values moves its codes into a fresh int32
buffer, never wraps them.  The packed sorts themselves stay int64 and
narrow only the positions they hand out, and whoever adds to,
multiplies or shifts codes widens them first (the rule and its sites
are stated once, in :mod:`repro.executor.batch`).  What NumPy uses as
an *index* stays ``intp`` on the consumer's side: the ``d + 1`` run
offsets, selection vectors, densified codes.

A :class:`DictionaryCache`, owned by a
:class:`~repro.engine.database.Database` and invalidated through its
``invalidate_caches`` path, shares one dictionary per ``(table,
column)`` across all four consumers:

* :mod:`repro.workload.constants` serves the selectivity/frequency
  ladders from the cached dictionary;
* :mod:`repro.executor.batch` reads a scanned key's codes off the
  dictionary — ``codes`` through the batch's selection vector, never
  a re-encode of gathered values — and densifies them with a presence
  scan instead of sorting every intermediate;
* :mod:`repro.stats.column_stats` reads distinct counts and frequency
  histograms straight off the dictionary;
* :mod:`repro.index.data` takes its row-id permutation from
  :meth:`DictionaryCache.lexsort` — the memoized order itself, one
  read-only array shared by every index keyed on the same columns —
  and its leading key from the dictionary's ``values`` and ``counts``
  instead of a sorted copy of the column.

Codes are ordered by :func:`stable_order` — a dictionary's argsort,
every ``lexsort`` level of a key tuple too wide to pack, a frequency
order, a join's build side: codes and row positions packed into one
int64 per row, the same packing (and the same helpers) the integer
construction uses.  A key tuple whose codes pack beside a position is
one combined code per row, sorted once
(:meth:`DictionaryCache.lexsort`).

The layer never changes an output: each dictionary product is checked
against the NumPy call it replaces (``np.unique``, ``np.lexsort``) in
``tests/test_encoding.py``.

Consistency: a dictionary is valid exactly as long as its base storage
array is.  A coded column's dictionary is its table's storage, so it
is never stale: :meth:`DictionaryCache.dictionary` takes the table's
own as the column's entry, and an append grows it in the table
(:meth:`ColumnDictionary.appended`) — its tail's codes written behind
the stored ones while it brings no new value, else the one remapped
copy.  For any other column the cache verifies *array identity* on
every lookup — an entry whose base array is no longer the table's
current storage array (a reloaded table; a rebuilt view is a new
``Table``) is rebuilt, never served.  ``append_rows`` publishes
every column as a new, longer array too, but ``Database.insert_rows``
appends through :meth:`DictionaryCache.append_rows`, which leaves the
table's live dictionaries owing the appended rows instead of letting
them go stale; the first lookup *extends* one by every row it owes
(:meth:`ColumnDictionary.extended`) — keeping ``values`` itself when
the rows bring no new value, which is what lets a join domain merged
from it survive the insert
(:class:`~repro.executor.subplan.SubplanCache`).
:meth:`DictionaryCache.invalidate`, called from
``Database.invalidate_caches`` on every state transition, sweeps out
entries that fail the identity check; entries for untouched base
tables survive, which is what lets one dictionary serve workload
generation, every query, and every index build across configuration
changes.
"""

import math
import threading

import numpy as np

from .. import obs
from ..common.cache import CacheStats
from .types import narrowest_int


# Width of the position grid in :func:`_sort_with_positions` (rows per line).
_GRID = 1 << 12


def appended(column, tail, spare=None):
    """``(column + tail, buffer)``: the concatenation as a prefix view
    of ``buffer``, in the dtype the two promote to.

    When ``column`` is itself a prefix of ``spare``, the buffer has
    room and ``tail`` needs no wider dtype, only ``tail`` is written,
    behind it; otherwise the rows move into a new buffer with an eighth
    more room than they fill — of the wider dtype, when ``tail`` needs
    one (a narrowest-dtype tail of a narrowest-dtype column promotes to
    the narrowest dtype that holds both), so nothing is ever wrapped.
    Nothing below ``len(column)`` is ever written, so ``column`` — like
    every prefix handed out before it — keeps its contents.  A buffer must
    have one owner, which hands it on to the owner of the result.
    """
    rows, total = len(column), len(column) + len(tail)
    dtype = np.result_type(column, tail)
    if (spare is None or column.base is not spare or len(spare) < total
            or dtype != column.dtype):
        spare = spare_buffer(total, dtype)
        spare[:rows] = column
    spare[rows:total] = tail
    return spare[:total], spare


def code_dtype(n_distinct):
    """The dtype of codes into ``n_distinct`` values: int16 up to
    32 768 values, else int32 (never int64: a table holds fewer than
    ``2**31`` rows, so a dictionary fewer values)."""
    return narrowest_int(0, n_distinct - 1)


def spare_buffer(rows, dtype):
    """An empty buffer for ``rows`` rows and an eighth more."""
    return np.empty(rows + rows // 8, dtype=dtype)


def _sort_with_positions(packed):
    """Sort ``packed`` in place after OR-ing every element's position
    into its (zero) low bits.

    Positions are OR-ed in as line start + offset over a 2-D view: a
    full-length ``arange`` would be a second array of the column's
    size, allocated and first-touched only to be thrown away — which
    costs several times the sort itself.
    """
    n = len(packed)
    full = n - n % _GRID
    grid = packed[:full].reshape(-1, _GRID)
    grid |= np.arange(0, full, _GRID, dtype=np.int64)[:, None]
    grid |= np.arange(_GRID, dtype=np.int64)
    packed[full:] |= np.arange(full, n, dtype=np.int64)
    packed.sort()


def _packs(span, rows):
    """Position bits of a ``rows``-long column when keys in
    ``[0, span]`` pack beside a row position in one int64, else
    ``None`` (``bits(span) + bits(rows - 1) > 62``)."""
    bits = max(rows - 1, 0).bit_length()
    return bits if span.bit_length() + bits <= 62 else None


def stable_order(codes, span):
    """Stable argsort (int32) of integer ``codes``, all in ``[0, span)``.

    Row ``i`` is sorted as the single integer ``codes[i] << bits | i``
    (``bits`` wide enough for every position), and the low bits of the
    sorted array are the permutation.  The packed integers are
    distinct and ordered by (code, position) — the order that defines
    a stable sort — so any plain integer sort returns exactly
    ``np.argsort(codes, kind="stable")``, several times faster than
    the merge/radix sort that has to carry an index array along.
    Keys too wide to pack beside a position (``bits(span) + bits(n)
    > 62``) take the ``argsort`` itself.

    The packing is int64 whatever the codes' dtype (the shift widens
    int16 and int32 codes first); only the positions handed out are
    narrowed.

    This is the ordering primitive for codes: a dictionary's
    ``argsort()``, ``lexsort`` levels, ``by_frequency``, the join build
    side.
    """
    obs.counter_add("encoding.sorts")
    bits = _packs(max(span - 1, 0), len(codes))
    if bits is None:
        return np.argsort(codes, kind="stable").astype(np.int32)
    packed = np.left_shift(codes, bits, dtype=np.int64)
    _sort_with_positions(packed)
    return _positions(packed, bits)


def _combined_order(dictionaries, bits):
    """Stable int32 order of the rows by the dictionaries' codes, the
    first most significant: each row's codes combined into one integer
    (``c0 * d1 + c1``, and so on), which — packed beside its position
    in ``bits`` low bits — one integer sort orders."""
    obs.counter_add("encoding.sorts")
    packed = dictionaries[0].codes.astype(np.int64)
    for dictionary in dictionaries[1:]:
        packed *= dictionary.n_distinct
        packed += dictionary.codes
    packed <<= bits
    _sort_with_positions(packed)
    return _positions(packed, bits)


def _positions(packed, bits):
    """The low ``bits`` of every packed key — row positions — as int32."""
    positions = np.empty(len(packed), dtype=np.int32)
    np.bitwise_and(packed, (1 << bits) - 1, out=positions)
    return positions


def _integer_dictionary(base):
    """``(values, counts, codes)`` of an integer column, or ``None``
    when its value span packs beside no row position.

    A column whose values span no more than its rows (``max - min <=
    rows``, an empty one too) is *counted*: ``bincount(base - min)``
    holds every value's count at its offset, the offsets that occur
    are the values, and a rank table over the offsets gathers the
    codes — no sort.  Any other sorts once: row ``i`` as ``(base[i] -
    min) << bits | i``, in int64 whatever the column's dtype (an int16
    ``base - min`` would wrap).  In the sorted array the high bits are the column in order —
    every change starts a new dictionary entry, the run lengths are
    the counts — and the low bits its stable argsort, through which
    each row's run rank is scattered back as its code; the order
    itself is dropped.  ``values`` keep the column's dtype, ``codes``
    are in :func:`code_dtype`.
    """
    rows = len(base)
    low, high = (int(base.min()), int(base.max())) if rows else (0, 0)
    span = high - low
    if span <= rows:
        offsets = np.subtract(base, low, dtype=np.intp)
        counts = np.bincount(offsets)
        present = np.flatnonzero(counts)
        rank = np.zeros(len(counts), dtype=code_dtype(len(present)))
        rank[present] = np.arange(len(present))
        return (
            (present + low).astype(base.dtype), counts[present],
            rank[offsets],
        )
    bits = _packs(span, rows)
    if bits is None:
        return None
    packed = np.subtract(base, low, dtype=np.int64)
    packed <<= bits
    _sort_with_positions(packed)
    order = _positions(packed, bits)
    packed >>= bits
    starts = np.concatenate(
        ([0], np.flatnonzero(packed[1:] != packed[:-1]) + 1)
    )
    values = (packed[starts] + low).astype(base.dtype)
    del packed
    counts = np.diff(starts, append=rows)
    dtype = code_dtype(len(values))
    codes = np.empty(rows, dtype=dtype)
    codes[order] = np.repeat(np.arange(len(values), dtype=dtype), counts)
    return values, counts, codes


def _find_sorted(sorted_values, values):
    """``(slots, found)``: where each of ``values`` sorts into the
    sorted array ``sorted_values`` (``searchsorted``), and whether it is
    the entry there."""
    slots = np.searchsorted(sorted_values, values)
    found = np.zeros(len(values), dtype=bool)
    inside = slots < len(sorted_values)
    found[inside] = sorted_values[slots[inside]] == values[inside]
    return slots, found


def locate(own, other):
    """``(slots, found)`` of the dictionary ``own``'s values in the
    dictionary ``other`` — ``other.find(own.values)``.

    Two dictionaries with one domain bisect their ranks instead: ranks
    are order-isomorphic to the values, and equal ranks are equal
    values, so the slots and flags are the same.  Only dictionaries
    that share no domain (a view's column, a column loaded without its
    pool, two columns of different pools) compare values.
    """
    if own.domain is other.domain:
        return _find_sorted(other.ranks, own.ranks)
    return other.find(own.values)


def code_bound(values, op, literal):
    """The code standing for ``literal`` when a column coded against
    the sorted ``values`` is compared ``codes op code``: the rows that
    compare true are those of ``values[codes] op literal``, for each
    of ``=``, ``<>``, ``<``, ``<=``, ``>`` and ``>=``.

    A literal absent from ``values`` is ``-1`` for ``=`` and ``<>`` (no
    code equals it); for an order it is the boundary between the
    values below and above it.
    """
    low = int(np.searchsorted(values, literal, side="left"))
    if op in ("=", "<>"):
        return low if low < len(values) and values[low] == literal else -1
    if op in ("<", ">="):
        return low
    return int(np.searchsorted(values, literal, side="right")) - 1


def _hashed_dictionary(base):
    """``(values, counts, codes)`` of an object column.

    A column whose neighbours strictly increase (one generated in
    order: an id column, a pool of ids) is its own dictionary, found
    by one vectorized comparison.  Any other takes one hash pass: only
    the *distinct* values are sorted (Python compares), every row then
    looks its slot up, and the counts are a ``bincount`` of the codes.
    """
    if (base[1:] > base[:-1]).all():
        n = len(base)
        return base, np.ones(n, np.int64), np.arange(n, dtype=code_dtype(n))
    rows = base.tolist()
    distinct = sorted(set(rows))
    slot_of = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(
        map(slot_of.__getitem__, rows), dtype=code_dtype(len(distinct)),
        count=len(rows),
    )
    values = np.fromiter(distinct, dtype=object, count=len(distinct))
    return values, np.bincount(codes, minlength=len(distinct)), codes


class ColumnDictionary:
    """The dictionary of one column: sorted uniques, counts, codes.

    Attributes:
        base: the storage array the dictionary describes (held so
            validity can be checked by identity): a numeric column's
            values, or — for a *coded* column, whose storage is the
            dictionary — the codes themselves.
        values: sorted unique values (``np.unique`` order).
        counts: occurrence count of each unique value.
        domain: the sorted distinct values ``values`` is drawn from —
            its pool's, for a column drawn from a pool, else ``values``
            itself; ``ranks`` places each value in it.

    Construction fixes ``values``, ``counts`` and ``codes``, and what
    it does depends on the column alone: an integer column (of any
    width) whose values span no more than its rows is counted, one
    whose span packs beside a row position takes one integer sort,
    and either holds its codes from then on — but no order; an object
    column is *encoded* — one hash pass for ``values``, ``counts`` and
    ``codes`` — and the result is coded: its ``base`` is its codes,
    and the object array is not kept (a column drawn from a pool is
    encoded off its pool indices, :meth:`from_pool`); any other column
    (floats, integers too wide to pack) takes ``np.unique`` and
    scatters its codes through one ``argsort`` of
    the column on first use.  ``codes`` are in :func:`code_dtype` of
    ``n_distinct`` (int16 for at most 32 768 values, else int32),
    ``argsort()`` is int32 and exists only once asked for (an index
    build asks).  Whatever construction did not produce — and the
    frequency-ordered views — is derived lazily from immutable inputs,
    so a racing
    double-compute in a session worker pool is deterministic and
    harmless (the same last-writer-wins convention as
    :meth:`~repro.common.cache.BoundedCache.get_or_build`).
    """

    __slots__ = (
        "base", "values", "counts", "domain", "_ranks",
        "_codes", "_spare", "_argsort", "_freq_order",
        "_freq_counts_f64", "_freq_histogram",
    )

    def __init__(self, values):
        base = np.asarray(values)
        codes = None
        built = _integer_dictionary(base) if base.dtype.kind == "i" else None
        if base.dtype == object:
            values, counts, codes = _hashed_dictionary(base)
            base = codes
        elif built is not None:
            values, counts, codes = built
        else:
            values, counts = np.unique(base, return_counts=True)
        self._set(base, values, counts, codes)

    @classmethod
    def from_codes(cls, codes, values, domain=None, ranks=None):
        """The coded dictionary of a column whose row ``i`` holds
        ``values[codes[i]]``: ``values`` sorted and distinct, ``codes``
        integers into them.

        Entries no row holds drop out and the codes are renumbered, so
        ``values``, ``counts`` and ``codes`` — in :func:`code_dtype` of
        the values held — are those of encoding the column's values;
        ``values`` carries over — the same array — when every entry is
        held.  The domain is ``domain`` (with
        ``ranks``, each of ``values``' position in it) when given, else
        ``values`` itself; dropped entries keep their ranks in it.
        """
        counts = np.bincount(codes, minlength=len(values))
        drawn = counts > 0
        if not drawn.all():
            kept = np.flatnonzero(drawn)
            # The renumbering table is in the new codes' dtype, so the
            # gather writes them narrow.
            codes = (np.cumsum(drawn) - 1).astype(code_dtype(len(kept)))[
                codes
            ]
            if domain is None:
                domain = values
            ranks = kept.astype(np.int32) if ranks is None else ranks[kept]
            values, counts = values[kept], counts[kept]
        codes = codes.astype(code_dtype(len(values)), copy=False)
        dictionary = cls.__new__(cls)
        dictionary._set(
            codes, values, counts, codes, domain=domain, ranks=ranks
        )
        return dictionary

    @classmethod
    def from_pool(cls, pool, rows, hashed=None):
        """The coded dictionary of the column ``pool[rows]`` (``rows``
        int32 pool indices), read off the indices: the column's values
        are never gathered, and the rows' codes are gathered from the
        pool's in the pool's code dtype, never in int32 first.

        Only the pool is hashed — and once per pool when the caller
        keeps ``hashed``, a dict that memoizes each pool's
        ``_hashed_dictionary`` by ``id`` (the entry holds the pool, so
        no other array can take its id).  The rows take integer passes
        (:meth:`from_codes`): pool entries that hold one value share a
        code, and entries no row draws drop out, so ``values``,
        ``counts`` and ``codes`` (dtypes included) are those of
        ``ColumnDictionary(pool[rows])``.  The pool's distinct values
        are the ``domain``, and the drawn ones' positions in it the
        ``ranks``; a column that draws every value has the domain as
        its ``values``.
        """
        entry = None if hashed is None else hashed.get(id(pool))
        if entry is None:
            entry = (pool, _hashed_dictionary(pool))
            if hashed is not None:
                hashed[id(pool)] = entry
        distinct, _, slots = entry[1]
        return cls.from_codes(slots[rows], distinct, domain=distinct)

    def recoded(self, codes):
        """The coded dictionary of a column whose row ``i`` holds
        ``values[codes[i]]`` of this one — a view's group column:
        :meth:`from_codes` over these values, in this domain."""
        return ColumnDictionary.from_codes(
            codes, self.values, self.domain, self._ranks
        )

    def _set(self, base, values, counts, codes=None, spare=None,
             domain=None, ranks=None):
        self.base = base
        self.values = values
        self.counts = counts
        # No ranks: ``values`` is the whole domain, and rank i is i.
        self.domain = values if domain is None else domain
        self._ranks = ranks
        self._codes = codes
        # The buffer ``codes`` is a prefix of, when it has room behind
        # them (an extension writes its tail's codes there).
        self._spare = spare
        self._argsort = None
        self._freq_order = None
        self._freq_counts_f64 = None
        self._freq_histogram = None

    # A coded dictionary is a table's column and pickles with it: its
    # codes, values, counts, domain and ranks.  The spare capacity and
    # what is derived lazily are rebuilt when next needed.

    def __getstate__(self):
        if not self.coded:
            raise TypeError("only a coded column's dictionary pickles")
        return self.base, self.values, self.counts, self.domain, self._ranks

    def __setstate__(self, state):
        codes, values, counts, domain, ranks = state
        # A pickle written before codes were narrowed holds int32.
        codes = codes.astype(code_dtype(len(values)), copy=False)
        self._set(codes, values, counts, codes, domain=domain, ranks=ranks)

    @property
    def coded(self):
        """Whether the column is stored as this dictionary: its
        ``base`` is its ``codes``."""
        return self._codes is self.base

    def extended(self, base):
        """The dictionary of ``base``, an array that continues this
        dictionary's (numeric) base column with appended rows.

        Only the tail gets a dictionary of its own, and :meth:`_grown`
        merges it in.  Equal to ``ColumnDictionary(base)`` in
        ``values`` (their dtype too: that of a column an append
        widened), ``counts`` and ``codes``; the column must be NaN-free
        (``np.unique`` merges NaNs, ``==`` does not find them again).
        """
        return self._grown(ColumnDictionary(base[len(self.base):]), base)

    def appended(self, tail):
        """The coded dictionary of this coded column with the values
        ``tail`` appended: the tail is encoded, and :meth:`_grown`
        merges its codes in.  Equal to encoding the whole column's
        values; the result's ``base`` is its codes."""
        return self._grown(
            ColumnDictionary(np.asarray(tail, dtype=object)), None
        )

    def _grown(self, tail, base):
        """This dictionary with the dictionary ``tail`` of appended
        rows merged in; ``base`` is the whole numeric column, or
        ``None`` for a coded one (the result's codes are its base).
        An integer or coded dictionary always has codes, so its result
        does too; a float one carries them once they were read.

        When the tail brings no value this dictionary lacks, ``values``
        carries over — the same array — its counts are added, and the
        tail's codes are written behind the dense codes in their spare
        capacity, which passes to the result
        (:func:`appended`).  Otherwise its unseen values are spliced
        into ``values`` and the codes remapped through a monotone
        shift table into a new buffer: the one copy of the codes, in
        the :func:`code_dtype` of the grown values — int32 once they
        pass 32 768, so an extension widens its codes, never wraps
        them.

        The domain carries over while every tail value is in it: a
        pooled dictionary ranks the tail's *distinct* values by one
        bisect into the domain and finds them among its own by their
        ranks; a value outside the domain makes the result its own
        domain.  Kept values keep their domain and ranks with them.
        """
        tail_values, tail_counts = tail.values, tail.counts
        known = len(self.values)
        rows = self.row_count + tail.row_count
        domain = tail_ranks = None
        if self.domain is not self.values:
            tail_ranks, inside = _find_sorted(self.domain, tail_values)
            if inside.all():
                domain = self.domain
        if domain is None:
            slots, seen = self.find(tail_values)
        else:
            slots, seen = _find_sorted(self.ranks, tail_ranks)
        grown = ColumnDictionary.__new__(ColumnDictionary)
        if seen.all():
            counts = self.counts.copy()
            counts[slots] += tail_counts
            codes = spare = None
            if self._codes is not None:
                codes, spare = appended(
                    self._codes, slots.astype(self._codes.dtype)[tail.codes],
                    self._spare,
                )
                # The buffer has one owner: extending this dictionary
                # again must not write over the result's tail.
                self._spare = None
            grown._set(
                codes if base is None else base, self.values, counts,
                codes, spare=spare, domain=self.domain, ranks=self._ranks,
            )
            return grown
        unseen = ~seen
        # In ``base``'s dtype: rows that widened the column brought a
        # value the old dtype cannot hold, so they always land here.
        values = np.insert(
            self.values if base is None
            else self.values.astype(base.dtype, copy=False),
            slots[unseen], tail_values[unseen],
        )
        ranks = None
        if domain is not None:
            ranks = np.insert(self.ranks, slots[unseen], tail_ranks[unseen])
        # Old entry i moves up by the number of unseen values spliced
        # in at or before it.
        moved = np.arange(known) + np.cumsum(
            np.bincount(slots[unseen], minlength=known + 1)
        )[:known]
        # np.insert puts the j-th unseen value at slots + j.
        tail_slots = np.empty(len(tail_values), dtype=np.int64)
        tail_slots[unseen] = slots[unseen] + np.arange(unseen.sum())
        tail_slots[seen] = moved[slots[seen]]
        counts = np.zeros(len(values), dtype=self.counts.dtype)
        counts[moved] = self.counts
        counts[tail_slots] += tail_counts
        codes = spare = None
        if self._codes is not None:
            spare = spare_buffer(rows, code_dtype(len(values)))
            np.take(
                moved.astype(spare.dtype), self._codes,
                out=spare[:self.row_count],
            )
            spare[self.row_count:rows] = tail_slots[tail.codes]
            codes = spare[:rows]
        grown._set(
            codes if base is None else base, values, counts, codes,
            spare=spare, domain=domain, ranks=ranks,
        )
        return grown

    @property
    def codes_bytes(self):
        """Bytes the codes hold, the spare capacity behind them
        included (0 while there are none)."""
        if self._codes is None:
            return 0
        return (self._codes if self._spare is None else self._spare).nbytes

    @property
    def n_distinct(self):
        """Number of distinct values in the column."""
        return len(self.values)

    @property
    def row_count(self):
        """Number of rows in the base column."""
        return len(self.base)

    @property
    def ranks(self):
        """The int32 position of every value in ``domain``."""
        if self._ranks is None:
            return np.arange(self.n_distinct, dtype=np.int32)
        return self._ranks

    @property
    def codes(self):
        """Dense code of every row, in :func:`code_dtype` of
        ``n_distinct``: ``values[codes]`` is the column (the base of a
        numeric one; a coded one's base is these codes).

        Identical to ``np.unique(column, return_inverse=True)``'s
        inverse: codes are ranks into the sorted dictionary, and every
        dictionary value occurs in the column, so the codes are dense.
        A coded or an integer column has them from construction.  Any
        other (a float column) scatters them on first read through one
        plain ``argsort`` of the column — the sorted column's codes are
        each ``arange(d)`` entry repeated by its count, whatever order
        equal rows take among themselves.
        """
        if self._codes is None:
            order = np.argsort(self.base)
            dtype = code_dtype(self.n_distinct)
            codes = np.empty(self.row_count, dtype=dtype)
            codes[order] = np.repeat(
                np.arange(self.n_distinct, dtype=dtype), self.counts
            )
            self._codes = codes
        return self._codes

    def codes_from(self, start):
        """``codes[start:]``, without scattering the codes of a column
        that holds none: its rows from ``start`` on bisect ``values``
        (a float column — a coded or integer one always holds its
        codes)."""
        if self._codes is not None:
            return self._codes[start:]
        return np.searchsorted(self.values, self.base[start:]).astype(
            code_dtype(self.n_distinct)
        )

    def argsort(self):
        """Stable int32 argsort of the base column (cached).

        Identical to ``np.lexsort((base,))``.  Taken on first call —
        construction keeps no order — by sorting the codes: they are
        order-isomorphic to the values, and stable sorts are unique,
        so that is the permutation sorting the raw (possibly string)
        array would give.  The array is read-only: indexes hold it as
        their row ids.
        """
        if self._argsort is None:
            order = stable_order(self.codes, self.n_distinct)
            order.setflags(write=False)
            self._argsort = order
        return self._argsort

    def find(self, values):
        """``(slots, found)``: where each of ``values`` sorts into the
        dictionary (``searchsorted``), and whether it is the entry
        there; ``values`` may hold anything.  Another dictionary's
        values are found with :func:`locate`."""
        return _find_sorted(self.values, values)

    def by_frequency(self):
        """``(values, counts)`` sorted by ascending frequency, ties in
        value order (a stable sort by count; cached)."""
        if self._freq_order is None:
            self._freq_order = stable_order(
                self.counts, self.row_count + 1
            )
        order = self._freq_order
        return self.values[order], self.counts[order]

    def by_frequency_counts_f64(self):
        """Frequency-ordered counts pre-cast to float64 (cached).

        The selectivity ladder's distance computation re-cast the counts
        on every call; the cast is hoisted here.
        """
        if self._freq_counts_f64 is None:
            _, counts = self.by_frequency()
            self._freq_counts_f64 = counts.astype(np.float64)
        return self._freq_counts_f64

    def frequency_histogram(self):
        """``(freq_values, freq_of_freq)``: the frequency-of-frequency profile.

        ``np.unique(counts, return_counts=True)`` — shared by column
        statistics (the frequency profile behind ``HAVING COUNT(*)``
        selectivity) and the frequency ladder.
        """
        if self._freq_histogram is None:
            self._freq_histogram = np.unique(
                self.counts, return_counts=True
            )
        return self._freq_histogram


class ColumnHandle:
    """Lazy tie between a batch column and its table column's dictionary.

    Execution batches carry one per scanned key under
    ``Batch.encodings``: the dictionary is only resolved (and built)
    when an operator asks for the key's codes, so scanning a column
    never pays for a dictionary the query never factorizes.  Handles
    stay valid through every subsetting operation (mask/take/join):
    the batch keeps the base array behind a selection vector, and the
    dictionary's codes go through the same vector.
    """

    __slots__ = ("cache", "table", "column")

    def __init__(self, cache, table, column):
        self.cache = cache
        self.table = table
        self.column = column

    def dictionary(self):
        """Resolve (building or fetching) the column's dictionary."""
        return self.cache.dictionary(self.table, self.column)

    def decode(self, stored):
        """The values of ``stored``, entries of the column as it is
        stored: a coded column's codes looked up in its dictionary."""
        coded = self.table.dictionary(self.column)
        return stored if coded is None else coded.values[stored]

    def literal(self, op, value):
        """What the stored column compares with, ``op``, for ``value``:
        a coded column's :func:`code_bound`, any other's ``value``."""
        coded = self.table.dictionary(self.column)
        if coded is None:
            return value
        return code_bound(coded.values, op, value)


class DictionaryCache:
    """Per-database cache of :class:`ColumnDictionary` objects.

    Entries are keyed by ``(table name, column name)`` and validated by
    base-array identity on every access, so a stale entry (the table
    was reloaded, rows were appended behind the cache's back, a
    view was rebuilt under the same name) can never be served.  Owned by
    :class:`~repro.engine.database.Database`;
    :meth:`invalidate` is wired into ``Database.invalidate_caches``,
    which every mutator calls, like every other derived result.
    """

    def __init__(self):
        self.stats = CacheStats("dict_cache")
        self._lock = threading.Lock()
        # (table name, column) -> (Table, ColumnDictionary)
        self._entries = {}
        # (table name, column) -> the column array the entry's
        # dictionary is to be extended to (:meth:`append_rows`).
        self._owed = {}
        # Told of every values array an owed extension replaced.
        self._listeners = []
        # (table name, columns tuple) -> (Table, key arrays tuple, order)
        self._orders = {}

    def dictionary(self, table, column):
        """The dictionary of ``table.column(column)`` (built lazily once).

        Args:
            table: the owning :class:`~repro.storage.table.Table`.
            column: column name.

        Returns:
            The cached :class:`ColumnDictionary`; extended (a hit) when
            :meth:`append_rows` left it owing the rows up to the
            current storage array of the column, and otherwise, when
            its base array is not that array, replaced (and
            re-cached): by a coded column's own dictionary, which the
            table holds and nothing builds, or by a new build.
        """
        key = (table.name, column)
        values = table.column(column)
        extended, dead = False, None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._owed.get(key) is values:
                # Under the lock: one extension, however many threads
                # read the column first.
                old = entry[1].values
                entry = (entry[0], entry[1].extended(self._owed.pop(key)))
                self._entries[key] = entry
                extended = True
                # Columns drawing a whole pool share its values array.
                if not any(held[1].values is old
                           for held in self._entries.values()):
                    dead = old
        if extended:
            obs.counter_add("encoding.dict_extends")
        if dead is not None:
            for listener in self._listeners:
                listener(dead)
        if entry is not None and entry[1].base is values:
            with self._lock:
                self.stats.hits += 1
            obs.counter_add("encoding.dict_hits")
            return entry[1]
        with self._lock:
            self.stats.misses += 1
        dictionary = table.dictionary(column)
        if dictionary is None:
            dictionary = ColumnDictionary(values)
            obs.counter_add("encoding.dict_builds")
        with self._lock:
            self._entries[key] = (table, dictionary)
            self._owed.pop(key, None)
        return dictionary

    def append_rows(self, table, columns):
        """``table.append_rows(columns)``, carrying the table's
        dictionaries across; returns the number of rows appended.

        ``Table.append_rows`` publishes new column arrays, which on
        its own orphans every entry of the table.  A coded column's
        dictionary is its storage, which the append grew: a live entry
        takes the grown one.  Each other entry that is
        live before the append — its base is the column, or it owes
        the rows up to it — is instead left owing the rows up to the
        new array, and :meth:`dictionary` extends it there on its
        first lookup (:meth:`ColumnDictionary.extended` accepts any
        number of appended rows): a column no one reads between
        inserts is never extended, and one read after several is
        extended once.
        """
        with self._lock:
            live = [
                key for key, entry in self._entries.items()
                if key[0] == table.name and self._live(key, entry)
            ]
        appended = table.append_rows(columns)
        with self._lock:
            for key in live:
                coded = table.dictionary(key[1])
                if coded is None:
                    self._owed[key] = table.column(key[1])
                else:
                    self._entries[key] = (table, coded)
        return appended

    def _live(self, key, entry):
        """Whether ``entry``'s dictionary is its column's, or owes the
        rows up to it."""
        column = entry[0].column(key[1])
        return entry[1].base is column or self._owed.get(key) is column

    def handle(self, table, column):
        """A lazy :class:`ColumnHandle` for a batch column."""
        return ColumnHandle(self, table, column)

    def lexsort(self, table, columns):
        """The permutation ``np.lexsort`` would produce for ``columns``.

        ``columns[0]`` is the most significant (leading) key, matching
        ``np.lexsort(tuple(reversed(arrays)))`` in the index build.
        One column's is its dictionary's ``argsort()``.  A tuple whose
        codes pack beside a row position — the product of their
        ``n_distinct`` and a position within 62 bits — is one combined
        code per row (``c0 * d1 + c1``, and so on), sorted by one
        integer sort as :func:`stable_order` sorts codes.  A wider tuple
        takes the textbook sequence of stable sorts from the least to
        the most significant key — each a :func:`stable_order` over
        cached *codes* — seeded with the least significant column's
        argsort, or the longest suffix order memoized before.  Stable
        sorts are unique, so the result is ``np.lexsort`` on the raw
        arrays, as int32.  The returned array is read-only and shared
        with later callers.

        The order is memoized per ``(table, column tuple)`` for as long
        as the table's columns stand — a wider tuple's every suffix
        too, and a packed one's no other: indexes on the same columns
        (and identical rebuilt indexes) share it.  So only what is
        built calls it — an index (:class:`~repro.index.data.IndexData`)
        and a single-table view (:func:`~repro.views.matview.build_view`);
        sizing a candidate view counts its key tuples without an order
        (``Database._hypothetical_view_size``).
        """
        columns = tuple(columns)
        order = self._peek_order(table, columns)
        if order is not None:
            return order
        dictionaries = [self.dictionary(table, c) for c in columns]
        bits = _packs(
            max(math.prod(d.n_distinct for d in dictionaries) - 1, 0),
            table.row_count,
        )
        if len(columns) == 1:
            order = dictionaries[0].argsort()
        elif bits is not None:
            order = _combined_order(dictionaries, bits)
        else:
            order = self._level_order(table, columns)
        self._store_order(table, columns, order)
        return order

    def _level_order(self, table, columns):
        """``lexsort`` of ``columns`` one stable sort per key, from the
        longest memoized suffix on, memoizing every suffix it sorts."""
        order = None
        # Longest cached suffix first.
        for depth in range(1, len(columns)):
            order = self._peek_order(table, columns[depth:])
            if order is not None:
                break
        if order is None:
            # Innermost seed: the last column's cached stable argsort.
            depth = len(columns) - 1
            order = self.dictionary(table, columns[-1]).argsort()
            self._store_order(table, columns[depth:], order)
        for depth in range(depth - 1, 0, -1):
            order = self._level(table, columns[depth], order)
            self._store_order(table, columns[depth:], order)
        return self._level(table, columns[0], order)

    def _level(self, table, column, order):
        """``order`` stably re-sorted by ``column``'s codes."""
        dictionary = self.dictionary(table, column)
        return order[
            stable_order(dictionary.codes[order], dictionary.n_distinct)
        ]

    def _peek_order(self, table, key_columns):
        """A memoized sort order, validated against the live key arrays.

        Identity of every key column's storage array is the validity
        criterion (``append_rows`` replaces arrays inside the same
        ``Table`` object, so table identity alone would be stale).
        """
        with self._lock:
            entry = self._orders.get((table.name, key_columns))
        if entry is None:
            return None
        _, arrays, order = entry
        for column, array in zip(key_columns, arrays):
            if table.column(column) is not array:
                return None
        obs.counter_add("encoding.codes_reused")
        return order

    def _store_order(self, table, key_columns, order):
        # Handed out to every index built on these columns as its
        # ``row_ids``: shared, so nobody may write to it.
        order.setflags(write=False)
        arrays = tuple(table.column(c) for c in key_columns)
        with self._lock:
            self._orders[(table.name, key_columns)] = (table, arrays, order)

    def resident_bytes(self):
        """Bytes the cache holds, by kind: every numeric dictionary's
        ``codes`` (an integer one's from construction, a float one's
        once read, with the spare capacity behind them; a coded
        column's are its table's storage, counted there), every
        dictionary's ``orders`` (argsorts some reader asked for),
        the memoized ``lexsorts`` that are no dictionary's argsort, and
        ``values`` (the ``d``-sized values and counts; an object
        array counts its pointers, not its strings)."""
        with self._lock:
            dictionaries = [entry[1] for entry in self._entries.values()]
            orders = [entry[2] for entry in self._orders.values()]
        argsorts = [
            d._argsort for d in dictionaries if d._argsort is not None
        ]
        held = {id(order) for order in argsorts}
        return {
            "codes": sum(
                d.codes_bytes for d in dictionaries if not d.coded
            ),
            "orders": sum(order.nbytes for order in argsorts),
            "lexsorts": sum(
                order.nbytes for order in orders if id(order) not in held
            ),
            "values": sum(
                d.values.nbytes + d.counts.nbytes for d in dictionaries
            ),
        }

    def live_values(self):
        """The ``id``s of the ``values`` of every dictionary whose base
        is still its table's column, or that owes the rows up to it.

        An owed extension keeps ``values`` when the rows bring no new
        value; one that replaces it tells the listeners
        (:meth:`on_values_replaced`) when it runs.
        """
        with self._lock:
            return frozenset(
                id(entry[1].values)
                for key, entry in self._entries.items()
                if self._live(key, entry)
            )

    def on_values_replaced(self, listener):
        """Call ``listener(values)`` whenever an owed extension
        replaces a dictionary's ``values`` array that no other cached
        dictionary holds: what was merged from it is dead from then
        on."""
        self._listeners.append(listener)

    def invalidate(self):
        """Sweep out entries no longer backed by their table's live arrays.

        Called from ``Database.invalidate_caches`` on every state
        transition.  Unlike the plan/environment caches — whose entries
        depend on configuration state — a dictionary depends only on
        its base array, so entries that still pass the identity check
        (the table's data did not change), or owe the rows up to it
        (:meth:`append_rows`), are kept; everything else (reloaded tables,
        rebuilt views, memoized sort orders of a grown table) is dropped.
        Access-time identity validation in :meth:`dictionary` makes
        this sweep a garbage collection, not a correctness
        requirement.
        """
        with self._lock:
            self._entries = {
                key: entry
                for key, entry in self._entries.items()
                if self._live(key, entry)
            }
            self._owed = {
                key: column for key, column in self._owed.items()
                if key in self._entries
                and self._entries[key][0].column(key[1]) is column
            }
            self._orders = {
                key: entry
                for key, entry in self._orders.items()
                if all(
                    entry[0].column(column) is array
                    for column, array in zip(key[1], entry[1])
                )
            }
            self.stats.invalidations += 1
        obs.counter_add("cache.dict_cache.invalidations")
