"""Execution batches: the late-materialized output of a physical
operator.

Batches are *views*: a scanned key is its table's storage array, an
optional ``sels`` selection vector (int64 row ids into that array) and
a lazy handle on the column's cached
:class:`~repro.storage.encoding.ColumnDictionary`, and stays that for
the life of the batch.  ``mask``/``take`` compose selection vectors
(``sel = sel[positions]``) without touching payload columns; values
are gathered only when an operator reads them (:meth:`Batch.column`,
memoized beside the base array).

A scanned string column is its codes (``Table`` stores no strings):
:meth:`Batch.column` hands them out as they are stored, a filter
compares them with its literal's code
(:meth:`~repro.storage.encoding.ColumnHandle.literal`), and
only what leaves the plan — group key values (:meth:`Batch.gather`)
and the root's columns (:meth:`Batch.materialize`) — is decoded, row
by row read.

There is one route to a key's codes: :meth:`Batch.key_codes` returns
the column's dictionary and that dictionary's ``codes`` through the
key's selection vector.  :func:`factorize` densifies such codes over
the dictionary (a presence scan, the ranks ``np.unique`` would assign)
and :func:`join_codes` merges two ``(dictionary, codes)`` sides over
the cached join domain of the dictionary pair.  Only scanned keys have
codes; aggregate outputs and derived labels exist at the plan's root
alone, where nothing factorizes them.

Widths.  Storage keeps sort orders and index row ids at four bytes a
row (int32), and a dictionary's ``codes`` at two or four: int16 while
it has at most 32 768 values, else int32
(:func:`~repro.storage.encoding.code_dtype`).  What NumPy uses as an
*index* is int64, because it casts a narrower index array on every
call, and each widening happens once, at the gather that takes the
rows out of storage: selection vectors (``sels``) are int64 —
``_scan_batch`` and :meth:`Batch.take` coerce the row ids and positions
they are handed, which is where an index's row ids and a join's build
order widen — and so are a key's codes behind a selection vector
(:meth:`Batch.key_codes`) and every densified code, which comes out of
a gather from an int64 rank table.  Only a *whole* column's codes
reach an operator as stored, int16 or int32 and uncopied, and one rule
covers all arithmetic on them: **a sum, product or shift of codes is
computed in int64** — NumPy adds ``int16 + 1`` in int16 and wraps
32 767 silently.  :func:`combine_codes` widens its accumulator,
``_count_distinct`` multiplies with ``dtype=np.int64``,
``Executor._index_ranges`` and ``IndexData.append`` add one to slots in
int64, and :func:`~repro.storage.encoding.stable_order` shifts with
``dtype=np.int64``; everything else that meets raw codes (the join
domain maps, slot tables, ``_member_flags``, the presence scans, filter
kernels) only indexes with them or compares them — comparisons with a
Python int outside their dtype are exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..storage.encoding import locate

_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class Batch:
    """Columnar intermediate result.

    ``columns`` maps batch keys (``"alias.column"`` or output labels) to
    arrays: a key listed in ``sels`` maps to its *base* array and
    ``sels[key]`` holds the ``rows`` row ids selecting from it; a key
    without a ``sels`` entry is a column of ``rows`` entries.
    ``length`` states ``rows`` outright for batches whose
    columns were all pruned.  ``weights``
    (optional) carries the row multiplicity introduced by
    pre-aggregated view rewrites; ``widths`` tracks per-key byte widths
    for spill accounting (and stays complete even when column pruning
    leaves a key unattached, so cost charges are representation-
    independent).  ``encodings`` maps every scanned key to the lazy
    dictionary handle of its column: ``columns[key]`` is that
    dictionary's base array, so the key's codes are the dictionary's
    codes behind the same ``sels`` entry (:meth:`key_codes`), which
    every subsetting operation (mask/take) preserves.
    """

    columns: dict
    widths: dict = field(default_factory=dict)
    weights: np.ndarray = None
    encodings: dict = field(default_factory=dict)
    sels: dict = field(default_factory=dict)
    length: int = None

    def __post_init__(self):
        # column()'s memo: the gathered values of a selected key, kept
        # beside its base array rather than in place of it.
        self._gathered = {}

    @property
    def rows(self):
        if self.length is not None:
            return self.length
        if not self.columns:
            return 0
        key, values = next(iter(self.columns.items()))
        return len(self.sels.get(key, values))

    @property
    def row_width(self):
        return sum(self.widths.values()) + 8

    def mask(self, keep):
        """A new batch with rows where ``keep`` is True."""
        return self._select(np.flatnonzero(keep), keep=keep)

    def take(self, positions):
        """A new batch gathered at integer positions (with repetition)."""
        return self._select(np.asarray(positions, dtype=np.int64))

    def _select(self, positions, keep=None):
        """Compose ``positions`` into every selection vector, copying
        nothing but the vectors themselves (and the weights)."""
        composed = {}
        sels = {}
        deferred = 0
        avoided = 0
        out_rows = len(positions)
        for key in self.columns:
            sel = self.sels.get(key)
            if sel is None:
                sels[key] = positions
            else:
                new = composed.get(id(sel))
                if new is None:
                    new = sel[positions]
                    composed[id(sel)] = new
                sels[key] = new
            deferred += 1
            avoided += out_rows * self.widths.get(key, 8)
        if deferred:
            obs.counter_add("executor.gathers_deferred", deferred)
            obs.counter_add("executor.gather_bytes_avoided", avoided)
        if self.weights is None:
            weights = None
        elif keep is not None:
            weights = self.weights[keep]
        else:
            weights = self.weights[positions]
        return Batch(
            columns=dict(self.columns),
            widths=dict(self.widths),
            weights=weights,
            encodings=dict(self.encodings),
            sels=sels,
            length=out_rows,
        )

    def selected(self, key):
        """Does ``key`` sit behind a selection vector?"""
        return key in self.sels

    def column(self, key):
        """The stored values of ``key`` (a string column's codes): the
        array itself, or — memoized — its gather through the key's
        selection vector."""
        sel = self.sels.get(key)
        if sel is None:
            return self.columns[key]
        values = self._gathered.get(key)
        if values is None:
            values = self._gathered[key] = self.columns[key][sel]
        return values

    def gather(self, key, positions):
        """Values of ``key`` at row ``positions``, decoded, without
        materializing the whole column (aggregate outputs read one
        value per group)."""
        sel = self.sels.get(key)
        values = self.columns[key]
        if sel is not None:
            positions = sel[positions]
        return self.decoded(key, values[positions])

    def decode(self, key):
        """The values of ``key``: :meth:`column`, decoded."""
        return self.decoded(key, self.column(key))

    def decoded(self, key, stored):
        """The values of ``stored``, entries of ``key``'s column as it
        is stored: a scanned string column's codes decoded, anything
        else as it is."""
        handle = self.encodings.get(key)
        return stored if handle is None else handle.decode(stored)

    def key_codes(self, key):
        """``(dictionary, codes)`` of a scanned key: its column's
        dictionary (resolved here, when an operator asks, not when the
        scan attaches) and that dictionary's codes of this batch's
        rows — the stored int16 or int32 array itself for a whole column,
        widened to int64 where they are gathered through a selection
        vector: operators index with them."""
        dictionary = self.encodings[key].dictionary()
        sel = self.sels.get(key)
        codes = dictionary.codes
        return dictionary, (
            codes if sel is None else codes[sel].astype(np.int64)
        )

    def materialize(self):
        """Turn the view into plain data: ``columns`` then holds
        gathered, decoded equal-length arrays, and nothing ties them
        to storage any more."""
        for key in self.columns:
            self.columns[key] = self.decode(key)
        self.sels = {}
        self.encodings = {}
        self._gathered = {}
        return self

    def weight_array(self):
        """Weights as floats; ``None`` when every row counts once."""
        if self.weights is None:
            return None
        return self.weights.astype(np.float64)


def _densify_dict_codes(codes, domain_size):
    """Dense ranks of dictionary-domain codes.

    ``codes`` index into a sorted dictionary of ``domain_size`` values;
    the dense rank of a row is the number of *present* dictionary
    values at or below its own — exactly the inverse that
    ``np.unique(values, return_inverse=True)`` assigns, computed with a
    presence scan instead of a sort.  The ranks are int64 whatever
    ``codes`` is: they are gathered from the int64 rank table.
    """
    present = np.zeros(domain_size, dtype=bool)
    present[codes] = True
    remap = np.cumsum(present) - 1
    return remap[codes]


# Presence arrays beyond this many slots stop paying for themselves;
# fall back to the sorting path instead of allocating them.
_DENSIFY_PRESENCE_CAP = 1 << 23


def _densify_ints(codes):
    """Dense ranks of a non-negative int array (``np.unique``'s inverse).

    Sort-free (presence scan) while the value range stays small
    relative to the array; otherwise the ``np.unique`` path.  Both
    assign ranks in ascending value order, so the output is identical.
    """
    if not len(codes):
        return codes.astype(np.int64)
    top = int(codes.max())
    if top < min(max(65536, 4 * len(codes)), _DENSIFY_PRESENCE_CAP):
        return _densify_dict_codes(codes, top + 1)
    _, dense = np.unique(codes, return_inverse=True)
    return dense.astype(np.int64, copy=False)


def factorize(dictionary, codes):
    """Dense group codes from a key's ``(dictionary, codes)``
    (:meth:`Batch.key_codes`): the inverse
    ``np.unique(values, return_inverse=True)`` assigns to the key's
    values.  The whole column's codes are dense as they are; a subset
    is densified over the dictionary.
    """
    if codes is dictionary.codes:
        return codes
    return _densify_dict_codes(codes, dictionary.n_distinct)


def combine_codes(code_arrays):
    """Combine multiple per-column code arrays into one code per row.

    The accumulator is int64 from the start: a whole column's raw
    int16 or int32 codes may come first, and ``combined * span`` must
    not wrap at 2**15 or 2**31.
    """
    if len(code_arrays) == 1:
        return code_arrays[0]
    combined = code_arrays[0].astype(np.int64)
    for codes in code_arrays[1:]:
        span = int(codes.max()) + 1 if len(codes) else 1
        cmax = int(combined.max()) if len(combined) else 0
        if span > 1 and cmax > (_INT64_MAX - (span - 1)) // span:
            # combined * span + codes would wrap int64 (three dense key
            # columns at a few million rows each already exceed 2**63).
            # Re-densifying caps the magnitude at the row count, after
            # which the product fits again.
            combined = _densify_ints(combined)
        combined = combined * span + codes
    # Re-densify to keep magnitudes bounded for further combining.
    return _densify_ints(combined)


def _merged_domain(left_dict, right_dict):
    """``(size, left map, right map)`` of two dictionaries' union.

    Both value arrays are sorted already, so nothing is sorted again:
    the right values are located among the left ones — by their ranks
    when the two share a domain (:func:`~repro.storage.encoding.locate`)
    — and each side's map is its own positions shifted by the other
    side's unseen values before them (what ``searchsorted`` into the
    ``union1d`` returns).
    """
    slots, found = locate(right_dict, left_dict)
    unseen = slots[~found]
    # Left entry i moves up by the unseen right values sorting before
    # it; the j-th unseen right value lands at its slot + j.
    left_map = np.arange(left_dict.n_distinct) + np.cumsum(
        np.bincount(unseen, minlength=left_dict.n_distinct + 1)
    )[:-1]
    right_map = np.empty(right_dict.n_distinct, dtype=np.int64)
    right_map[~found] = unseen + np.arange(len(unseen))
    right_map[found] = left_map[slots[found]]
    return left_dict.n_distinct + len(unseen), left_map, right_map


def _join_pair_codes(left, right, domains):
    """Joint dense codes for one join-key pair of ``(dictionary,
    codes)`` sides.

    The two dictionaries (one shared dictionary for a self-join,
    otherwise the union of the two sorted value sets, memoized
    per pair of value arrays in ``domains``, a
    :class:`~repro.executor.subplan.SubplanCache`) define a merged
    sorted domain; each side maps its codes in, and one presence scan
    over the merged domain assigns the dense ranks
    ``np.unique(np.concatenate([left values, right values]))`` would
    — int64 on both arms, gathered from the int64 rank table.
    """
    (left_dict, left_codes), (right_dict, right_codes) = left, right
    if left_dict is right_dict:
        domain = left_dict.n_distinct
    else:
        domain, left_map, right_map = domains.join_domain(
            (id(left_dict.values), id(right_dict.values)),
            (left_dict.values, right_dict.values),
            lambda: _merged_domain(left_dict, right_dict),
        )
        left_codes = left_map[left_codes]
        right_codes = right_map[right_codes]
    present = np.zeros(domain, dtype=bool)
    present[left_codes] = True
    present[right_codes] = True
    remap = np.cumsum(present) - 1
    return remap[left_codes], remap[right_codes]


def join_codes(left_keys, right_keys, domains):
    """Comparable integer codes for join keys across two batches.

    ``left_keys`` and ``right_keys`` hold one ``(dictionary, codes)``
    pair per join column (:meth:`Batch.key_codes`).  Each column pair
    is coded jointly over its merged dictionary domain, so equal values
    on either side get the same code; several columns combine into one
    code per row.
    """
    pairs = [
        _join_pair_codes(left, right, domains)
        for left, right in zip(left_keys, right_keys)
    ]
    if len(pairs) == 1:
        return pairs[0]
    n_left = len(pairs[0][0])
    combined = combine_codes([np.concatenate(pair) for pair in pairs])
    return combined[:n_left], combined[n_left:]
