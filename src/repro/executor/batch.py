"""Execution batches: the late-materialized output of a physical
operator.

Batches optionally carry per-column *encodings* — lazy references to
the owning database's cached :class:`~repro.storage.encoding.ColumnDictionary`
objects.  When present, :func:`factorize` and :func:`join_codes` skip
the ``np.unique`` full sort and derive dense codes from the cached
sorted dictionary instead (``searchsorted`` + a presence scan), with
byte-identical results.  Columns without an encoding (aggregate
outputs, derived labels) always take the ``np.unique`` sort path.

Batches are *views*: a batch carries arrays plus per-key ``sels``
selection vectors (int64 row ids into the attached array), and
``mask``/``take`` compose selection vectors (``sel = sel[positions]``)
without touching payload columns.  Values are gathered only when an
operator actually reads them (:meth:`Batch.column`), with dictionary
``codes`` subset lazily in lockstep.
"""

import threading
from dataclasses import dataclass, field

import numpy as np

from .. import obs

_INT64_MAX = np.iinfo(np.int64).max


class _OnesPool:
    """Shared read-only all-ones float64 array for default weights.

    ``Batch.weight_array`` sits in the aggregate hot loop and used to
    allocate a fresh ones array per call; every consumer treats the
    default weights as read-only (bincount inputs, elementwise
    multiplies), so one shared immutable buffer serves them all.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ones = np.ones(0, dtype=np.float64)
        self._ones.setflags(write=False)

    def get(self, n):
        with self._lock:
            ones = self._ones
        if len(ones) < n:
            ones = np.ones(max(n, 2 * len(ones)), dtype=np.float64)
            ones.setflags(write=False)
            with self._lock:
                if len(ones) > len(self._ones):
                    self._ones = ones
            obs.counter_add("executor.ones_allocations")
        return ones[:n]


_ONES = _OnesPool()


@dataclass
class Batch:
    """Columnar intermediate result.

    ``columns`` maps batch keys (``"alias.column"`` or output labels) to
    arrays: a key listed in ``sels`` maps to its *base* array and
    ``sels[key]`` holds the ``rows`` row ids selecting from it; a key
    without a ``sels`` entry is an already-gathered column of ``rows``
    entries.  ``length`` states ``rows`` outright for batches whose
    columns were all pruned.  ``weights``
    (optional) carries the row multiplicity introduced by
    pre-aggregated view rewrites; ``widths`` tracks per-key byte widths
    for spill accounting (and stays complete even when column pruning
    leaves a key unattached, so cost charges are representation-
    independent).  ``encodings`` (optional) maps a subset of batch keys
    to dictionary handles for sort-free factorization; an entry is only
    valid while the column's values remain drawn from the encoded base
    column, which every subsetting operation (mask/take) preserves.
    ``codes`` (optional) carries the dictionary codes of a further
    subset of the encoded keys *through* the operators: scans attach
    the base column's cached codes and mask/take subset them in
    lockstep with the values, so a downstream join or aggregation
    factorizes without re-encoding (``codes[key]`` is aligned with
    ``columns[key]`` under the same ``sels`` entry, so after gathering,
    ``codes[key][i]`` is always the dictionary code of
    ``columns[key][i]``).
    """

    columns: dict
    widths: dict = field(default_factory=dict)
    weights: np.ndarray = None
    encodings: dict = field(default_factory=dict)
    codes: dict = field(default_factory=dict)
    sels: dict = field(default_factory=dict)
    length: int = None

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
            codes=dict(self.codes),
            sels=sels,
            length=out_rows,
        )

    def selected(self, key):
        """Does ``key`` still sit behind an ungathered selection vector?"""
        return key in self.sels

    def column(self, key):
        """The materialized values of ``key``, gathering (memoized) if a
        selection vector is pending; codes gather in lockstep."""
        sel = self.sels.get(key)
        values = self.columns[key]
        if sel is None:
            return values
        values = values[sel]
        self.columns[key] = values
        carried = self.codes.get(key)
        if carried is not None:
            self.codes[key] = carried[sel]
        del self.sels[key]
        return values

    def gather(self, key, positions):
        """Values of ``key`` at row ``positions`` without materializing
        the whole column (aggregate outputs read one value per group)."""
        sel = self.sels.get(key)
        values = self.columns[key]
        if sel is None:
            return values[positions]
        return values[sel[positions]]

    def carried_codes(self, key):
        """The carried dictionary codes of ``key`` aligned to this
        batch's rows, or ``None``; never memoizes (a values/codes pair
        must only be cached together, in :meth:`column`)."""
        carried = self.codes.get(key)
        if carried is None:
            return None
        sel = self.sels.get(key)
        if sel is None:
            return carried
        return carried[sel]

    def dictionary_codes(self, key, dictionary):
        """Codes of ``key``'s rows in ``dictionary``, the dictionary
        its encoding resolves to: the carried codes, else the base
        column's cached codes through the selection vector, else an
        encode of the gathered values."""
        carried = self.carried_codes(key)
        if carried is not None:
            return carried
        if self.columns[key] is dictionary.base:
            sel = self.sels.get(key)
            return dictionary.codes if sel is None else dictionary.codes[sel]
        return dictionary.encode(self.column(key))

    def materialize(self):
        """Gather every pending column in place; ``columns`` then holds
        plain equal-length arrays."""
        for key in list(self.sels):
            self.column(key)
        return self

    def weight_array(self):
        """Weights as floats, defaulting to a shared read-only ones view."""
        if self.weights is None:
            return _ONES.get(self.rows)
        return self.weights.astype(np.float64)


def _resolve_encoding(encoding):
    """The :class:`ColumnDictionary` behind an encoding, or ``None``.

    Accepts a lazy :class:`~repro.storage.encoding.ColumnHandle` (the
    usual batch payload), an already-resolved dictionary, or ``None``.
    """
    if encoding is None:
        return None
    resolve = getattr(encoding, "dictionary", None)
    if callable(resolve):
        return resolve()
    return encoding


def _densify_dict_codes(codes, domain_size):
    """Dense ranks of dictionary-domain codes.

    ``codes`` index into a sorted dictionary of ``domain_size`` values;
    the dense rank of a row is the number of *present* dictionary
    values at or below its own — exactly the inverse that
    ``np.unique(values, return_inverse=True)`` assigns, computed with a
    presence scan instead of a sort.
    """
    present = np.zeros(domain_size, dtype=bool)
    present[codes] = True
    remap = np.cumsum(present) - 1
    return remap[codes].astype(np.int64)


# Presence arrays beyond this many slots stop paying for themselves;
# fall back to the sorting path instead of allocating them.
_DENSIFY_PRESENCE_CAP = 1 << 23


def _densify_ints(codes):
    """Dense ranks of a non-negative int array (``== factorize``).

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
    return dense.astype(np.int64)


def factorize(values, encoding=None, carried=None):
    """Dense integer codes for an array (group/join key encoding).

    With an ``encoding`` whose dictionary covers ``values`` (the base
    column itself or any subset of it), codes come from the cached
    dictionary: the base column's pre-computed dense codes directly, a
    subset via ``searchsorted`` into the sorted dictionary plus a
    presence-scan densification.  ``carried`` — the subset's dictionary
    codes carried through the operators on ``Batch.codes`` — skips even
    the ``searchsorted``: carried codes equal
    ``dictionary.encode(values)`` elementwise by construction (the base
    codes were gathered in lockstep with the values), so only the
    densification remains.  Without an encoding, ``np.unique`` as
    before.  All paths produce the identical array.
    """
    dictionary = _resolve_encoding(encoding)
    if dictionary is not None:
        if values is dictionary.base:
            return dictionary.encode(values)  # the cached dense codes
        if carried is not None:
            return _densify_dict_codes(carried, dictionary.n_distinct)
        return _densify_dict_codes(
            dictionary.encode(values), dictionary.n_distinct
        )
    _, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64)


def combine_codes(code_arrays):
    """Combine multiple per-column code arrays into one code per row."""
    if len(code_arrays) == 1:
        return code_arrays[0]
    combined = code_arrays[0].copy()
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
    """``(size, left map, right map)`` of two dictionaries' union."""
    merged = np.union1d(left_dict.values, right_dict.values)
    return (
        len(merged),
        np.searchsorted(merged, left_dict.values),
        np.searchsorted(merged, right_dict.values),
    )


def _join_pair_codes(left, right, left_encoding, right_encoding,
                     left_carried=None, right_carried=None,
                     domains=None):
    """Sort-free joint codes for one join-key column pair, or ``None``.

    Both sides must carry an encoding.  Their dictionaries (one shared
    dictionary for a self-join, otherwise the ``union1d`` of the two
    sorted value sets) define a merged sorted domain; each side maps in
    through its own cached codes, and one presence scan over the merged
    domain assigns the same dense ranks the concatenate-and-sort path
    would.  A side whose dictionary codes were carried through the
    operators (``Batch.codes``) maps in without re-encoding — the
    carried array equals ``encode()``'s output elementwise.  ``domains``
    (a :class:`~repro.executor.subplan.SubplanCache`) memoizes the
    merged domain across queries joining the same dictionary pair.
    """
    left_dict = _resolve_encoding(left_encoding)
    right_dict = _resolve_encoding(right_encoding)
    if left_dict is None or right_dict is None:
        return None
    if left_carried is None:
        left_carried = left_dict.encode(left)
    if right_carried is None:
        right_carried = right_dict.encode(right)
    if left_dict is right_dict:
        domain = left_dict.n_distinct
        left_codes = left_carried
        right_codes = right_carried
    else:
        if domains is not None:
            domain, left_map, right_map = domains.join_domain(
                (id(left_dict), id(right_dict)),
                (left_dict.values, right_dict.values),
                lambda: _merged_domain(left_dict, right_dict),
            )
        else:
            domain, left_map, right_map = _merged_domain(
                left_dict, right_dict
            )
        left_codes = left_map[left_carried]
        right_codes = right_map[right_carried]
    present = np.zeros(domain, dtype=bool)
    present[left_codes] = True
    present[right_codes] = True
    remap = np.cumsum(present) - 1
    return (
        remap[left_codes].astype(np.int64),
        remap[right_codes].astype(np.int64),
    )


def join_codes(left_arrays, right_arrays,
               left_encodings=None, right_encodings=None,
               left_carried=None, right_carried=None,
               domains=None):
    """Comparable integer codes for join keys across two batches.

    Columns are factorized jointly so equal values on either side get the
    same code.  Key columns encoded on *both* sides take the sort-free
    merged-dictionary path (skipping even the per-side re-encode when
    carried dictionary codes are supplied); any other column is
    concatenated and factorized as before.  The codes are identical
    either way.
    """
    left_codes, right_codes = [], []
    for position, (larr, rarr) in enumerate(zip(left_arrays, right_arrays)):
        pair = _join_pair_codes(
            larr, rarr,
            left_encodings[position] if left_encodings else None,
            right_encodings[position] if right_encodings else None,
            left_carried[position] if left_carried else None,
            right_carried[position] if right_carried else None,
            domains=domains,
        )
        if pair is None:
            both = np.concatenate([larr, rarr])
            codes = factorize(both)
            pair = codes[: len(larr)], codes[len(larr):]
        left_codes.append(pair[0])
        right_codes.append(pair[1])
    if len(left_codes) == 1:
        return left_codes[0], right_codes[0]
    combined = combine_codes(
        [np.concatenate([l, r]) for l, r in zip(left_codes, right_codes)]
    )
    n_left = len(left_codes[0])
    return combined[:n_left], combined[n_left:]
