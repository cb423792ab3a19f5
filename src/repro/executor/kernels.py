"""Fused predicate kernels and scratch buffers for the executor.

- :func:`fused_filter` compiles a conjunctive filter list into a single
  callable cached by ``(table, filter structure)``.  The compiled kernel
  resolves each comparison operator once, lets the first comparison
  allocate the keep mask, and ANDs the remaining predicates into it in
  place.  Literal values are passed at call time, so the kernel is
  reused across a workload's templated queries (same structure,
  different constants).
- :class:`ScratchArena` is a per-executor pool of boolean/int64
  temporaries, so operator-local masks and offset tables stop
  allocating on every call.  Arena buffers never escape the operator
  that borrowed them.
"""

import operator

import numpy as np

from .. import obs

# Bound on compiled kernels; structures are few (one per filter
# shape per table), so this is a safety valve, not a working limit.
MAX_KERNELS = 256

_OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compile_conjunction(ops):
    """Build one callable evaluating the conjunction of ``ops``.

    The callable takes the gathered filter arrays and the literal
    values, and returns the boolean keep mask.
    """
    resolved = [_OPERATORS[op] for op in ops]
    first = resolved[0]
    rest = list(enumerate(resolved))[1:]

    def kernel(arrays, values):
        keep = first(arrays[0], values[0])
        if not isinstance(keep, np.ndarray):
            # Incomparable dtypes collapse to a scalar; broadcast it to
            # one entry per row.
            keep = np.full(len(arrays[0]), bool(keep))
        for i, compare in rest:
            np.logical_and(keep, compare(arrays[i], values[i]), out=keep)
        return keep

    return kernel


def fused_filter(kernels, table_name, filters):
    """The compiled kernel of a conjunctive filter list.

    ``kernels`` is a ``BoundedCache("kernel_cache", MAX_KERNELS)``.
    Kernels close over operator structure only, never over data, so
    its entries have no backing array to validate; a database still
    drops them with every other derived structure.
    """
    return kernels.get_or_build(
        (table_name, tuple((flt.key, flt.op) for flt in filters)),
        lambda: _compile_conjunction([flt.op for flt in filters]),
    )


class ScratchArena:
    """Reusable boolean/int64 temporaries owned by one executor.

    Not thread-safe by design: each executor instance owns its own
    arena and never hands a buffer to another thread or to a cache
    that outlives the borrowing operator.  Buffers grow geometrically
    and are returned as views, so repeated operators at similar widths
    stop hitting the allocator.
    """

    def __init__(self):
        self._bools = np.empty(0, dtype=bool)
        self._ints = np.empty(0, dtype=np.int64)

    def _borrow(self, attr, n, fill):
        buffer = getattr(self, attr)
        if len(buffer) < n:
            buffer = np.empty(max(n, 2 * len(buffer)), dtype=buffer.dtype)
            setattr(self, attr, buffer)
            obs.counter_add("executor.arena_allocations")
        else:
            obs.counter_add("executor.arena_reuses")
        view = buffer[:n]
        if fill is not None:
            view[...] = fill
        return view

    def bools(self, n, fill=None):
        return self._borrow("_bools", n, fill)

    def ints(self, n, fill=None):
        return self._borrow("_ints", n, fill)
