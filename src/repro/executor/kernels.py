"""Fused predicate kernels and scratch buffers for the executor.

- :class:`KernelCache` compiles a conjunctive filter list into a single
  callable keyed by ``(table, filter structure)``.  The compiled kernel
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
import threading

import numpy as np

from .. import obs

# FIFO bound on compiled kernels; structures are few (one per filter
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


class KernelCache:
    """Compiled-filter cache shared by every executor of a database.

    Unlike :class:`~repro.executor.subplan.SubplanCache` there is no
    backing-array identity to validate — kernels close over operator
    structure only, never over data — but ``invalidate`` is still wired
    into ``Database.invalidate_caches`` so the cache follows the same
    lifecycle contract as every other derived structure.
    """

    def __init__(self):
        # Deferred import: repro.runtime pulls in repro.catalog.schema,
        # which the storage layer (and through it this package) feeds.
        from ..runtime.cache import CacheStats

        self.stats = CacheStats("kernel_cache")
        self._lock = threading.Lock()
        self._kernels = {}

    def fused_filter(self, table_name, filters):
        """Return the compiled kernel for a conjunctive filter list."""
        key = (table_name, tuple((flt.key, flt.op) for flt in filters))
        with self._lock:
            kernel = self._kernels.get(key)
            if kernel is not None:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if kernel is not None:
            obs.counter_add("executor.kernel_hits")
            return kernel
        kernel = _compile_conjunction([flt.op for flt in filters])
        obs.counter_add("executor.kernel_builds")
        with self._lock:
            while len(self._kernels) >= MAX_KERNELS:
                self._kernels.pop(next(iter(self._kernels)))
            self._kernels[key] = kernel
        return kernel

    def invalidate(self):
        with self._lock:
            self._kernels.clear()
            self.stats.invalidations += 1
        obs.counter_add("cache.kernel_cache.invalidations")


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
