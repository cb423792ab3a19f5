"""Fused predicate kernels for the executor.

:func:`fused_filter` compiles a conjunctive filter list into a single
callable cached by ``(table, filter structure)``.  The compiled kernel
resolves each comparison operator once, lets the first comparison
allocate the keep mask, and ANDs the remaining predicates into it in
place.  Literal values are passed at call time, so the kernel is reused
across a workload's templated queries (same structure, different
constants).  A string column's codes (int16 or int32) are compared with
its literal's code, a Python int: NumPy compares an int outside the
array's dtype exactly, so a bound of 32 768 against int16 codes needs
no cast.
"""

import operator

import numpy as np

# Bound on compiled kernels; structures are few (one per filter
# shape per table), so this is a safety valve, not a working limit.
MAX_KERNELS = 256

OPERATORS = {
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
    resolved = [OPERATORS[op] for op in ops]
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
