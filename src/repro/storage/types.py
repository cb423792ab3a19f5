"""SQL column types and their storage widths.

Widths feed the page/size accounting that drives both the cost model and
the space-budget bookkeeping of the recommender (the paper's budget is
``size(1C) - size(P)``).  A declared width is the paper's, not the
storage array's: an ``int`` or ``date`` column is *stored* in the
narrowest of int16, int32 and int64 that holds its values
(:func:`narrowest_int`), which changes no cost, size or figure.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SQLType:
    """A column type with a storage width in bytes.

    ``kind`` is one of ``'int'``, ``'float'``, ``'str'``, ``'date'``.
    For strings ``width`` is the declared average width used in size
    accounting (the engine stores a string column as int16 or int32
    codes into its dictionary; the cost model only needs a
    representative byte width).
    """

    kind: str
    width: int

    def numpy_dtype(self):
        """The widest dtype this type's values take: an integer column
        is stored in the narrowest integer dtype that holds it
        (:meth:`coerce`), at most this one; a string column's values
        are Python objects, which its table stores as codes."""
        if self.kind == "int" or self.kind == "date":
            return np.dtype(np.int64)
        if self.kind == "float":
            return np.dtype(np.float64)
        if self.kind == "str":
            return np.dtype(object)
        raise ValueError(f"unknown type kind {self.kind!r}")

    def coerce(self, values):
        """Coerce a sequence of Python values into an array: an
        integer one in the narrowest dtype that holds its values, the
        array itself when it already has that dtype (a string one is
        the object array its table encodes)."""
        if self.kind != "int" and self.kind != "date":
            return np.asarray(values, dtype=self.numpy_dtype())
        array = np.asarray(values)
        if array.dtype.kind != "i":
            array = array.astype(self.numpy_dtype())
        low, high = (
            (int(array.min()), int(array.max())) if len(array) else (0, 0)
        )
        return array.astype(narrowest_int(low, high), copy=False)


#: The integer storage dtypes, narrowest first.
INT_DTYPES = tuple(np.dtype(t) for t in (np.int16, np.int32, np.int64))


def narrowest_int(low, high):
    """The narrowest of :data:`INT_DTYPES` that holds every integer
    from ``low`` to ``high`` (int16 when ``high < low``)."""
    for dtype in INT_DTYPES[:-1]:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return dtype
    return INT_DTYPES[-1]


def integer():
    """8-byte integer column."""
    return SQLType("int", 8)


def float_():
    """8-byte floating point column."""
    return SQLType("float", 8)


def varchar(avg_width):
    """Variable-width string column with a declared average width."""
    if avg_width <= 0:
        raise ValueError("avg_width must be positive")
    return SQLType("str", int(avg_width))


def date():
    """Date column, stored as integer day numbers."""
    return SQLType("date", 8)
