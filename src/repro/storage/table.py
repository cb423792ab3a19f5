"""Columnar table storage.

Each table holds one numpy array per column.  The executor operates on
these arrays (and on integer row-id selections over them), which keeps the
actual execution of 100-query workloads fast while the *virtual clock*
accounts for what the same plan would cost on the paper's hardware.

An append writes the new rows into spare capacity behind each column
(:func:`appended`) and publishes a longer prefix of that buffer as the
column: a new array object, so every identity-validated cache still
sees the change, while the rows already stored are neither copied nor
touched — an earlier column array stays a valid snapshot.

Two bytes a value: an ``int`` or ``date`` column is stored in the
narrowest of int16, int32 and int64 that holds its values
(:meth:`~repro.storage.types.SQLType.coerce`), chosen when the table is
loaded or unpickled.  An append whose values do not fit *widens* the
column — one copy into a buffer of the wider dtype, the copy a full
buffer makes anyway — and never wraps them; a column never narrows
back.  The declared width (``SQLType.width``) is what every size and
cost reads, so the width a column is stored in changes no figure.

Arithmetic on stored values goes through int64: NumPy computes
``int16 + int`` in int16, so a sum, difference, product or shift of a
stored integer column — or of a dictionary's ``values``, which keep the
column's dtype — widens first (``np.subtract(base, low,
dtype=np.int64)``).  A literal is compared with a column, never cast
into its dtype: comparisons and ``searchsorted`` against a Python int
outside the column's range are exact, an assignment wraps.
"""

import threading

import numpy as np

from ..common.errors import CatalogError
from ..common.hardware import pages_for_bytes

#: Most rows a table may hold: row positions (sort orders, index row
#: ids) are stored as int32.
MAX_ROWS = np.iinfo(np.int32).max

#: Guards the lazily computed sizes of every table: measurement pool
#: workers execute plans, whose scans charge by page count, against one
#: shared :class:`Table`.
_SIZE_LOCK = threading.Lock()


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


def spare_buffer(rows, dtype):
    """An empty buffer for ``rows`` rows and an eighth more."""
    return np.empty(rows + rows // 8, dtype=dtype)


def _check_row_count(name, rows):
    if rows > MAX_ROWS:
        raise CatalogError(
            f"table {name!r} would hold {rows} rows; row positions are "
            f"int32, so at most {MAX_ROWS}"
        )


class Table:
    """Data of one table: schema + columnar arrays."""

    # Class-level default so instances unpickled from artifact stores
    # written before the cache existed still resolve the attribute.
    _byte_size = None

    def __init__(self, schema, columns=None):
        self.schema = schema
        self._byte_size = None
        if columns is None:
            columns = {
                col.name: col.sql_type.coerce([]) for col in schema.columns
            }
        missing = [c.name for c in schema.columns if c.name not in columns]
        if missing:
            raise CatalogError(
                f"table {schema.name!r} loaded without columns {missing}"
            )
        lengths = {len(columns[c.name]) for c in schema.columns}
        if len(lengths) > 1:
            raise CatalogError(
                f"table {schema.name!r} columns have differing lengths {lengths}"
            )
        _check_row_count(schema.name, max(lengths, default=0))
        self._columns = {
            col.name: col.sql_type.coerce(columns[col.name])
            for col in schema.columns
        }
        # column -> the buffer its array is a prefix of, once appended to
        self._spare = {}

    # The rows only: a column array pickles its own elements, and the
    # spare capacity behind it is rebuilt by the next append.

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_spare"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._spare = {}
        # A pickle written before columns were narrowed holds int64.
        self._columns = {
            col.name: col.sql_type.coerce(self._columns[col.name])
            for col in self.schema.columns
        }

    @property
    def name(self):
        return self.schema.name

    @property
    def row_count(self):
        first = next(iter(self._columns.values()))
        return len(first)

    def column(self, name):
        """The full storage array for a column."""
        try:
            return self._columns[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def column_names(self):
        return list(self._columns)

    def resident_bytes(self):
        """Bytes the column arrays hold, by dtype name: each column's
        buffer, the spare capacity behind its rows included (an object
        column counts its pointers, not its strings)."""
        held = {}
        for name, column in self._columns.items():
            size = self._spare.get(name, column).nbytes
            held[column.dtype.name] = held.get(column.dtype.name, 0) + size
        return held

    def byte_size(self):
        """Heap size in bytes under the declared row width.

        Cached after the first call — every page-count lookup in the
        cost model funnels through here, so the recommender's what-if
        loops hit this constantly.  Invalidated by :meth:`append_rows`
        (the only mutation that changes the row count).
        """
        if self._byte_size is None:
            with _SIZE_LOCK:
                self._byte_size = self.row_count * self.schema.row_width()
        return self._byte_size

    def page_count(self):
        """Heap size in pages (the unit the cost model scans in)."""
        return pages_for_bytes(self.byte_size())

    def append_rows(self, columns):
        """Append rows given as a ``{column_name: sequence}`` mapping.

        Used by the Section 4.4 insertion experiment.  Returns the number
        of rows appended.  Each column costs what it appends
        (:func:`appended`), apart from the copy into a larger buffer
        once its spare capacity runs out, or into a wider one when an
        integer tail does not fit the column's dtype: each tail is
        coerced to the narrowest dtype that holds it, and the column
        widens to the one that holds both.
        """
        unknown = sorted(set(columns) - set(self._columns))
        if unknown:
            raise CatalogError(
                f"append to {self.name!r} names unknown columns {unknown}"
            )
        lengths = set()
        coerced = {}
        for col in self.schema.columns:
            if col.name not in columns:
                raise CatalogError(
                    f"append to {self.name!r} missing column {col.name!r}"
                )
            arr = col.sql_type.coerce(columns[col.name])
            coerced[col.name] = arr
            lengths.add(len(arr))
        if len(lengths) != 1:
            raise CatalogError("appended columns have differing lengths")
        _check_row_count(self.name, self.row_count + max(lengths))
        for name, arr in coerced.items():
            self._columns[name], self._spare[name] = appended(
                self._columns[name], arr, self._spare.get(name)
            )
        self._byte_size = None
        return lengths.pop()
