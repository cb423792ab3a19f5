"""Columnar table storage.

Each table holds one numpy array per column.  The executor operates on
these arrays (and on integer row-id selections over them), which keeps the
actual execution of 100-query workloads fast while the *virtual clock*
accounts for what the same plan would cost on the paper's hardware.

Strings are stored as their codes: a ``varchar`` column is its
dictionary (:class:`~repro.storage.encoding.ColumnDictionary`, coded),
and its storage array is the dictionary's ``codes`` into the sorted
distinct ``values`` — int16 while it has at most 32 768 values, else
int32 (:func:`~repro.storage.encoding.code_dtype`).  No table keeps an
array of Python objects per row.  Whatever needs a string column's
values decodes the rows it reads (:meth:`Table.decode`); everything
else — filters, joins, grouping, indexes — works on the codes.
Loading encodes an object array (one hash pass), or takes a dictionary
encoded already (a generated column, off its pool indices); an append
encodes its tail through the column's dictionary
(:meth:`ColumnDictionary.appended
<repro.storage.encoding.ColumnDictionary.appended>`).

An append writes the new rows into spare capacity behind each column
(:func:`~repro.storage.encoding.appended`) and publishes a longer prefix of that buffer as the
column: a new array object, so every identity-validated cache still
sees the change, while the rows already stored are neither copied nor
touched — an earlier column array stays a valid snapshot.

Two bytes a value: an ``int`` or ``date`` column is stored in the
narrowest of int16, int32 and int64 that holds its values
(:meth:`~repro.storage.types.SQLType.coerce`), chosen when the table is
loaded or unpickled.  An append whose values do not fit *widens* the
column — one copy into a buffer of the wider dtype, the copy a full
buffer makes anyway — and never wraps them; a column never narrows
back.  Two bytes a code: a string column follows the same rule by its
dictionary's size — an append that takes it past 32 768 values moves
its codes into a fresh int32 buffer.  The declared width
(``SQLType.width``) is what every size and cost reads, so the width a
column is stored in changes no figure.

Arithmetic on stored values goes through int64: NumPy computes
``int16 + int`` in int16, so a sum, difference, product or shift of a
stored integer column — of a string column's codes, or of a
dictionary's ``values``, which keep the column's dtype — widens first
(``np.subtract(base, low, dtype=np.int64)``).  A literal is compared
with a column, never cast into its dtype: comparisons and
``searchsorted`` against a Python int outside the column's range are
exact, an assignment wraps.
"""

import threading

import numpy as np

from ..common.errors import CatalogError
from ..common.hardware import pages_for_bytes
from .encoding import ColumnDictionary, appended

#: Most rows a table may hold: row positions (sort orders, index row
#: ids) are stored as int32.
MAX_ROWS = np.iinfo(np.int32).max

#: Guards the lazily computed sizes of every table: measurement pool
#: workers execute plans, whose scans charge by page count, against one
#: shared :class:`Table`.
_SIZE_LOCK = threading.Lock()


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
        """``columns`` maps every column to its values; a ``varchar``
        column's may also be its coded dictionary, taken as it is."""
        self.schema = schema
        self._byte_size = None
        if columns is None:
            columns = {col.name: [] for col in schema.columns}
        missing = [c.name for c in schema.columns if c.name not in columns]
        if missing:
            raise CatalogError(
                f"table {schema.name!r} loaded without columns {missing}"
            )
        lengths = {
            columns[c.name].row_count
            if isinstance(columns[c.name], ColumnDictionary)
            else len(columns[c.name])
            for c in schema.columns
        }
        if len(lengths) > 1:
            raise CatalogError(
                f"table {schema.name!r} columns have differing lengths {lengths}"
            )
        _check_row_count(schema.name, max(lengths, default=0))
        self._store(columns)
        # column -> the buffer its array is a prefix of, once appended to
        self._spare = {}

    def _store(self, columns):
        """Store every column of ``columns``: a number column coerced
        to its narrowest dtype, a string column as its dictionary —
        encoded here unless it is one already."""
        self._columns, self._dictionaries = {}, {}
        for col in self.schema.columns:
            values = columns[col.name]
            if col.sql_type.kind == "str":
                if not isinstance(values, ColumnDictionary):
                    values = ColumnDictionary(col.sql_type.coerce(values))
                self._dictionaries[col.name] = values
                self._columns[col.name] = values.base
            else:
                self._columns[col.name] = col.sql_type.coerce(values)

    # The rows only: a column array pickles its own elements, a coded
    # column its dictionary, and the spare capacity behind them is
    # rebuilt by the next append.

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_spare"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._spare = {}
        # A pickle written before columns were narrowed holds int64,
        # and one written before strings were coded object arrays.
        self._store({**self._columns, **state.get("_dictionaries", {})})

    @property
    def name(self):
        return self.schema.name

    @property
    def row_count(self):
        first = next(iter(self._columns.values()))
        return len(first)

    def column(self, name):
        """The full storage array for a column: a string column's codes."""
        try:
            return self._columns[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def dictionary(self, name):
        """The coded dictionary a string column is stored as (``None``
        for any other column)."""
        return self._dictionaries.get(name)

    def decode(self, name, rows=None):
        """The values of a column — of its ``rows`` (positions) only,
        when given: a string column's codes looked up in its
        dictionary, any other column's storage as it is."""
        column = self.column(name)
        if rows is not None:
            column = column[rows]
        dictionary = self._dictionaries.get(name)
        return column if dictionary is None else dictionary.values[column]

    def column_names(self):
        return list(self._columns)

    def resident_bytes(self):
        """Bytes the column arrays hold, by dtype name: each column's
        buffer, the spare capacity behind its rows included — a
        string column's codes; its dictionary's values are counted
        with the dictionaries
        (:meth:`~repro.storage.encoding.DictionaryCache.resident_bytes`)."""
        held = {}
        for name, column in self._columns.items():
            dictionary = self._dictionaries.get(name)
            if dictionary is not None:
                size = dictionary.codes_bytes
            else:
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
        (:func:`~repro.storage.encoding.appended`), apart from the copy
        into a larger buffer once its spare capacity runs out, or into
        a wider one when an integer tail does not fit the column's
        dtype: each tail is coerced to the narrowest dtype that holds
        it, and the column widens to the one that holds both.  A
        string tail is encoded through the column's dictionary, which
        grows into a new one (:meth:`ColumnDictionary.appended
        <repro.storage.encoding.ColumnDictionary.appended>`): codes
        appended behind the stored ones while the tail brings no new
        value, else the one remapped copy of them.
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
            dictionary = self._dictionaries.get(name)
            if dictionary is not None:
                dictionary = self._dictionaries[name] = dictionary.appended(
                    arr
                )
                self._columns[name] = dictionary.base
                continue
            self._columns[name], self._spare[name] = appended(
                self._columns[name], arr, self._spare.get(name)
            )
        self._byte_size = None
        return lengths.pop()
