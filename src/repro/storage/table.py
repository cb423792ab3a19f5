"""Columnar table storage.

Each table holds one numpy array per column.  The executor operates on
these arrays (and on integer row-id selections over them), which keeps the
actual execution of 100-query workloads fast while the *virtual clock*
accounts for what the same plan would cost on the paper's hardware.
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
        of rows appended.
        """
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
            self._columns[name] = np.concatenate([self._columns[name], arr])
        self._byte_size = None
        return lengths.pop()
