"""Table-level statistics: row/page counts plus per-column stats."""

from dataclasses import dataclass, field

from ..common.errors import CatalogError
from .column_stats import ColumnStats


@dataclass
class TableStats:
    """Statistics of one table, keyed by column name."""

    table: str
    row_count: int
    page_count: int
    row_width: int
    columns: dict = field(default_factory=dict)

    @classmethod
    def collect(cls, table, encodings):
        """Collect full statistics over a :class:`~repro.storage.table.Table`.

        Each column's statistics are read off its dictionary in
        ``encodings`` (a
        :class:`~repro.storage.encoding.DictionaryCache`), shared with
        every other consumer of the column.
        """
        columns = {
            name: ColumnStats.collect(
                name, table.column(name), encodings.dictionary(table, name)
            )
            for name in table.column_names()
        }
        return cls(
            table=table.name,
            row_count=table.row_count,
            page_count=table.page_count(),
            row_width=table.schema.row_width(),
            columns=columns,
        )

    def column(self, name):
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"no statistics for column {name!r} of {self.table!r}"
            ) from None


class StatisticsCatalog:
    """All collected table statistics of a database instance."""

    def __init__(self):
        self._tables = {}

    def put(self, table_stats):
        self._tables[table_stats.table] = table_stats

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no statistics for table {name!r}") from None

    def table_names(self):
        return list(self._tables)
