"""Materialized view definitions and built view data.

Two shapes cover everything the paper's recommenders produced (Table 3):

* **Single-table aggregate views** ``SELECT c1..ck, COUNT(*) FROM t GROUP
  BY c1..ck`` — the "2 views on Lineitem" of the SkTH3J recommendation;
  they also answer the families' ``HAVING COUNT(*) op k`` subqueries.
* **Join aggregate views** ``SELECT cols..., COUNT(*) FROM r, s WHERE
  r.a = s.b GROUP BY cols...`` — the "9 views on Lineitem ⋈ Partsupp" of
  the UnTH3J recommendation.

A built view is stored as an ordinary :class:`~repro.storage.table.Table`
whose last column, ``cnt``, carries the group count; the executor treats
``cnt`` as a row *weight* so that ``COUNT(*)`` aggregates over rewritten
plans stay exact.
"""

from dataclasses import dataclass

import numpy as np

from ..catalog.schema import ColumnDef, TableSchema
from ..storage.table import Table
from ..storage.types import integer

COUNT_COLUMN = "cnt"


@dataclass(frozen=True)
class ViewColumn:
    """A view output column sourced from ``table.column``."""

    table: str
    column: str

    @property
    def name(self):
        return f"{self.table}__{self.column}"


@dataclass(frozen=True)
class MatViewDefinition:
    """A single-table or two-table-join aggregate view."""

    tables: tuple                 # 1 or 2 base table names
    join_pred: tuple = None       # ((t1, c1), (t2, c2)) when len(tables) == 2
    group_columns: tuple = ()     # tuple of ViewColumn

    def __post_init__(self):
        if len(self.tables) not in (1, 2):
            raise ValueError("views cover one or two base tables")
        if len(self.tables) == 2 and self.join_pred is None:
            raise ValueError("two-table views need a join predicate")
        if len(self.tables) == 1 and self.join_pred is not None:
            raise ValueError("single-table views cannot have a join predicate")
        if not self.group_columns:
            raise ValueError("views need at least one group column")
        for vcol in self.group_columns:
            if vcol.table not in self.tables:
                raise ValueError(
                    f"group column {vcol} not from the view's tables"
                )

    @property
    def name(self):
        tables = "_".join(self.tables)
        cols = "_".join(c.column for c in self.group_columns)
        return f"mv_{tables}__{cols}"

    @property
    def is_join_view(self):
        return len(self.tables) == 2

    def view_schema(self, catalog):
        """Schema of the materialized result table."""
        columns = []
        for vcol in self.group_columns:
            base = catalog.table(vcol.table).column(vcol.column)
            columns.append(
                ColumnDef(vcol.name, base.sql_type, base.domain, base.indexable)
            )
        columns.append(ColumnDef(COUNT_COLUMN, integer(), "", True))
        return TableSchema(name=self.name, columns=columns)

    def column_for(self, table, column):
        """The view column sourcing ``table.column``, if any."""
        for vcol in self.group_columns:
            if vcol.table == table and vcol.column == column:
                return vcol
        return None


def build_view(definition, tables, catalog, encodings):
    """Materialize a view over the given ``{name: Table}`` mapping.

    A single-table view groups through ``encodings`` (a
    :class:`~repro.storage.encoding.DictionaryCache`): one group
    column is its dictionary's
    ``values`` and ``counts``, several are ordered by the memoized
    ``lexsort`` and split into groups where a column's *code* changes,
    so no raw (often string) column is sorted or compared.  The result
    equals what ``np.unique`` / ``np.lexsort`` over the raw columns
    give, which is how a join view's rows are grouped.

    Returns the result :class:`Table` plus the input row count that was
    aggregated (used for build cost accounting).
    """
    if definition.is_join_view:
        (t1, c1), (t2, c2) = definition.join_pred
        left, right = tables[t1], tables[t2]
        lkeys = left.column(c1)
        rkeys = right.column(c2)
        order = np.argsort(rkeys, kind="stable")
        sorted_keys = rkeys[order]
        lows = np.searchsorted(sorted_keys, lkeys, side="left")
        highs = np.searchsorted(sorted_keys, lkeys, side="right")
        counts = highs - lows
        total = int(counts.sum())
        left_ids = np.repeat(np.arange(len(lkeys)), counts)
        starts = np.repeat(lows, counts)
        offsets = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        right_ids = order[starts + offsets]
        arrays = [
            left.column(vcol.column)[left_ids] if vcol.table == t1
            else right.column(vcol.column)[right_ids]
            for vcol in definition.group_columns
        ]
        input_rows = left.row_count + right.row_count
        groups, counts = _group_rows(arrays)
    else:
        base = tables[definition.tables[0]]
        input_rows = base.row_count
        groups, counts = _group_table(
            base, [vcol.column for vcol in definition.group_columns],
            encodings,
        )
    data = {
        vcol.name: group
        for vcol, group in zip(definition.group_columns, groups)
    }
    data[COUNT_COLUMN] = np.asarray(counts, dtype=np.int64)
    view_table = Table(definition.view_schema(catalog), data)
    return view_table, input_rows


def _group_starts(key_arrays):
    """Positions where any of the (sorted) key arrays changes value."""
    change = np.zeros(len(key_arrays[0]), dtype=bool)
    change[:1] = True
    for keys in key_arrays:
        change[1:] |= keys[1:] != keys[:-1]
    return np.flatnonzero(change)


def _group_table(base, columns, encodings):
    """``(group values per column, counts)`` of ``base`` grouped by
    ``columns``, read off their dictionaries."""
    if len(columns) == 1:
        dictionary = encodings.dictionary(base, columns[0])
        return [dictionary.values], dictionary.counts
    order = encodings.lexsort(base, tuple(columns))
    starts = _group_starts([
        encodings.dictionary(base, column).codes[order]
        for column in columns
    ])
    firsts = order[starts]
    return (
        [base.column(column)[firsts] for column in columns],
        np.diff(starts, append=len(order)),
    )


def _group_rows(arrays):
    """``(group values per column, counts)`` of raw rows."""
    if len(arrays) == 1:
        keys, counts = np.unique(arrays[0], return_counts=True)
        return [keys], counts
    order = np.lexsort(tuple(reversed(arrays)))
    sorted_arrays = [array[order] for array in arrays]
    starts = _group_starts(sorted_arrays)
    return (
        [array[starts] for array in sorted_arrays],
        np.diff(starts, append=len(order)),
    )
