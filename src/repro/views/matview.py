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
from ..storage.encoding import locate, stable_order
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

    Views group on codes, never on raw (often string) columns: each
    group column's rows are codes of its dictionary in ``encodings``
    (a :class:`~repro.storage.encoding.DictionaryCache`), put in order
    and split into groups where a code changes.  A single-table view
    orders its rows by the memoized ``lexsort``; a join view joins its
    key codes — the left key's mapped to their slots in the right
    key's dictionary (-1 where a value is not there) — and orders the
    joined rows with one :func:`~repro.storage.encoding.stable_order`
    per column, least significant first.  The result equals what
    ``np.unique`` / ``np.lexsort`` over the raw columns give.  A
    string group column is stored as codes into its base column's
    dictionary ``values`` (:meth:`ColumnDictionary.recoded
    <repro.storage.encoding.ColumnDictionary.recoded>`), sharing them
    while the view holds every value.

    Returns the result :class:`Table` plus the input row count that was
    aggregated (used for build cost accounting).
    """
    if definition.is_join_view:
        (t1, c1), (t2, c2) = definition.join_pred
        left, right = tables[t1], tables[t2]
        left_ids, right_ids = _join_rows(
            encodings.dictionary(left, c1), encodings.dictionary(right, c2)
        )
        ids = {t2: right_ids, t1: left_ids}
        input_rows = left.row_count + right.row_count
    else:
        base = tables[definition.tables[0]]
        input_rows = base.row_count
    dictionaries = [
        encodings.dictionary(tables[vcol.table], vcol.column)
        for vcol in definition.group_columns
    ]
    if definition.is_join_view:
        codes = [
            dictionary.codes[ids[vcol.table]]
            for vcol, dictionary in zip(definition.group_columns, dictionaries)
        ]
        order = None
        for dictionary, column in zip(reversed(dictionaries), reversed(codes)):
            step = stable_order(
                column if order is None else column[order],
                dictionary.n_distinct,
            )
            order = step if order is None else order[step]
    else:
        codes = [dictionary.codes for dictionary in dictionaries]
        order = encodings.lexsort(
            base, tuple(vcol.column for vcol in definition.group_columns)
        )
    codes = [column[order] for column in codes]
    starts = _group_starts(codes)
    data = {
        vcol.name: _view_column(dictionary, column[starts])
        for vcol, dictionary, column in zip(
            definition.group_columns, dictionaries, codes
        )
    }
    data[COUNT_COLUMN] = np.diff(starts, append=len(order)).astype(np.int64)
    view_table = Table(definition.view_schema(catalog), data)
    return view_table, input_rows


def _join_rows(left, right):
    """``(left ids, right ids)`` of the equijoin of two key columns
    given as their dictionaries: each left row's matches, in right row
    order, left row by left row."""
    lkeys = left.codes
    if left.values is not right.values:
        slots, found = locate(left, right)
        lkeys = np.where(found, slots, -1)[lkeys]
    order = stable_order(right.codes, right.n_distinct)
    sorted_keys = right.codes[order]
    lows = np.searchsorted(sorted_keys, lkeys, side="left")
    highs = np.searchsorted(sorted_keys, lkeys, side="right")
    counts = highs - lows
    total = int(counts.sum())
    left_ids = np.repeat(np.arange(len(lkeys)), counts)
    starts = np.repeat(lows, counts)
    offsets = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    return left_ids, order[starts + offsets]


def _view_column(dictionary, codes):
    """A view column of group ``codes`` into ``dictionary``: a string
    column coded against its ``values`` (and domain), a number column
    its values."""
    if dictionary.coded:
        return dictionary.recoded(codes)
    return dictionary.values[codes]


def _group_starts(key_arrays):
    """Positions where any of the (sorted) key arrays changes value."""
    change = np.zeros(len(key_arrays[0]), dtype=bool)
    change[:1] = True
    for keys in key_arrays:
        change[1:] |= keys[1:] != keys[:-1]
    return np.flatnonzero(change)
