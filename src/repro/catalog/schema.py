"""Relational schema objects: columns, tables, and key constraints.

Beyond the usual DDL information, every column carries a *domain* label.
The paper's query families only join columns "in the same domain" so that
generated queries have a meaningful interpretation (Section 3.2.2); the
workload generators read these labels.  Columns can also be flagged
non-indexable (e.g., the long ``sequence`` blobs of NREF), which both the
1C configuration and the families respect.
"""

from dataclasses import dataclass, field

from ..common.errors import CatalogError
from ..storage.types import SQLType


@dataclass(frozen=True)
class ColumnDef:
    """One column of a table schema."""

    name: str
    sql_type: SQLType
    domain: str = ""
    indexable: bool = True

    @property
    def width(self):
        return self.sql_type.width


@dataclass(frozen=True)
class ForeignKey:
    """A FK constraint ``table(columns) -> ref_table(ref_columns)``."""

    columns: tuple
    ref_table: str
    ref_columns: tuple


@dataclass
class TableSchema:
    """Schema of one table: ordered columns, primary key, foreign keys."""

    name: str
    columns: list
    primary_key: tuple = ()
    foreign_keys: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for col in self.columns:
            if col.name in seen:
                raise CatalogError(
                    f"duplicate column {col.name!r} in table {self.name!r}"
                )
            seen.add(col.name)
        for pk_col in self.primary_key:
            if pk_col not in seen:
                raise CatalogError(
                    f"primary key column {pk_col!r} missing from {self.name!r}"
                )
        for fk in self.foreign_keys:
            for fk_col in fk.columns:
                if fk_col not in seen:
                    raise CatalogError(
                        f"foreign key column {fk_col!r} missing from {self.name!r}"
                    )

    def column(self, name):
        """Look up a column definition by name."""
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name):
        return any(col.name == name for col in self.columns)

    def indexable_columns(self):
        """Columns eligible for the 1C configuration and for query templates."""
        return [col for col in self.columns if col.indexable]

    def row_width(self):
        """Average stored row width in bytes (plus a small per-row header)."""
        return sum(col.width for col in self.columns) + 8

    def columns_in_domain(self, domain):
        """Indexable columns whose domain label equals ``domain``."""
        return [
            col
            for col in self.columns
            if col.indexable and col.domain == domain and domain
        ]
