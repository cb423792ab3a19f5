"""Columnar table storage, SQL types, and column dictionaries."""

from .encoding import (
    ColumnDictionary,
    ColumnHandle,
    DictionaryCache,
)
from .table import Table
from .types import SQLType, date, float_, integer, varchar

__all__ = [
    "ColumnDictionary",
    "ColumnHandle",
    "DictionaryCache",
    "SQLType",
    "Table",
    "date",
    "float_",
    "integer",
    "varchar",
]
