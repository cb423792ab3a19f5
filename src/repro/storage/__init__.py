"""Columnar table storage, SQL types, and column dictionaries."""

from .encoding import (
    ColumnDictionary,
    ColumnHandle,
    DictionaryCache,
    dict_cache_enabled,
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
    "dict_cache_enabled",
    "float_",
    "integer",
    "varchar",
]
