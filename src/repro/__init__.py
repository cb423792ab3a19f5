"""repro — reproduction of *Goals and Benchmarks for Autonomic
Configuration Recommenders* (Consens, Barbosa, Teisanu, Mignet — SIGMOD
2005).

The package bundles:

* a self-contained relational engine (storage, B+-tree indexes,
  statistics, cost-based optimizer with what-if mode, vectorized executor
  under a virtual clock, materialized views);
* the paper's three benchmark databases (synthetic NREF, TPC-H uniform,
  TPC-H with Zipf skew) and five query families (NREF2J, NREF3J, SkTH3J,
  SkTH3Js, UnTH3J);
* AutoAdmin-style configuration recommenders parameterized as the paper's
  Systems A, B and C, plus the P and 1C reference configurations;
* the evaluation framework: cumulative frequency curves, performance
  goals, improvement ratios, and one experiment driver per table/figure;
* a measurement runtime (:mod:`repro.runtime`): parallel measurement
  sessions (``--jobs``), fingerprint-keyed plan/estimate caching,
  and a persistent artifact store (``--cache-dir``).
"""

from .catalog.catalog import Catalog
from .catalog.schema import ColumnDef, ForeignKey, TableSchema
from .engine.configuration import (
    Configuration,
    one_column_configuration,
    primary_configuration,
)
from .engine.database import Database, DEFAULT_TIMEOUT, QueryResult
from .engine.systems import by_name as system_by_name
from .engine.systems import system_a, system_b, system_c
from .index.definition import IndexDefinition
from .runtime import ArtifactCache, MeasurementSession
from .sql.parser import parse
from .storage.types import date, float_, integer, varchar

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "Catalog",
    "ColumnDef",
    "Configuration",
    "Database",
    "DEFAULT_TIMEOUT",
    "ForeignKey",
    "IndexDefinition",
    "MeasurementSession",
    "QueryResult",
    "TableSchema",
    "date",
    "float_",
    "integer",
    "one_column_configuration",
    "parse",
    "primary_configuration",
    "system_a",
    "system_b",
    "system_c",
    "system_by_name",
    "varchar",
]
