"""SQLite as the reference engine of the row-level tests.

Stdlib ``sqlite3`` is an engine this project did not write.  A test
loads the plain columns it hands the engine under test into an
in-memory SQLite database, runs the same SQL text through both, and
compares the rows.  The benchmark's SQL (joins in ``WHERE``,
``GROUP BY``, ``COUNT``/``SUM``/``AVG``/``MIN``/``MAX``, ``COUNT
(DISTINCT)``, ``IN (SELECT ... GROUP BY ... HAVING COUNT(*) ...)``) is
a subset of SQLite's, with the same meaning.
"""

import sqlite3

import numpy as np

DIGITS = 6
"""Floats are compared rounded to this many decimal digits: a ``SUM``
or ``AVG`` may differ from SQLite's in its last bits."""


def load(tables, indexes=()):
    """An in-memory SQLite database holding ``tables``
    (``{table: {column: values}}``), with one index per ``(table,
    columns)`` pair of ``indexes``, and its statistics collected by
    ``ANALYZE``."""
    connection = sqlite3.connect(":memory:")
    for name, columns in tables.items():
        # No declared types: a value keeps the type Python gives it.
        connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*(np.asarray(values).tolist() for values in columns.values())),
        )
    for number, (table, columns) in enumerate(indexes):
        connection.execute(
            f"CREATE INDEX ix{number} ON {table} ({', '.join(columns)})"
        )
    connection.execute("ANALYZE")
    return connection


def rows(answer):
    """The row tuples of ``answer`` — a ``sqlite3`` cursor, or an engine
    result's ``rows()`` — sorted, each float rounded to ``DIGITS``."""
    return sorted(
        tuple(round(v, DIGITS) if isinstance(v, float) else v for v in row)
        for row in answer
    )
