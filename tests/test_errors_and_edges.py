"""Error paths and miscellaneous edge cases across modules."""

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnDef, ForeignKey, TableSchema
from repro.common.errors import (
    CatalogError,
    ParseError,
    QueryTimeout,
    RecommenderGaveUp,
)
from repro.storage.table import Table
from repro.storage.types import integer, varchar


def test_schema_validation_errors():
    with pytest.raises(CatalogError, match="duplicate column"):
        TableSchema("t", [
            ColumnDef("a", integer()), ColumnDef("a", integer()),
        ])
    with pytest.raises(CatalogError, match="primary key"):
        TableSchema("t", [ColumnDef("a", integer())],
                    primary_key=("missing",))
    with pytest.raises(CatalogError, match="foreign key"):
        TableSchema(
            "t",
            [ColumnDef("a", integer())],
            foreign_keys=[ForeignKey(("missing",), "u", ("x",))],
        )


def test_catalog_duplicate_and_missing():
    schema = TableSchema("t", [ColumnDef("a", integer())])
    catalog = Catalog([schema])
    with pytest.raises(CatalogError, match="already"):
        catalog.add_table(schema)
    with pytest.raises(CatalogError, match="no table"):
        catalog.table("u")
    assert catalog.has_table("t")
    assert not catalog.has_table("u")


def test_catalog_domains_and_join_pairs():
    users = TableSchema("users", [
        ColumnDef("uid", integer(), "id"),
        ColumnDef("name", varchar(8), "name"),
    ])
    orders = TableSchema("orders", [
        ColumnDef("uid", integer(), "id"),
        ColumnDef("note", varchar(8), ""),
    ])
    catalog = Catalog([users, orders])
    assert catalog.domains() == ["id", "name"]
    pairs = catalog.join_pairs()
    assert ("users", "uid", "orders", "uid") in pairs
    assert not any(
        "note" in (ca, cb) for _, ca, __, cb in pairs
    ), "domainless columns never join"
    with_self = catalog.join_pairs(same_table=True)
    assert ("users", "name", "users", "name") in with_self


def test_table_validation():
    schema = TableSchema("t", [
        ColumnDef("a", integer()), ColumnDef("b", integer()),
    ])
    with pytest.raises(CatalogError, match="without columns"):
        Table(schema, {"a": [1, 2]})
    with pytest.raises(CatalogError, match="differing lengths"):
        Table(schema, {"a": [1, 2], "b": [1]})
    table = Table(schema, {"a": [1, 2], "b": [3, 4]})
    with pytest.raises(CatalogError):
        table.column("c")
    with pytest.raises(CatalogError, match="missing column"):
        table.append_rows({"a": [5]})


def test_table_refuses_more_rows_than_an_int32_position(monkeypatch):
    """Row positions are int32 everywhere, with no wider path: a table
    past 2**31 - 1 rows is refused at load and at append."""
    from repro.storage.table import MAX_ROWS

    assert MAX_ROWS == 2 ** 31 - 1

    class Claims:
        """A column that only states its length."""

        def __init__(self, rows):
            self.rows = rows

        def __len__(self):
            return self.rows

    schema = TableSchema("t", [
        ColumnDef("a", integer()), ColumnDef("b", integer()),
    ])
    with pytest.raises(CatalogError, match="int32"):
        Table(schema, {"a": Claims(MAX_ROWS + 1), "b": Claims(MAX_ROWS + 1)})
    table = Table(schema, {"a": [1, 2], "b": [3, 4]})
    monkeypatch.setattr(
        Table, "row_count", property(lambda self: MAX_ROWS - 1)
    )
    with pytest.raises(CatalogError, match="int32"):
        table.append_rows({"a": [5, 6], "b": [7, 8]})
    assert table.column("a").tolist() == [1, 2]
    assert table.append_rows({"a": [5], "b": [7]}) == 1


def test_empty_table_operations():
    schema = TableSchema("t", [ColumnDef("a", integer())])
    table = Table(schema)
    assert table.row_count == 0
    assert table.page_count() == 1


def test_parse_error_reports_position():
    err = ParseError("boom", position=17)
    assert "offset 17" in str(err)
    assert err.position == 17


def test_recommender_gave_up_message():
    err = RecommenderGaveUp("too many candidates")
    assert "too many candidates" in str(err)
    assert isinstance(err, Exception)


def test_query_timeout_str():
    err = QueryTimeout(1800.0, 1923.4)
    assert "1800" in str(err)


def test_execute_on_empty_table():
    from repro import Database
    from repro.engine.systems import system_a
    from repro.engine.configuration import primary_configuration

    schema = TableSchema("t", [
        ColumnDef("a", integer(), "x"), ColumnDef("b", varchar(4), "y"),
    ], primary_key=("a",))
    db = Database(Catalog([schema]), system_a())
    db.load_table("t", {"a": [], "b": []})
    db.collect_statistics()
    db.apply_configuration(primary_configuration(db.catalog))
    result = db.execute("SELECT t.b, COUNT(*) FROM t GROUP BY t.b")
    assert result.rows() == []
    result2 = db.execute("SELECT COUNT(*) FROM t WHERE t.a = 5")
    assert result2.rows() == []


def test_single_row_table_queries():
    from repro import Database
    from repro.engine.systems import system_a
    from repro.engine.configuration import one_column_configuration

    schema = TableSchema("t", [
        ColumnDef("a", integer(), "x"), ColumnDef("b", varchar(4), "y"),
    ], primary_key=("a",))
    db = Database(Catalog([schema]), system_a())
    db.load_table("t", {"a": [7], "b": ["z"]})
    db.collect_statistics()
    db.apply_configuration(one_column_configuration(db.catalog))
    result = db.execute("SELECT t.b, COUNT(*) FROM t GROUP BY t.b")
    assert result.rows() == [("z", 1)]
