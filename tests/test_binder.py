"""Binder tests over the small city catalog."""

import pytest

from repro.common.errors import BindError
from repro.sql.binder import Binder, BoundColumn
from repro.sql.parser import parse

from conftest import make_city_catalog


@pytest.fixture
def binder():
    return Binder(make_city_catalog())


def bind(binder, sql):
    return binder.bind(parse(sql))


def test_bind_join_and_filter(binder):
    bound = bind(
        binder,
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid AND u.age = 30 GROUP BY u.city",
    )
    assert bound.relations == {"u": "users", "o": "orders"}
    assert len(bound.join_preds) == 1
    assert bound.filters[0].target == BoundColumn("u", "age")
    assert bound.filters[0].value == 30
    assert bound.group_by == [BoundColumn("u", "city")]
    assert bound.aggregates[0].func == "count"


def test_unqualified_resolution(binder):
    bound = bind(binder, "SELECT age FROM users u")
    assert bound.output == [("col", BoundColumn("u", "age"))]


def test_ambiguous_column_rejected(binder):
    with pytest.raises(BindError, match="ambiguous"):
        bind(binder, "SELECT city FROM users u, orders o")


def test_unknown_names_rejected(binder):
    with pytest.raises(BindError):
        bind(binder, "SELECT a FROM missing")
    with pytest.raises(BindError):
        bind(binder, "SELECT nope FROM users")
    with pytest.raises(BindError):
        bind(binder, "SELECT x.uid FROM users u")


def test_duplicate_alias_rejected(binder):
    with pytest.raises(BindError, match="duplicate"):
        bind(binder, "SELECT u.uid FROM users u, orders u")


def test_selected_column_must_be_grouped(binder):
    with pytest.raises(BindError, match="not grouped"):
        bind(
            binder,
            "SELECT u.age, COUNT(*) FROM users u GROUP BY u.city",
        )


def test_semijoin_shape(binder):
    bound = bind(
        binder,
        "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid IN "
        "(SELECT uid FROM orders GROUP BY uid HAVING COUNT(*) < 4) "
        "GROUP BY o.city",
    )
    semi = bound.semijoins[0]
    assert semi.sub_table == "orders"
    assert semi.sub_column == "uid"
    assert semi.having_op == "<"
    assert semi.having_value == 4


def test_subquery_must_select_group_column(binder):
    with pytest.raises(BindError):
        bind(
            binder,
            "SELECT o.city FROM orders o WHERE o.uid IN "
            "(SELECT oid FROM orders GROUP BY uid "
            "HAVING COUNT(*) < 4)",
        )


def test_self_join_binds(binder):
    bound = bind(
        binder,
        "SELECT u1.city, COUNT(*) FROM users u1, users u2 "
        "WHERE u1.age = u2.age GROUP BY u1.city",
    )
    assert bound.relations == {"u1": "users", "u2": "users"}


def test_columns_of_collects_references(binder):
    bound = bind(
        binder,
        "SELECT u.city, COUNT(DISTINCT o.amount) FROM users u, orders o "
        "WHERE u.uid = o.uid AND o.city = 'tor' GROUP BY u.city",
    )
    assert bound.columns_of("u") == ["city", "uid"]
    assert bound.columns_of("o") == ["amount", "city", "uid"]


COUNT_USERS = "SELECT COUNT(*) FROM users u WHERE "


@pytest.mark.parametrize("predicate, names", [
    # A numeric literal on a string column (the executor would hand
    # np.searchsorted an int among strings) ...
    ("u.city = -12345", ("u.city (string)", "-12345 (numeric)")),
    # ... a string literal under an ordering comparison of integers
    # (a UFuncTypeError out of the filter kernel) ...
    ("u.age < 'abc'", ("u.age (numeric)", "'abc' (string)")),
    # ... and under equality, which used to return nothing, silently.
    ("u.age = 'abc'", ("u.age (numeric)", "'abc' (string)")),
])
def test_literal_must_match_the_column_kind(binder, predicate, names):
    with pytest.raises(BindError) as raised:
        bind(binder, COUNT_USERS + predicate)
    for name in names:
        assert name in str(raised.value)


def test_join_and_subquery_columns_must_match_in_kind(binder):
    with pytest.raises(BindError, match=r"u\.city \(string\) and o\.uid"):
        bind(
            binder,
            "SELECT COUNT(*) FROM users u, orders o WHERE u.city = o.uid",
        )
    with pytest.raises(BindError, match=r"u\.age \(numeric\) and "
                                        r"orders\.city \(string\)"):
        bind(
            binder,
            COUNT_USERS + "u.age IN (SELECT city FROM orders "
            "GROUP BY city HAVING COUNT(*) < 3)",
        )


def test_numeric_kinds_compare_with_one_another():
    """int, float and date are one class: an int literal on a float
    column, a float literal on an int or date column, and joins and
    subqueries across them all bind."""
    from repro import Catalog, ColumnDef, TableSchema, integer
    from repro.storage.types import date, float_

    catalog = Catalog([
        TableSchema("m", [
            ColumnDef("n", integer(), "n"),
            ColumnDef("score", float_(), "score"),
            ColumnDef("day", date(), "day"),
        ]),
    ])
    bound = Binder(catalog).bind(parse(
        "SELECT COUNT(*) FROM m a, m b WHERE a.score = 3 AND a.n < 2.5 "
        "AND a.day >= 12000 AND a.day <> 1.5 AND a.n = b.score "
        "AND a.day IN (SELECT n FROM m GROUP BY n HAVING COUNT(*) > 1)"
    ))
    assert [f.value for f in bound.filters] == [3, 2.5, 12000, 1.5]
    assert len(bound.join_preds) == 1 and len(bound.semijoins) == 1
