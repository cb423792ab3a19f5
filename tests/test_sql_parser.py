"""Parser and AST printer tests, including round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ParseError
from repro.sql.ast import ColumnRef, Comparison, FuncCall, InSubquery, Star
from repro.sql.parser import parse


def test_simple_select():
    q = parse("SELECT a FROM t")
    assert len(q.select) == 1
    assert q.select[0].expr == ColumnRef(None, "a")
    assert q.from_tables[0].table == "t"
    assert q.from_tables[0].alias is None


def test_aliases_and_qualified_columns():
    q = parse("SELECT t.a, u.b FROM tab t, other u WHERE t.a = u.b")
    assert q.from_tables[0].alias == "t"
    pred = q.where[0]
    assert isinstance(pred, Comparison)
    assert pred.left == ColumnRef("t", "a")
    assert pred.right == ColumnRef("u", "b")


def test_literals():
    q = parse("SELECT a FROM t WHERE b = 'x''y' AND c = 3 AND d = 2.5")
    assert q.where[0].right.value == "x'y"
    assert q.where[1].right.value == 3
    assert q.where[2].right.value == 2.5


def test_aggregates():
    q = parse(
        "SELECT count(*), COUNT(DISTINCT t.a), sum(b), min(c) FROM t"
    )
    call = q.select[0].expr
    assert isinstance(call, FuncCall)
    assert call.func == "count" and isinstance(call.arg, Star)
    distinct = q.select[1].expr
    assert distinct.distinct and distinct.arg == ColumnRef("t", "a")
    assert q.select[2].expr.func == "sum"


def test_group_by_and_subquery():
    q = parse(
        "SELECT r.c1, COUNT(*) FROM r1 r, s1 s WHERE r.c1 = s.c2 "
        "AND r.c1 IN (SELECT c1 FROM r1 GROUP BY c1 HAVING COUNT(*) < 4) "
        "GROUP BY r.c1"
    )
    assert q.group_by == (ColumnRef("r", "c1"),)
    sub = q.where[1]
    assert isinstance(sub, InSubquery)
    assert sub.query.having.op == "<"
    assert sub.query.having.right.value == 4


def test_comparison_operators():
    for op in ("=", "<>", "<", "<=", ">", ">="):
        q = parse(f"SELECT a FROM t WHERE b {op} 1")
        assert q.where[0].op == op


BAD_SQL = [
    ("", "expected 'select', found ''", 0),
    ("SELECT", "expected 'ident', found ''", 6),
    ("SELECT FROM t", "expected 'ident', found 'from'", 7),
    ("SELECT a", "expected 'from', found ''", 8),
    ("SELECT a FROM t WHERE", "expected 'ident', found ''", 21),
    ("SELECT a FROM t GROUP", "expected 'by', found ''", 21),
    ("SELECT a FROM t WHERE a = ",
     "expected literal or column, found ''", 26),
    ("SELECT a FROM t; DROP TABLE t", "unexpected character ';'", 15),
    ("SELECT a FROM t WHERE a LIKE 'x'",
     "expected 'op', found 'LIKE'", 24),
    # An unterminated string, and a lone quote.
    ("SELECT a FROM t WHERE b = 'abc", "unexpected character \"'\"", 26),
    ("SELECT a FROM t WHERE b = 'x''", "unexpected character \"'\"", 29),
    ("'", "unexpected character \"'\"", 0),
    # An identifier may not start with a non-ASCII letter.
    ("SELECT \u00e9 FROM t", "unexpected character '\u00e9'", 7),
    ("SELECT a FROM t;", "unexpected character ';'", 15),
    ("SELECT @a FROM t", "unexpected character '@'", 7),
    ("SELECT a\nFROM t\tWHERE b = 1.", "expected 'eof', found '.'", 27),
    ("SELECT a FROM t WHERE b = .5",
     "expected literal or column, found '.'", 26),
]


@pytest.mark.parametrize(
    "bad, message, offset", BAD_SQL, ids=[bad for bad, _, _ in BAD_SQL]
)
def test_rejects_bad_sql(bad, message, offset):
    """Each error names what was found and where, as the parser has
    always reported it."""
    with pytest.raises(ParseError) as raised:
        parse(bad)
    assert raised.value.position == offset
    assert str(raised.value) == f"{message} (at offset {offset})"


def test_to_sql_roundtrip_examples():
    samples = [
        "SELECT a FROM t",
        "SELECT t.a AS x, COUNT(*) FROM tab t GROUP BY t.a",
        "SELECT r.c1, COUNT(DISTINCT r2.c2) FROM r1 r, r1 r2 "
        "WHERE r.c1 = r2.c1 AND r.k = 'v' GROUP BY r.c1",
        "SELECT a FROM t WHERE b IN "
        "(SELECT b FROM t GROUP BY b HAVING COUNT(*) < 4)",
    ]
    for sql in samples:
        printed = parse(sql).to_sql()
        assert parse(printed) == parse(sql)


_ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {
        "select", "from", "where", "group", "by", "having", "and", "in",
        "as", "distinct", "count", "sum", "avg", "min", "max",
    }
)


@settings(max_examples=60, deadline=None)
@given(
    cols=st.lists(_ident, min_size=1, max_size=4, unique=True),
    table=_ident,
    value=st.one_of(
        st.integers(-999, 999),
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Nd"), whitelist_characters=" '"
            ),
            max_size=10,
        ),
    ),
)
def test_property_roundtrip(cols, table, value):
    """Printed queries re-parse to an identical AST."""
    from repro.sql.ast import (
        Literal,
        Query,
        SelectItem,
        TableRef,
        query as make_query,
    )

    q = make_query(
        select=[SelectItem(ColumnRef("t", c)) for c in cols],
        from_tables=[TableRef(table, "t")],
        where=[Comparison(ColumnRef("t", cols[0]), "=", Literal(value))],
        group_by=[],
    )
    assert isinstance(q, Query)
    assert parse(q.to_sql()) == q
