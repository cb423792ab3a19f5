"""Recursive-descent parser for the benchmark SQL subset.

``parse(sql)`` returns a :class:`repro.sql.ast.Query`.  The grammar is the
subset used by the paper's query families plus obvious generalizations;
anything outside it raises :class:`~repro.common.errors.ParseError` with
the offending offset.
"""

import re

from ..common.errors import ParseError
from .ast import (
    AGG_FUNCS,
    ColumnRef,
    Comparison,
    FuncCall,
    InSubquery,
    Literal,
    SelectItem,
    Star,
    TableRef,
    query,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|=|<|>)
  | (?P<punct>[(),.*-])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "having",
    "and", "in", "as", "distinct",
}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(sql):
    tokens = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise ParseError(f"unexpected character {sql[pos]!r}", pos)
        kind = match.lastgroup
        text = match.group()
        if kind != "ws":
            if kind == "ident" and text.lower() in _KEYWORDS:
                kind = "keyword"
                text = text.lower()
            tokens.append(_Token(kind, text, pos))
        pos = match.end()
    tokens.append(_Token("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, sql):
        self._sql = sql
        self._tokens = _tokenize(sql)
        self._index = 0

    # -- token helpers --------------------------------------------------

    @property
    def _current(self):
        return self._tokens[self._index]

    def _advance(self):
        token = self._current
        self._index += 1
        return token

    def _expect(self, kind, text=None):
        token = self._current
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {token.text!r}", token.pos
            )
        return self._advance()

    def _accept(self, kind, text=None):
        token = self._current
        if token.kind == kind and (text is None or token.text == text):
            self._advance()
            return True
        return False

    # -- grammar --------------------------------------------------------

    def parse_query(self):
        node = self._query_block()
        self._expect("eof")
        return node

    def _query_block(self):
        self._expect("keyword", "select")
        select = [self._select_item()]
        while self._accept("punct", ","):
            select.append(self._select_item())

        self._expect("keyword", "from")
        tables = [self._table_ref()]
        while self._accept("punct", ","):
            tables.append(self._table_ref())

        where = []
        if self._accept("keyword", "where"):
            where.append(self._predicate())
            while self._accept("keyword", "and"):
                where.append(self._predicate())

        group_by = []
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by.append(self._column_ref())
            while self._accept("punct", ","):
                group_by.append(self._column_ref())

        having = None
        if self._accept("keyword", "having"):
            having = self._having_predicate()

        return query(select, tables, where, group_by, having)

    def _select_item(self):
        expr = self._select_expr()
        alias = None
        if self._accept("keyword", "as"):
            alias = self._expect("ident").text
        elif self._current.kind == "ident" and self._peek_is_alias():
            alias = self._advance().text
        return SelectItem(expr, alias)

    def _peek_is_alias(self):
        nxt = self._tokens[self._index + 1]
        return nxt.kind in ("punct", "keyword", "eof") and nxt.text != "."

    def _select_expr(self):
        token = self._current
        if token.kind == "ident" and token.text.lower() in AGG_FUNCS \
                and self._tokens[self._index + 1].text == "(":
            return self._func_call()
        return self._column_ref()

    def _func_call(self):
        func = self._expect("ident").text.lower()
        self._expect("punct", "(")
        distinct = self._accept("keyword", "distinct")
        if self._accept("punct", "*"):
            arg = Star()
        else:
            arg = self._column_ref()
        self._expect("punct", ")")
        return FuncCall(func, arg, distinct)

    def _column_ref(self):
        first = self._expect("ident").text
        if self._accept("punct", "."):
            second = self._expect("ident").text
            return ColumnRef(first, second)
        return ColumnRef(None, first)

    def _table_ref(self):
        table = self._expect("ident").text
        alias = None
        if self._current.kind == "ident":
            alias = self._advance().text
        return TableRef(table, alias)

    def _predicate(self):
        column = self._column_ref()
        if self._accept("keyword", "in"):
            self._expect("punct", "(")
            sub = self._query_block()
            self._expect("punct", ")")
            return InSubquery(column, sub)
        op = self._expect("op").text
        right = self._operand()
        return Comparison(column, op, right)

    def _having_predicate(self):
        left = self._func_call()
        op = self._expect("op").text
        right = self._operand()
        return Comparison(left, op, right)

    def _operand(self):
        token = self._current
        if token.kind == "punct" and token.text == "-":
            self._advance()
            number = self._expect("number")
            text = number.text
            return Literal(-float(text) if "." in text else -int(text))
        if token.kind == "number":
            self._advance()
            text = token.text
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            self._advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "ident":
            return self._column_ref()
        raise ParseError(
            f"expected literal or column, found {token.text!r}", token.pos
        )


def parse(sql):
    """Parse SQL text into a :class:`~repro.sql.ast.Query`."""
    return _Parser(sql).parse_query()
