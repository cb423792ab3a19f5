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

# One pass of ``findall`` splits the whole text: whitespace matches no
# group, every token exactly one, and any other character the last.
_TOKEN_RE = re.compile(
    r"""
    \s+
  | (\d+\.\d+|\d+)                  # number
  | ('(?:[^']|'')*')                # string
  | ([A-Za-z_][A-Za-z_0-9]*)        # identifier or keyword
  | (<>|<=|>=|=|<|>)                # operator
  | ([(),.*-])                      # punctuation
  | (.)                             # anything else: an error
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "having",
    "and", "in", "as", "distinct",
}


def _tokenize(sql):
    """The tokens of ``sql`` as two parallel lists, kinds and texts,
    ending with an ``eof`` token."""
    kinds, texts = [], []
    for number, string, ident, op, punct, other in _TOKEN_RE.findall(sql):
        if ident:
            lowered = ident.lower()
            if lowered in _KEYWORDS:
                kinds.append("keyword")
                texts.append(lowered)
            else:
                kinds.append("ident")
                texts.append(ident)
        elif punct:
            kinds.append("punct")
            texts.append(punct)
        elif op:
            kinds.append("op")
            texts.append(op)
        elif number:
            kinds.append("number")
            texts.append(number)
        elif string:
            kinds.append("string")
            texts.append(string)
        elif other:
            raise ParseError(
                f"unexpected character {other!r}", _offset(sql, len(kinds))
            )
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _offset(sql, index):
    """Where the ``index``-th token of ``sql`` starts (the end of the
    text for the ``eof`` token); only an error needs it."""
    for match in _TOKEN_RE.finditer(sql):
        if match.lastindex is not None:
            if index == 0:
                return match.start()
            index -= 1
    return len(sql)


class _Parser:
    def __init__(self, sql):
        self._sql = sql
        self._kinds, self._texts = _tokenize(sql)
        self._index = 0

    # -- token helpers --------------------------------------------------

    def _error(self, message):
        """A :class:`ParseError` at the current token."""
        return ParseError(message, _offset(self._sql, self._index))

    def _advance(self):
        text = self._texts[self._index]
        self._index += 1
        return text

    def _expect(self, kind, text=None):
        index = self._index
        found = self._texts[index]
        if self._kinds[index] != kind or (text is not None and found != text):
            raise self._error(f"expected {text or kind!r}, found {found!r}")
        self._index += 1
        return found

    def _accept(self, kind, text=None):
        index = self._index
        if self._kinds[index] == kind and (
            text is None or self._texts[index] == text
        ):
            self._index += 1
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
            alias = self._expect("ident")
        elif self._kinds[self._index] == "ident" and self._peek_is_alias():
            alias = self._advance()
        return SelectItem(expr, alias)

    def _peek_is_alias(self):
        following = self._index + 1
        return self._kinds[following] in ("punct", "keyword", "eof") \
            and self._texts[following] != "."

    def _select_expr(self):
        index = self._index
        if self._kinds[index] == "ident" \
                and self._texts[index].lower() in AGG_FUNCS \
                and self._texts[index + 1] == "(":
            return self._func_call()
        return self._column_ref()

    def _func_call(self):
        func = self._expect("ident").lower()
        self._expect("punct", "(")
        distinct = self._accept("keyword", "distinct")
        if self._accept("punct", "*"):
            arg = Star()
        else:
            arg = self._column_ref()
        self._expect("punct", ")")
        return FuncCall(func, arg, distinct)

    def _column_ref(self):
        first = self._expect("ident")
        if self._accept("punct", "."):
            second = self._expect("ident")
            return ColumnRef(first, second)
        return ColumnRef(None, first)

    def _table_ref(self):
        table = self._expect("ident")
        alias = None
        if self._kinds[self._index] == "ident":
            alias = self._advance()
        return TableRef(table, alias)

    def _predicate(self):
        column = self._column_ref()
        if self._accept("keyword", "in"):
            self._expect("punct", "(")
            sub = self._query_block()
            self._expect("punct", ")")
            return InSubquery(column, sub)
        op = self._expect("op")
        right = self._operand()
        return Comparison(column, op, right)

    def _having_predicate(self):
        left = self._func_call()
        op = self._expect("op")
        right = self._operand()
        return Comparison(left, op, right)

    def _operand(self):
        kind, text = self._kinds[self._index], self._texts[self._index]
        if kind == "punct" and text == "-":
            self._advance()
            text = self._expect("number")
            return Literal(-float(text) if "." in text else -int(text))
        if kind == "number":
            self._advance()
            return Literal(float(text) if "." in text else int(text))
        if kind == "string":
            self._advance()
            return Literal(text[1:-1].replace("''", "'"))
        if kind == "ident":
            return self._column_ref()
        raise self._error(f"expected literal or column, found {text!r}")


def parse(sql):
    """Parse SQL text into a :class:`~repro.sql.ast.Query`."""
    return _Parser(sql).parse_query()
