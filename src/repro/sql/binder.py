"""Name resolution: AST -> bound query.

The bound form is what the optimizer consumes: relations keyed by alias,
equality join predicates, literal filters, semijoin (IN-subquery)
predicates in the benchmark's ``GROUP BY ... HAVING COUNT(*) op k`` shape,
group-by columns and aggregate specs.
"""

from dataclasses import dataclass, field

from ..common.errors import BindError
from .ast import ColumnRef, Comparison, FuncCall, InSubquery, Literal, Star


@dataclass(frozen=True)
class BoundColumn:
    """A column pinned to a relation alias."""

    alias: str
    column: str

    def __str__(self):
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class JoinPred:
    """Equality join ``left = right`` between two relation aliases."""

    left: BoundColumn
    right: BoundColumn


@dataclass(frozen=True)
class Filter:
    """Comparison of a column against a literal."""

    target: BoundColumn
    op: str
    value: object


@dataclass(frozen=True)
class SemiJoin:
    """``target IN (SELECT sub_column FROM sub_table GROUP BY sub_column
    HAVING COUNT(*) op value)``."""

    target: BoundColumn
    sub_table: str
    sub_column: str
    having_op: str
    having_value: int


@dataclass(frozen=True)
class AggSpec:
    """One aggregate of the SELECT list."""

    func: str
    arg: BoundColumn = None   # None means COUNT(*)
    distinct: bool = False

    def label(self):
        inner = "*" if self.arg is None else str(self.arg)
        prefix = "distinct " if self.distinct else ""
        return f"{self.func}({prefix}{inner})"


@dataclass
class BoundQuery:
    """A fully-resolved query block."""

    relations: dict                      # alias -> table name (ordered)
    join_preds: list = field(default_factory=list)
    filters: list = field(default_factory=list)
    semijoins: list = field(default_factory=list)
    group_by: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    output: list = field(default_factory=list)   # ('col', BoundColumn) | ('agg', i)
    sql: str = ""

    def columns_of(self, alias):
        """All columns of ``alias`` referenced anywhere in the query."""
        needed = set()
        for pred in self.join_preds:
            for side in (pred.left, pred.right):
                if side.alias == alias:
                    needed.add(side.column)
        for flt in self.filters:
            if flt.target.alias == alias:
                needed.add(flt.target.column)
        for semi in self.semijoins:
            if semi.target.alias == alias:
                needed.add(semi.target.column)
        for col in self.group_by:
            if col.alias == alias:
                needed.add(col.column)
        for agg in self.aggregates:
            if agg.arg is not None and agg.arg.alias == alias:
                needed.add(agg.arg.column)
        for kind, ref in self.output:
            if kind == "col" and ref.alias == alias:
                needed.add(ref.column)
        return sorted(needed)


class Binder:
    """Resolves one AST query block against a catalog."""

    def __init__(self, catalog):
        self._catalog = catalog

    def bind(self, ast_query):
        relations = {}
        for ref in ast_query.from_tables:
            if not self._catalog.has_table(ref.table):
                raise BindError(f"unknown table {ref.table!r}")
            binding = ref.binding
            if binding in relations:
                raise BindError(f"duplicate alias {binding!r}")
            relations[binding] = ref.table

        bound = BoundQuery(relations=relations, sql=ast_query.to_sql())

        for pred in ast_query.where:
            self._bind_predicate(bound, pred)

        for col in ast_query.group_by:
            bound.group_by.append(self._resolve(bound, col))

        for item in ast_query.select:
            if isinstance(item.expr, FuncCall):
                bound.aggregates.append(self._bind_agg(bound, item.expr))
                bound.output.append(("agg", len(bound.aggregates) - 1))
            else:
                resolved = self._resolve(bound, item.expr)
                if bound.group_by and resolved not in bound.group_by:
                    raise BindError(
                        f"{resolved} selected but not grouped"
                    )
                bound.output.append(("col", resolved))

        if ast_query.having is not None:
            raise BindError(
                "HAVING is only supported inside IN-subqueries"
            )
        return bound

    # ------------------------------------------------------------------

    def _bind_predicate(self, bound, pred):
        if isinstance(pred, InSubquery):
            bound.semijoins.append(self._bind_semijoin(bound, pred))
            return
        if not isinstance(pred, Comparison):
            raise BindError(f"unsupported predicate {pred!r}")
        left = self._resolve(bound, pred.left)
        if isinstance(pred.right, ColumnRef):
            right = self._resolve(bound, pred.right)
            if pred.op != "=":
                raise BindError("only equality joins are supported")
            self._check_comparable(
                bound, left, right,
                self._kind(bound.relations[right.alias], right.column),
            )
            bound.join_preds.append(JoinPred(left, right))
        elif isinstance(pred.right, Literal):
            value = pred.right.value
            self._check_comparable(
                bound, left, f"the literal {pred.right.to_sql()}",
                "string" if isinstance(value, str) else "numeric",
            )
            bound.filters.append(Filter(left, pred.op, value))
        else:
            raise BindError(f"unsupported comparison operand {pred.right!r}")

    def _bind_semijoin(self, bound, pred):
        target = self._resolve(bound, pred.column)
        sub = pred.query
        if len(sub.from_tables) != 1 or sub.where or len(sub.group_by) != 1:
            raise BindError(
                "IN-subqueries must be single-table GROUP BY blocks"
            )
        sub_table = sub.from_tables[0].table
        if not self._catalog.has_table(sub_table):
            raise BindError(f"unknown table {sub_table!r} in subquery")
        group_col = sub.group_by[0].column
        if len(sub.select) != 1:
            raise BindError("IN-subqueries must select exactly one column")
        sel = sub.select[0].expr
        if not isinstance(sel, ColumnRef) or sel.column != group_col:
            raise BindError(
                "IN-subqueries must select their GROUP BY column"
            )
        having = sub.having
        if having is None or not isinstance(having.left, FuncCall) \
                or having.left.func != "count" \
                or not isinstance(having.left.arg, Star):
            raise BindError(
                "IN-subqueries must have a HAVING COUNT(*) predicate"
            )
        if not isinstance(having.right, Literal):
            raise BindError("HAVING must compare against a literal")
        schema = self._catalog.table(sub_table)
        if not schema.has_column(group_col):
            raise BindError(
                f"no column {group_col!r} in table {sub_table!r}"
            )
        self._check_comparable(
            bound, target,
            f"{sub_table}.{group_col}", self._kind(sub_table, group_col),
        )
        return SemiJoin(
            target=target,
            sub_table=sub_table,
            sub_column=group_col,
            having_op=having.op,
            having_value=int(having.right.value),
        )

    def _bind_agg(self, bound, call):
        if isinstance(call.arg, Star):
            if call.func != "count":
                raise BindError(f"{call.func.upper()}(*) is not supported")
            return AggSpec("count", None, False)
        arg = self._resolve(bound, call.arg)
        return AggSpec(call.func, arg, call.distinct)

    def _kind(self, table, column):
        """``'string'`` or ``'numeric'``: values compare within these
        two classes only — strings with strings, and ``int``, ``float``
        and ``date`` columns with one another."""
        sql_type = self._catalog.table(table).column(column).sql_type
        return "string" if sql_type.kind == "str" else "numeric"

    def _check_comparable(self, bound, column, other, other_kind):
        """Refuse comparing the bound ``column`` with ``other`` (a
        column or a literal, named for the message) of another kind: a
        mismatch would otherwise surface as a NumPy ``TypeError`` out
        of the executor, or as a silently empty result."""
        kind = self._kind(bound.relations[column.alias], column.column)
        if kind != other_kind:
            raise BindError(
                f"{column} ({kind}) and {other} ({other_kind}) "
                f"are not comparable"
            )

    def _resolve(self, bound, ref):
        if ref.qualifier is not None:
            if ref.qualifier not in bound.relations:
                raise BindError(f"unknown alias {ref.qualifier!r}")
            table = bound.relations[ref.qualifier]
            if not self._catalog.table(table).has_column(ref.column):
                raise BindError(
                    f"no column {ref.column!r} in {table!r} "
                    f"(alias {ref.qualifier!r})"
                )
            return BoundColumn(ref.qualifier, ref.column)
        candidates = [
            alias
            for alias, table in bound.relations.items()
            if self._catalog.table(table).has_column(ref.column)
        ]
        if not candidates:
            raise BindError(f"column {ref.column!r} resolves to no table")
        if len(candidates) > 1:
            raise BindError(
                f"column {ref.column!r} is ambiguous across {candidates}"
            )
        return BoundColumn(candidates[0], ref.column)
