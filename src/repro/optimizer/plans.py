"""Physical plan nodes.

A plan is a tree of dataclasses; the planner attaches a
:class:`PlanEstimate` (estimated rows, width, cumulative cost) to every
node, and the executor walks the same tree charging *actual* costs to the
virtual clock.  Batch columns are keyed ``"alias.column"``.
"""

from dataclasses import dataclass, field


@dataclass
class PlanEstimate:
    """Optimizer annotations on a node."""

    rows: float
    width: float
    cost: float


@dataclass
class SemiSource:
    """The inner of an IN-subquery: produces the allowed-value set.

    ``via`` selects the physical strategy:

    * ``'scan'``        — seq scan + hash aggregate over the base table;
    * ``'index_only'``  — stream the aggregate off an index whose leading
      column is the subquery column;
    * ``'view'``        — read a matching single-table aggregate view
      (optionally through an index on the view).
    """

    semi: object                   # binder.SemiJoin
    via: str
    index: object = None           # IndexInfo (base table or view index)
    view: object = None            # ViewInfo for via='view'
    est: PlanEstimate = None

    def describe(self):
        target = f"{self.semi.sub_table}.{self.semi.sub_column}"
        return f"semi[{self.via}] {target} {self.semi.having_op} {self.semi.having_value}"


@dataclass
class SemiFilter:
    """Membership filter of a scan column against a SemiSource result."""

    key: str                       # "alias.column" being filtered
    source: SemiSource
    selectivity: float = 1.0


@dataclass
class ScanFilter:
    """Literal comparison applied at a scan."""

    key: str                       # "alias.column"
    column: str
    op: str
    value: object


@dataclass
class PlanNode:
    """Base class for physical nodes."""

    est: PlanEstimate = field(default=None, init=False)

    def children(self):
        return []

    def describe(self):
        return type(self).__name__


@dataclass
class SeqScan(PlanNode):
    """Full scan of a base table bound to ``alias``."""

    alias: str
    table: str
    columns: list                  # output column names of the base table
    filters: list = field(default_factory=list)
    semi_filters: list = field(default_factory=list)

    def describe(self):
        return f"SeqScan({self.alias}={self.table})"


@dataclass
class IndexScan(PlanNode):
    """Equality index scan with optional heap fetch.

    ``prefix_filters`` are the filters consumed by the index prefix (in
    key order); the rest are applied after the fetch.  When ``index_only``
    the needed columns are covered by the key and no heap fetch happens.
    """

    alias: str
    table: str
    index: object                  # IndexInfo
    columns: list
    prefix_filters: list = field(default_factory=list)
    residual_filters: list = field(default_factory=list)
    semi_filters: list = field(default_factory=list)
    index_only: bool = False

    def describe(self):
        kind = "IndexOnlyScan" if self.index_only else "IndexScan"
        cols = ",".join(self.index.definition.columns)
        return f"{kind}({self.alias}={self.table} via [{cols}])"


@dataclass
class SemiIndexScan(PlanNode):
    """Semijoin-driven index scan.

    The allowed-value set of an IN-subquery drives batch probes into an
    index on the filtered column, instead of scanning the table and
    filtering by membership.  Wins when the subquery yields few values;
    the planner costs both shapes and picks.
    """

    alias: str
    table: str
    index: object                  # IndexInfo led by the semijoin column
    driving: object                # SemiFilter whose source provides probes
    columns: list
    residual_filters: list = field(default_factory=list)
    semi_filters: list = field(default_factory=list)   # remaining semis

    def describe(self):
        return (
            f"SemiIndexScan({self.alias}={self.table} via "
            f"[{','.join(self.index.definition.columns)}])"
        )


@dataclass
class ViewScan(PlanNode):
    """Scan of a materialized view standing in for one or two aliases.

    ``column_map`` maps output batch keys (``"alias.column"``) to view
    column names; the view's ``cnt`` column becomes the batch weight.
    """

    view: object                   # ViewInfo
    aliases: tuple
    column_map: dict
    filters: list = field(default_factory=list)
    index: object = None           # optional IndexInfo on the view

    def describe(self):
        return f"ViewScan({self.view.definition.name})"


@dataclass
class HashJoin(PlanNode):
    """Equality hash join; the right side is the build side."""

    left: PlanNode
    right: PlanNode
    left_keys: list                # batch keys on the probe side
    right_keys: list               # batch keys on the build side

    def children(self):
        return [self.left, self.right]

    def describe(self):
        keys = ", ".join(
            f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin({keys})"


@dataclass
class IndexNLJoin(PlanNode):
    """Index-nested-loop join: probe ``index`` on the inner table.

    The outer side streams probe values from ``outer_key``; matched inner
    rows are fetched and filtered by the residual predicates.
    ``extra_preds`` holds the join's remaining equality predicates as
    ``(outer batch key, inner column)`` pairs, checked on the matches.
    """

    outer: PlanNode
    alias: str
    table: str
    index: object                  # IndexInfo on the inner table
    outer_key: str                 # batch key on the outer side
    inner_column: str              # leading index column being probed
    columns: list
    residual_filters: list = field(default_factory=list)
    semi_filters: list = field(default_factory=list)
    index_only: bool = False
    extra_preds: list = field(default_factory=list)

    def children(self):
        return [self.outer]

    def describe(self):
        kind = "IndexOnlyNLJoin" if self.index_only else "IndexNLJoin"
        return (
            f"{kind}({self.outer_key} -> "
            f"{self.alias}.{self.inner_column})"
        )


@dataclass
class HashAggregate(PlanNode):
    """Hash aggregation (grand total when ``group_keys`` is empty)."""

    child: PlanNode
    group_keys: list               # batch keys
    aggregates: list               # binder.AggSpec list

    def children(self):
        return [self.child]

    def describe(self):
        return f"HashAggregate({', '.join(self.group_keys) or 'ALL'})"


@dataclass
class Project(PlanNode):
    """Column projection for non-aggregating queries."""

    child: PlanNode
    keys: list

    def children(self):
        return [self.child]


def walk(plan):
    """Yield every node of the plan tree (pre-order)."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def explain(plan, indent=0):
    """Multi-line EXPLAIN-style rendering of a plan."""
    pad = "  " * indent
    est = plan.est
    suffix = ""
    if est is not None:
        suffix = f"  (rows={est.rows:.0f} cost={est.cost:.2f}s)"
    lines = [f"{pad}{plan.describe()}{suffix}"]
    scans = getattr(plan, "semi_filters", None)
    if scans:
        for semi in scans:
            lines.append(f"{pad}  [semi] {semi.source.describe()}")
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
