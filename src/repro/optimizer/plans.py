"""Physical plan nodes.

A plan is a tree of dataclasses; the planner attaches a
:class:`PlanEstimate` (estimated rows, width, cumulative cost) to every
node, and the executor walks the same tree charging *actual* costs to the
virtual clock.  Batch columns are keyed ``"alias.column"``.

Each node lists its own charge inputs as :meth:`PlanNode.facts`: its
keys, columns and filters, the semijoin sources it evaluates, and the
definition and geometry of every index and view it reads.  Those facts
and the bound query are everything the executor charges by, besides
the data, so :func:`plan_fingerprint` (the facts of every node) names
the actual cost ``A(q, C)`` of a plan; :func:`explain` prints every
fact it covers.
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

    def facts(self, label, key):
        """The source's charge inputs, filtering batch key ``key``."""
        semi = self.semi
        facts = [(label, key, self.via, semi.sub_table, semi.sub_column,
                  semi.having_op, semi.having_value)]
        if self.index is not None:
            facts.append(_index_fact(f"{label} index", self.index))
        if self.view is not None:
            facts.append(_view_fact(f"{label} view", self.view))
        return facts


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
    # Not a field: a cached plan's root gets its plan_fingerprint the
    # first time the plan is measured (Database.measure), and keeps it.
    fingerprint = None

    def children(self):
        return []

    def describe(self):
        return type(self).__name__

    def facts(self):
        """The node's own charge inputs, as ``(label, *values)`` tuples:
        the ``"node"`` fact is what :meth:`describe` shows, the others
        are :func:`explain`'s ``[label]`` lines."""
        return ()


def _index_fact(label, info):
    """An index's definition and geometry.  Not its cluster factor: a
    built index's is a function of the definition and the data, and
    reading it merges the rows an insert left the index owing."""
    return (label, info.definition, info.entries, info.leaf_pages,
            info.height)


def _view_fact(label, info):
    """A view's definition and geometry."""
    return (label, info.definition, info.rows, info.page_count,
            info.row_width)


def _filter_facts(label, filters):
    return [(label, flt.key, flt.op, flt.value) for flt in filters]


def _semi_facts(label, semi_filters):
    return [fact for flt in semi_filters
            for fact in flt.source.facts(label, flt.key)]


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

    def facts(self):
        return (
            ("node", self.alias, self.table),
            ("columns", tuple(self.columns)),
            *_filter_facts("filter", self.filters),
            *_semi_facts("semi", self.semi_filters),
        )


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

    def facts(self):
        return (
            ("node", self.alias, self.table, self.index_only),
            _index_fact("index", self.index),
            ("columns", tuple(self.columns)),
            *_filter_facts("prefix", self.prefix_filters),
            *_filter_facts("filter", self.residual_filters),
            *_semi_facts("semi", self.semi_filters),
        )


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
            f"[{','.join(self.index.definition.columns)}] driven by "
            f"{self.driving.source.describe()})"
        )

    def facts(self):
        return (
            ("node", self.alias, self.table),
            _index_fact("index", self.index),
            *_semi_facts("drive", [self.driving]),
            ("columns", tuple(self.columns)),
            *_filter_facts("filter", self.residual_filters),
            *_semi_facts("semi", self.semi_filters),
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

    def facts(self):
        facts = [
            _view_fact("view", self.view),
            ("aliases", tuple(self.aliases)),
            ("columns", tuple(self.column_map.items())),
            *_filter_facts("filter", self.filters),
        ]
        if self.index is not None:
            facts.append(_index_fact("index", self.index))
        return tuple(facts)


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

    def facts(self):
        return (("node", tuple(self.left_keys), tuple(self.right_keys)),)


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
            f"{self.alias}.{self.inner_column} "
            f"via [{','.join(self.index.definition.columns)}])"
        )

    def facts(self):
        return (
            ("node", self.outer_key, self.alias, self.table,
             self.inner_column, self.index_only),
            _index_fact("index", self.index),
            ("columns", tuple(self.columns)),
            *(("extra", outer_key, f"{self.alias}.{inner_column}")
              for outer_key, inner_column in self.extra_preds),
            *_filter_facts("filter", self.residual_filters),
            *_semi_facts("semi", self.semi_filters),
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

    def facts(self):
        return (
            ("node", tuple(self.group_keys)),
            ("aggregates", tuple(agg.label() for agg in self.aggregates)),
        )


@dataclass
class Project(PlanNode):
    """Column projection for non-aggregating queries."""

    child: PlanNode
    keys: list

    def children(self):
        return [self.child]

    def facts(self):
        return (("keys", tuple(self.keys)),)


def walk(plan):
    """Yield every node of the plan tree (pre-order)."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def plan_fingerprint(plan):
    """A hashable name of everything the executor charges ``plan`` by:
    each node's kind and :meth:`~PlanNode.facts`, in tree order.

    With the bound query and the data, it determines the plan's
    virtual seconds and rows: two plans with one fingerprint run alike.
    """
    return (type(plan).__name__, plan.facts(),
            *map(plan_fingerprint, plan.children()))


def _show_definition(definition):
    """An index or view definition by its contents."""
    if hasattr(definition, "group_columns"):
        columns = ", ".join(c.name for c in definition.group_columns)
        text = f"{definition.name}({columns})"
        if definition.join_pred is not None:
            (t1, c1), (t2, c2) = definition.join_pred
            text += f" on {t1}.{c1}={t2}.{c2}"
        return text
    kind = "pk " if definition.is_primary else ""
    return f"{kind}{definition.table}[{','.join(definition.columns)}]"


def _show_fact(fact):
    label, *values = fact
    kind = label.rsplit(" ", 1)[-1]
    if kind == "index":
        definition, entries, leaf_pages, height = values
        text = (f"{_show_definition(definition)} entries={entries} "
                f"leaf_pages={leaf_pages} height={height}")
    elif kind == "view":
        definition, rows, pages, width = values
        text = (f"{_show_definition(definition)} rows={rows} "
                f"pages={pages} row_width={width}")
    elif kind in ("semi", "drive"):
        key, via, table, column, op, value = values
        text = f"semi[{via}] {table}.{column} {op} {value} for {key}"
    elif kind in ("filter", "prefix"):
        key, op, value = values
        text = f"{key} {op} {value!r}"
    elif kind == "extra":
        text = " = ".join(values)
    else:
        (items,) = values
        text = ", ".join(
            "=".join(item) if isinstance(item, tuple) else item
            for item in items
        )
    return f"[{label}] {text}"


def explain(plan, indent=0):
    """Multi-line EXPLAIN-style rendering of a plan: each node's
    :meth:`~PlanNode.describe` and estimate, then every fact of
    :func:`plan_fingerprint` it does not show."""
    pad = "  " * indent
    est = plan.est
    suffix = ""
    if est is not None:
        suffix = f"  (rows={est.rows:.0f} cost={est.cost:.2f}s)"
    lines = [f"{pad}{plan.describe()}{suffix}"]
    for fact in plan.facts():
        if fact[0] == "node":
            continue                   # describe() shows these
        lines.append(f"{pad}  {_show_fact(fact)}")
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
