"""Planner environment: what physical structures exist (or would exist).

The same planner serves three estimation modes, distinguished purely by
what the environment contains:

* **real** — built indexes/views with measured metadata (cluster factors,
  actual view sizes); used for ``E(q, C)`` estimates and for execution;
* **hypothetical** — :class:`IndexInfo`/:class:`ViewInfo` derived from
  size formulas with worst-case cluster factors, paired with the degraded
  estimator policy; used for ``H(q, Ch, Ca)`` what-if calls, i.e. by the
  recommenders.
"""

from dataclasses import dataclass, field
from operator import is_

from ..index.definition import estimate_index_size


@dataclass
class IndexInfo:
    """Metadata the optimizer needs about one (possibly hypothetical) index."""

    definition: object             # IndexDefinition
    entries: int
    leaf_pages: int
    height: int
    hypothetical: bool = False
    data: object = None            # IndexData when built
    # The cluster factor of an index that is not built.
    assumed_cluster_factor: float = 1.0

    @classmethod
    def from_data(cls, index_data):
        """Wrap a built index."""
        return cls(
            definition=index_data.definition,
            entries=index_data.entry_count,
            leaf_pages=index_data.size.leaf_pages,
            height=index_data.size.height,
            hypothetical=False,
            data=index_data,
        )

    @property
    def cluster_factor(self):
        """The fraction of a random heap page read per fetched row: a
        built index's measured one, read when a heap fetch through it
        is costed — an index an insert left unmerged merges only if a
        plan fetches through it — else the assumed one."""
        if self.data is None:
            return self.assumed_cluster_factor
        return self.data.cluster_factor

    @classmethod
    def hypothetical_on(cls, definition, row_count, key_width,
                        overhead_factor=1.0):
        """Derive what-if metadata for an index that does not exist.

        The cluster factor is pinned at the conservative worst case (1.0):
        without building the index the system cannot know how correlated
        the key order is with the heap order.  This is the main driver of
        the paper's H-vs-E estimate gap (Figure 10).
        """
        size = estimate_index_size(row_count, key_width, overhead_factor)
        return cls(
            definition=definition,
            entries=row_count,
            leaf_pages=size.leaf_pages,
            height=size.height,
            hypothetical=True,
        )


@dataclass
class ViewInfo:
    """Metadata about one (possibly hypothetical) materialized view."""

    definition: object             # MatViewDefinition
    rows: int
    page_count: int
    row_width: int
    indexes: list = field(default_factory=list)
    hypothetical: bool = False
    data: object = None            # built Table when real


class TableStructures:
    """The indexes and single-table views on one base table.

    The planner keys what it memoizes about an alias by the *identity*
    of this object: an environment derived from another one shares it
    for every table the derivation left alone (:meth:`PlannerEnv.adopt`).
    """

    __slots__ = ("indexes", "views")

    def __init__(self, indexes=(), views=()):
        self.indexes = tuple(indexes)
        self.views = tuple(views)

    def same_as(self, other):
        return len(self.indexes) == len(other.indexes) \
            and len(self.views) == len(other.views) \
            and all(map(is_, self.indexes, other.indexes)) \
            and all(map(is_, self.views, other.views))


_NO_STRUCTURES = TableStructures()


class QueryMemo:
    """What planning one bound query has derived so far.

    ``facts`` is what depends on the query and the estimator only;
    ``entries`` maps identity keys (``id()`` of the structures, path
    lists and plan nodes a result was derived from) to ``(inputs,
    result)`` — an entry holds its inputs, so an ``id()`` in a stored
    key always names a live object.  What-if planning runs on one
    thread, so an entry is derived once, by whoever needs it first.
    """

    __slots__ = ("facts", "entries")

    def __init__(self, facts):
        self.facts = facts
        self.entries = {}


class PlanMemo:
    """The :class:`QueryMemo` of every query planned under one what-if
    environment and the environments derived from it."""

    def __init__(self):
        self._queries = {}

    def query(self, bound, build_facts, env):
        """The memo of ``bound`` — of that object: its facts
        (``build_facts(bound, env)`` the first time) hold the query's
        own predicate objects, and so keep its ``id`` taken."""
        memo = self._queries.get(id(bound))
        if memo is None:
            memo = QueryMemo(build_facts(bound, env))
            self._queries[id(bound)] = memo
        return memo


@dataclass
class PlannerEnv:
    """Everything the planner consults besides the query itself.

    ``memo`` is set on what-if environments only: one built from
    scratch owns a fresh :class:`PlanMemo`, one derived from it
    (:meth:`adopt`) reads and extends the same memo but never stores a
    result that depends on a structure of its own (``volatile``), so
    nothing a trial adds outlives the trial.  The environment of the
    built configuration has none — every executed plan is a private
    tree.

    ``join_graphs`` holds the planner's join-graph facts, keyed by the
    relations and join predicates of a query (in order): they depend
    on those and on the estimator only.  An environment derived from
    this one by :meth:`adopt` runs on the same estimator, so it shares
    the dict too.
    """

    catalog: object                # Catalog
    estimator: object              # Estimator
    hardware: object               # HardwareProfile
    indexes: dict = field(default_factory=dict)   # table -> [IndexInfo]
    views: list = field(default_factory=list)     # [ViewInfo]
    memo: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        on_table = {}
        for view in self.views:
            if not view.definition.is_join_view:
                on_table.setdefault(view.definition.tables[0], []).append(view)
        self._structures = {
            table: TableStructures(
                self.indexes.get(table, ()), on_table.get(table, ())
            )
            for table in {*self.indexes, *on_table}
        }
        self.join_views = tuple(
            view for view in self.views if view.definition.is_join_view
        )
        self.volatile = frozenset()
        self.join_graphs = {}

    def adopt(self, base):
        """Share ``base``'s memo, join graphs and per-table structures.

        Called on an environment derived from ``base``, on ``base``'s
        estimator, before anyone plans with it.  A table whose indexes
        and views are — by identity — the base's gets the base's
        :class:`TableStructures` object, so what the memo holds for it
        is found again; what is left over (and every view the base does
        not have) is this environment's own and marks a result as not to
        be kept.
        """
        own = set()
        for table, mine in self._structures.items():
            theirs = base.structures_on(table)
            if mine.same_as(theirs):
                self._structures[table] = theirs
            else:
                own.add(id(mine))
        shared_views = {id(view) for view in base.views}
        own.update(
            id(view) for view in self.views if id(view) not in shared_views
        )
        self.volatile = frozenset(own)
        self.memo = base.memo
        self.join_graphs = base.join_graphs

    def structures_on(self, table):
        """The :class:`TableStructures` of a base table."""
        return self._structures.get(table, _NO_STRUCTURES)
