"""The what-if cost service: memoized ``H`` costs for the recommenders.

The paper's central diagnostic (Section 5) is that recommender quality
is bounded by the optimizer's hypothetical estimates ``H(q, Ch, Ca)`` —
and in this reproduction those what-if calls are also the dominant
runtime cost: every greedy round prices its surviving candidates
against the queries they can affect.  Keyed by the *full*
trial-configuration fingerprint, which changes every round (the current
configuration grows), cross-round repeats would always miss.

This service sits between the recommenders and the what-if optimizer
(:meth:`~repro.engine.database.Database.price_hypothetical`, which plans
every call and memoizes nothing) and adds **atomic-configuration
memoization**: the cost of a query is keyed by the *relevant subset* of
the trial configuration's structures — exactly the indexes and views
the planner could put into a plan for that query.  The rule is the
planner's own (:class:`QueryProfile`):

* an index enters a plan as an equality-prefix scan, a semijoin
  source or probe, a covering index-only scan, or the inner of an
  index-nested-loop join — and the planner builds no such join into an
  alias that carries a semijoin;
* a single-column view on a semijoin's subquery column can be that
  semijoin's source;
* any other view only rewrites a COUNT-only query, where the planner's
  own tests (:func:`~repro.optimizer.planner.single_view_columns`,
  :func:`~repro.optimizer.planner.match_join_view`) decide which
  aliases it can stand in for.

A structure outside these leaves every plan of the query as it is, so
two trial configurations that agree on a query's relevant subset yield
the same cost, however much they differ elsewhere.  Concretely: once
candidate ``X`` has been priced against query ``q`` in round 1,
selecting an unrelated structure ``Y`` does not force ``q`` to be
re-planned against ``current + Y + X`` in round 2 — the round-1 cost is
reused.

The same rule says which queries a candidate can affect at all
(:meth:`WhatIfCostService.affects`): a structure the planner could not
use for ``q`` leaves ``q``'s key, and so its cost, unchanged.  The
recommenders price a candidate against those queries only, one
:meth:`WhatIfCostService.cost` call at a time, so that a greedy round
can stop pricing a candidate the moment it is ruled out.

The memo lives in the owning database's
:attr:`~repro.engine.database.Database.whatif_cache`, so it is dropped
by the same ``invalidate_caches`` path as every plan: applying a
configuration, inserting rows, collecting statistics, or (re)loading a
table all clear it.  The cache's own statistics are the memo's only
hit/miss count.  A service is thread-confined: one recommender owns it
and prices on one thread, so it holds no lock.

The service never changes a cost:
``tests/test_whatif_service.py::test_service_costs_match_direct_estimates``
checks every cost it returns against
:meth:`~repro.engine.database.Database.estimate_hypothetical` under the
full trial configuration, and
``test_a_candidate_the_rule_rejects_changes_no_plan`` plans every
query the rule rejects, for every candidate of every family's pool,
with and without the candidate.
"""

from operator import is_

from .. import obs
from ..optimizer.planner import (
    count_only,
    match_join_view,
    single_view_columns,
)


def query_tables(bound):
    """The set of base tables a bound query touches (incl. semijoins)."""
    tables = set(bound.relations.values())
    for semi in bound.semijoins:
        tables.add(semi.sub_table)
    return tables


class QueryProfile:
    """The facts of one bound query that decide which structures the
    planner (:mod:`repro.optimizer.planner`) can put into its plan.

    An index can enter a plan only with its *leading* column one of:

    * an equality-filter column of an alias (a prefix scan);
    * a semijoin target column (a probe driven by the subquery's values);
    * a semijoin subquery column (an index-only semijoin source);
    * a join column of an alias that carries no semijoin (the inner of
      an index-nested-loop join, which the planner never builds into
      an alias with one);

    or else it must cover every column a scan of some alias touches (a
    covering index-only scan).  A single-column view on a semijoin's
    subquery column can be that semijoin's source.  Every other view
    use is a rewrite of a COUNT-only query
    (:func:`~repro.optimizer.planner.count_only`), and the planner's own
    tests decide it: :func:`~repro.optimizer.planner.single_view_columns` for
    a single-table view, :func:`~repro.optimizer.planner.match_join_view`
    for a join view.  What the index rules look at is captured here
    once per query, so :func:`relevant_key` can test candidate
    structures cheaply.
    """

    __slots__ = ("first_cols", "touched", "rewrites", "semi_views")

    def __init__(self, bound, catalog):
        tables = query_tables(bound)
        # Columns that make an index on the table usable when they LEAD
        # the index key.
        self.first_cols = {t: set() for t in tables}
        # Per table, one set per alias: every column the scan touches;
        # an index covering one of these sets is usable index-only.
        self.touched = {}
        semi_aliases = {s.target.alias for s in bound.semijoins}
        for semi in bound.semijoins:
            self.first_cols[semi.sub_table].add(semi.sub_column)
        for pred in bound.join_preds:
            for ref in (pred.left, pred.right):
                if ref.alias not in semi_aliases:
                    self.first_cols[bound.relations[ref.alias]].add(
                        ref.column
                    )
        for alias, table in bound.relations.items():
            first = self.first_cols[table]
            filters = [f for f in bound.filters if f.target.alias == alias]
            semis = [s for s in bound.semijoins if s.target.alias == alias]
            for flt in filters:
                if flt.op == "=":
                    first.add(flt.target.column)
            for semi in semis:
                first.add(semi.target.column)
            needed = bound.columns_of(alias)
            if not needed:
                # The planner's COUNT(*)-only fallback: it scans the
                # narrowest column, so that is what covering must cover.
                columns = catalog.table(table).columns
                needed = [min(columns, key=lambda c: c.width).name]
            touched = set(needed)
            touched.update(f.target.column for f in filters)
            touched.update(s.target.column for s in semis)
            self.touched.setdefault(table, []).append(frozenset(touched))
        # The query the planner may rewrite onto views, if any.
        self.rewrites = bound if count_only(bound) else None
        self.semi_views = {
            (s.sub_table, s.sub_column) for s in bound.semijoins
        }

    def index_usable(self, definition):
        """Whether the planner could put this index into any plan."""
        first = self.first_cols.get(definition.table)
        if first is None:
            return False        # a table (or view) the query never reads
        columns = definition.columns
        if columns[0] in first:
            return True
        covered = set(columns)
        return any(
            touched <= covered
            for touched in self.touched.get(definition.table, ())
        )

    def view_relevant(self, view):
        """Whether the planner could put this view into any plan."""
        bound = self.rewrites
        if view.is_join_view:
            return bound is not None \
                and match_join_view(bound, view) is not None
        if bound is not None and single_view_columns(bound, view):
            return True
        # The semijoin-source scan of a single-column pre-aggregation.
        if len(view.group_columns) != 1:
            return False
        gcol = view.group_columns[0]
        return (view.tables[0], gcol.column) in self.semi_views

    def affects(self, structure):
        """Whether an index or view definition can enter a plan."""
        if hasattr(structure, "group_columns"):        # a view
            return self.view_relevant(structure)
        return self.index_usable(structure)


def relevant_key(bound, config, catalog=None, profile=None):
    """Canonical text of the structures of ``config`` that can affect
    ``bound``.

    Keys the atomic memo by exactly the structures the planner could put
    into a plan of this query (the rule of :class:`QueryProfile`, whose
    view tests are the planner's own); indexes *on views* are excluded
    entirely because the planner never consults them.  A structure left
    out changes neither the plan nor its cost, so configurations with
    one key share one cost.  The
    sorted ``repr`` of the definitions, which spells out their whole
    content: order-insensitive and independent of display names, like
    :attr:`~repro.engine.configuration.Configuration.fingerprint`, but
    not digested — the key never leaves the process, and a string
    hashes once.
    """
    if profile is None:
        profile = QueryProfile(bound, catalog)
    return "|".join(sorted(
        repr(structure) for structure in (*config.views, *config.indexes)
        if profile.affects(structure)
    ))


def _added(base, config):
    """What ``config`` appends to ``base`` (``with_indexes`` /
    ``with_views`` keep the base's tuples as a prefix), else ``None``."""
    n_indexes, n_views = len(base.indexes), len(base.views)
    if len(config.indexes) < n_indexes or len(config.views) < n_views \
            or not all(map(is_, base.indexes, config.indexes)) \
            or not all(map(is_, base.views, config.views)):
        return None
    return (*config.views[n_views:], *config.indexes[n_indexes:])


class WhatIfCostService:
    """Memoized what-if costing over one database.

    Args:
        database: the :class:`~repro.engine.database.Database` whose
            optimizer answers the what-if calls (and whose
            ``whatif_cache`` stores the atomic memo).

    A service belongs to one recommender and is used from one thread.
    Its lookups are counted once, by the ``whatif_cache`` itself
    (``database.cache_stats()["whatif_cache"]``) and by the
    ``recommender.whatif_cache.*`` counters.
    """

    def __init__(self, database):
        self._db = database
        # Query profiles depend only on the bound query and the catalog,
        # so one per SQL text serves every round of a recommender run;
        # so does the relevant subset of a round's base configuration.
        self._profiles = {}
        self._base_relevant = {}

    def _profile(self, bound):
        profile = self._profiles.get(bound.sql)
        if profile is None:
            profile = self._profiles[bound.sql] = QueryProfile(
                bound, self._db.catalog
            )
        return profile

    def _relevant(self, bound, config, base):
        """The memo key's structures: ``(relevant subset of the base,
        relevant structures config adds to it)``.

        The first half is computed once per query and base and shared by
        every trial of a round; the second is the candidate's own key.
        Without a base (or when ``config`` does not extend it) the whole
        of ``config`` is the first half.  Two splits of one set are two
        keys — a lost hit, never a wrong one — and a greedy run cannot
        produce them: what it adds to a base is one candidate that is
        not in it.
        """
        profile = self._profile(bound)
        added = None if base is None else _added(base, config)
        if added is None:
            return relevant_key(bound, config, profile=profile), ()
        key = (bound.sql, base.fingerprint)
        shared = self._base_relevant.get(key)
        if shared is None:
            shared = self._base_relevant[key] = relevant_key(
                bound, base, profile=profile
            )
        return shared, tuple(filter(profile.affects, added))

    def affects(self, structure, bound):
        """Whether adding ``structure`` can change the cost of ``bound``.

        The one relevance rule of both recommenders, and the rule of the
        memo key: a candidate index or view the planner could not use
        for the query leaves :func:`relevant_key` — hence the
        memoized cost — as it is, so its gain on that query is exactly
        zero and pricing it would be a wasted lookup.  (A view
        candidate's own index never counts: the planner does not consult
        indexes on views.)  Depends on neither round nor configuration.
        """
        return self._profile(bound).affects(structure)

    def cost(self, bound, config, base=None, oracle=False):
        """Atomic-memoized ``H`` cost of one bound query under ``config``.

        The unit the greedy round prices by: no span, no bind and no
        list per call, because a candidate may be abandoned after any
        single query.  Arguments as for :meth:`costs`.
        """
        key = (
            "H", bound.sql, self._db.configuration_fingerprint,
            *self._relevant(bound, config, base),
            bool(oracle),
        )
        cache = self._db.whatif_cache
        cost = cache.get(key)
        if cost is not None:
            obs.counter_add("recommender.whatif_cache.hits")
            return cost
        obs.counter_add("recommender.whatif_cache.misses")
        cost = self._db.price_hypothetical(
            bound, config, force_hypothetical=True, oracle=oracle, base=base
        )
        cache.put(key, cost)
        return cost

    def costs(self, queries, config, base=None, oracle=False):
        """Atomic-memoized ``H`` costs of ``queries`` under ``config``.

        Every cost is taken with ``force_hypothetical=True`` — the
        recommenders' comparable-fidelity mode, and the mode in which
        the relevant-subset key is sound (the estimator policy is then
        pinned by the flag, not by which structures happen to exist).

        Args:
            queries: bound queries (or SQL strings).
            config: the trial configuration.
            base: configuration ``config`` extends, if any; forwarded to
                the database so a cache miss can build its what-if
                environment incrementally from the base's.
            oracle: full-fidelity what-if statistics (ablation knob).

        Returns:
            A list of costs, index-aligned with ``queries``.
        """
        bound = [self._db.bind(q) for q in queries]
        with obs.span(
            "service.what_if", configuration=config.name, queries=len(bound)
        ) as span:
            costs = [
                self.cost(query, config, base=base, oracle=oracle)
                for query in bound
            ]
            span.set(virtual_s=float(sum(costs)))
        return costs
